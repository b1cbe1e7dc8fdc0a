"""Seeded cases for the property tests: pure functions of an integer seed that draw
from ``numpy.random.default_rng(seed)``, and redraw from it until the case meets its
conditions, so a test over ``range(N)`` names a failing case by its seed in any order."""

import itertools
from types import SimpleNamespace

import numpy as np

from conelab.cramer import solve_cramer_point
from conelab.model import ConeSpec, StepLaw

HALFSPACE_NORMAL = np.array([1.0, -2.0, 0.5])


def _pick(rng, options):
    return options[rng.integers(len(options))]


def _distinct(rng, d, bound, size):
    box = list(itertools.product(range(-bound, bound + 1), repeat=d))
    return [box[i] for i in rng.choice(len(box), size=size, replace=False)]


def _noncollinear(rng, dims, most):
    """d + 1 to ``most(d)`` distinct steps in [-b, b]^d, (d, b) from ``dims``, that span."""
    while True:
        d, bound = _pick(rng, dims)
        support = np.array(_distinct(rng, d, bound, rng.integers(d + 1, most(d) + 1)))
        if np.linalg.matrix_rank(support[1:] - support[0]) == d:
            return support


def small_law(seed):
    """YAML-ready steps in [-2, 2]^d (d = 2 or 3) and probabilities, drift mostly into the
    negative orthant, and an orthant or, in d = 2, a tilted wedge holding the diagonal."""
    rng = np.random.default_rng(seed)
    d = _pick(rng, [2, 3])
    steps = _distinct(rng, d, 2, rng.integers(3, 7))
    if rng.integers(2):           # the unit steps make the law span positively
        axes = [tuple(int(v) for v in z) for z in np.vstack([np.eye(d), -np.eye(d)])]
        steps = axes + [z for z in steps if z not in axes]
    weights = [int(rng.integers(1, 10)) * (4 if sum(z) < 0 else 1) for z in steps]
    probs = [f"{w}/{sum(weights)}" for w in weights]
    cone = f"{{kind: orthant, dim: {d}}}"
    if d == 2 and rng.integers(2):
        beta = _pick(rng, [0.4, 0.6, 0.75, 0.9]) * np.pi
        theta0 = float(rng.uniform(np.pi / 4 - beta + 0.1, np.pi / 4 - 0.1))
        cone = f"{{kind: wedge2d, beta: {beta!r}, theta0: {theta0!r}}}"
    return steps, probs, cone


def padded_box_case(seed, keep=lambda law, cone, L: True):
    """A law of d + 1 to d + 3 spanning steps in [-2, 2]^d (d = 2 or 3), an orthant, half-space
    or (d = 2) wedge cone, and a window, that ``keep`` accepts."""
    rng = np.random.default_rng(seed)
    while True:
        support = _noncollinear(rng, [(2, 2), (3, 2)], lambda d: d + 3)
        d = support.shape[1]
        weights = rng.integers(1, 5, len(support)).astype(float)
        law = StepLaw(support=support, probs=weights / weights.sum())
        cones = [ConeSpec.orthant(d), ConeSpec.halfspace(HALFSPACE_NORMAL[:d])]
        if d == 2:
            cones.append(ConeSpec.wedge2d(0.6 * np.pi, 0.4))
        case = (law, _pick(rng, cones), int(rng.integers(3, (6 if d == 2 else 4) + 1)))
        if keep(*case):
            return case


def quadrant_law(seed):
    """The Cramér point of the unit steps and up to three more in [-2, 2]^2, weighted towards
    a negative coordinate sum, with h in the open quadrant (tail sums converge), and a window."""
    rng = np.random.default_rng(seed)
    while True:
        extra = _distinct(rng, 2, 2, rng.integers(0, 4))
        if any(abs(a) + abs(b) <= 1 for a, b in extra):
            continue
        steps = [(1, 0), (-1, 0), (0, 1), (0, -1), *extra]
        weights = np.array([rng.integers(1, 5) * (3 if sum(z) < 0 else 1) for z in steps])
        law = StepLaw(support=np.array(steps), probs=weights / weights.sum())
        if np.linalg.norm(law.mean()) > 1e-9:
            cramer = solve_cramer_point(law)
            if np.all(cramer.h > 0.05):
                return cramer, int(rng.integers(8, 31))


def noncollinear_support(seed):
    """d + 1 to 6 distinct steps in [-3, 3]^2 or [-1, 1]^3 whose differences span, and
    2 to 12 points of [-6, 6]^d, repeats allowed."""
    rng = np.random.default_rng(seed)
    support = _noncollinear(rng, [(2, 3), (3, 1)], lambda d: 6)
    return support, rng.integers(-6, 7, size=(rng.integers(2, 13), support.shape[1]))


def any_support(seed):
    """1 to 7 distinct steps in [-2, 2]^d, d = 2 or 3, spanning or not."""
    rng = np.random.default_rng(seed)
    return _distinct(rng, _pick(rng, [2, 3]), 2, rng.integers(1, 8))


def killed_walk_case(seed):
    """3-8 steps in [-2, 2]^d (d = 2 or 3) as a bare law (``StepLaw`` refuses a zero probability
    and a sum below 1, both drawn here), an orthant or half-space, a start and a seed."""
    rng = np.random.default_rng(seed)
    weights = np.zeros(1)
    while not weights.sum():
        d = _pick(rng, [2, 3])
        steps = np.array(_distinct(rng, d, 2, rng.integers(3, 9)))
        weights = rng.integers(0, 5, len(steps)).astype(float)
    law = SimpleNamespace(support=steps, probs=_pick(rng, [1.0, 0.9]) * weights / weights.sum())
    a = int(rng.integers(1, 9))
    cone, x0 = _pick(rng, [(ConeSpec.orthant(d), (a,) * d),
                           (ConeSpec.halfspace(HALFSPACE_NORMAL[:d]), (a + 2,) + (1,) * (d - 1))])
    return law, cone, x0, int(rng.integers(2**32))
