import itertools
import re

import numpy as np
import pytest
from cases import any_support, noncollinear_support

from conelab.errors import ConfigError
from conelab.model import (ConeSpec, StepLaw, build_model, check_acute_cone_condition,
                           cone_contains, cone_geometry, lattice_classes,
                           lattice_structure, span_obstruction)


def test_drift_and_aperiodicity(nn4, quadrant):
    report = build_model(nn4, quadrant)
    assert np.allclose(report.drift, [-0.25, -0.25])
    assert (report.sublattice_index, report.period) == (1, 2)


def test_build_model_deterministic(nn4, quadrant):
    a = build_model(nn4, quadrant)
    b = build_model(nn4, quadrant)
    assert np.array_equal(a.drift, b.drift)
    assert (a.sublattice_index, a.period) == (b.sublattice_index, b.period)


def test_collinear_support_rejected(quadrant):
    law = StepLaw(support=np.array([[1, 1], [-1, -1]]), probs=np.array([0.5, 0.5]))
    with pytest.raises(ConfigError, match="collinear"):
        build_model(law, quadrant)


def test_zero_drift_rejected(quadrant):
    law = StepLaw(support=np.array([[1, 0], [-1, 0], [0, 1], [0, -1]]),
                  probs=np.full(4, 0.25))
    with pytest.raises(ConfigError, match="zero drift"):
        build_model(law, quadrant)


def test_dimension_mismatch_rejected(nn4):
    with pytest.raises(ConfigError, match="dimension"):
        build_model(nn4, ConeSpec.orthant(3))


def test_sublattice_support_is_inconclusive(quadrant):
    law = StepLaw(support=np.array([[2, 0], [-2, 0], [0, 2], [0, -2]]),
                  probs=np.array([1 / 8, 3 / 8, 1 / 8, 3 / 8]))
    report = build_model(law, quadrant)
    assert (report.sublattice_index, report.period) == (4, 2)


def _uniform(support):
    support = np.array(support)
    return StepLaw(support=support, probs=np.full(len(support), 1.0 / len(support)))


E3 = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]


@pytest.mark.parametrize("support, index, period", [
    ([[1, 0], [-1, 0], [0, 1], [0, -1]], 1, 2),
    ([[1, 1], [-1, -1], [1, -1], [-1, 1]], 2, 2),
    ([[2, 0], [-2, 0], [0, 2], [0, -2]], 4, 2),
    ([[1, 0], [0, 1], [-1, -1]], 1, 3),
    ([[1, 0], [-1, 0], [0, 1], [0, -1], [0, 0]], 1, 1),
    (E3, 1, 2),
    ([[1], [-1]], 1, 2),
], ids=["nn4", "diagonal", "two-e_i", "period-3", "lazy-nn4", "octant-3d", "pm1-1d"])
def test_lattice_structure(support, index, period):
    assert lattice_structure(_uniform(support)) == (index, period)


def _subgroup(vectors, N):
    """The subgroup of (Z/N)^d the vectors generate, by closure."""
    gens = [tuple(int(v) % N for v in z) for z in vectors]
    seen = {tuple(0 for _ in gens[0])}
    frontier = list(seen)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = tuple((a + b) % N for a, b in zip(x, g))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def _modulus(vectors):
    """|det| of the first nonsingular d x d minor; N Z^d lies in their span."""
    d = vectors.shape[1]
    dets = (abs(round(np.linalg.det(vectors[list(rows)].astype(float))))
            for rows in itertools.combinations(range(len(vectors)), d))
    return next(N for N in dets if N)


def _oracle(support):
    """(index, period) by counting in finite quotients: [Z^d : G] = N^d / |G mod N|,
    and the period is the least n with n z0 in D, the differences' lattice."""
    d = support.shape[1]
    N = _modulus(support)
    index = N ** d // len(_subgroup(support, N))
    diffs = support[1:] - support[0]
    ND = _modulus(diffs)
    D = _subgroup(diffs, ND)
    z0 = support[0]
    period = next(n for n in range(1, ND ** d + 1)
                  if tuple(int(v) % ND for v in n * z0) in D)
    return index, period


@pytest.mark.parametrize("seed", range(150))
def test_lattice_structure_matches_finite_quotient_oracle(seed):
    support, _ = noncollinear_support(seed)
    assert lattice_structure(_uniform(support)) == _oracle(support)


@pytest.mark.parametrize("seed", range(60))
def test_lattice_classes_match_finite_quotient_oracle(seed):
    # two points share a label exactly when their difference lies in the group
    # the steps generate, read off in Z^d / N Z^d, which N Z^d lies inside
    support, points = noncollinear_support(seed)
    labels, index = lattice_classes(support, points)
    N = _modulus(support)
    group = _subgroup(support, N)
    for i, j in itertools.combinations(range(len(points)), 2):
        same = tuple(int(v) % N for v in points[i] - points[j]) in group
        assert (labels[i] == labels[j]) == same
    assert sorted(set(labels.tolist())) == list(range(labels.max() + 1))
    assert index == lattice_structure(_uniform(support))[0]


@pytest.mark.parametrize("support, u", [
    ([[-1, 1], [1, 2], [-1, 2]], [-1, -1]),
    ([[1, 0], [-1, 0], [0, 1]], [0, -1]),
    ([[1, 1], [2, 2], [-1, -1]], [1, -1]),
    ([[1, 0, 0], [2, 0, 0], [-1, 0, 0]], [0, 0, 1]),
    ([[1], [2]], [-1]),
], ids=["upper-half-plane", "no-down-step", "one-line", "one-line-3d", "1d-up"])
def test_span_obstruction_names_a_blocking_direction(support, u):
    assert span_obstruction(_uniform(support)) == u


@pytest.mark.parametrize("support", [
    [[1, 0], [-1, 0], [0, 1], [0, -1]], [[1, 0], [0, 1], [-1, -1]], E3, [[1], [-2]],
], ids=["nn4", "period-3", "octant-3d", "1d"])
def test_span_obstruction_none_when_steps_span(support):
    assert span_obstruction(_uniform(support)) is None


@pytest.mark.parametrize("seed", range(150))
def test_span_obstruction_matches_hull_oracle(seed, spans_oracle):
    support = any_support(seed)
    u = span_obstruction(_uniform(support))
    assert (u is None) == spans_oracle(support)
    if u is not None:
        assert any(u) and max(np.asarray(support) @ u) <= 0


def test_step_law_validation():
    with pytest.raises(ConfigError):
        StepLaw(support=np.array([[1, 0], [1, 0]]), probs=np.array([0.5, 0.5]))
    with pytest.raises(ConfigError):
        StepLaw(support=np.array([[1, 0], [0, 1]]), probs=np.array([0.6, 0.6]))
    with pytest.raises(ConfigError):
        StepLaw(support=np.array([[1, 0], [0, 1]]), probs=np.array([1.0, 0.0]))
    # nan passes no comparison, so it is refused for not being finite, by step
    with pytest.raises(ConfigError, match=r"step \[1, 0\] has probability nan"):
        StepLaw(support=np.array([[1, 0], [0, 1]]), probs=np.array([np.nan, 1.0]))
    with pytest.raises(ConfigError, match=r"step \[0, 1\] has probability inf"):
        StepLaw(support=np.array([[1, 0], [0, 1]]), probs=np.array([0.5, np.inf]))


def test_cone_geometry_orthant(quadrant):
    assert cone_geometry(quadrant, np.array([1.0, 1.0])) == (True, 1.0)
    assert cone_geometry(quadrant, np.array([0.0, 3.0])) == (False, 0.0)
    inside, dist = cone_geometry(quadrant, np.array([-1.0, -1.0]))
    assert not inside
    assert dist == pytest.approx(np.sqrt(2.0))


def test_cone_geometry_wedge_boundary_ray():
    wedge = ConeSpec.wedge2d(np.pi / 2.0, 0.0)
    inside, dist = cone_geometry(wedge, np.array([1.0, 0.0]))
    assert not inside
    assert dist == 0.0
    inside, dist = cone_geometry(wedge, np.array([1.0, 1.0]))
    assert inside
    assert dist == pytest.approx(1.0)   # perpendicular drop onto either ray


def test_cone_geometry_halfspace():
    half = ConeSpec.halfspace(np.array([0.0, 2.0]))
    inside, dist = cone_geometry(half, np.array([5.0, 1.0]))
    assert inside
    assert dist == pytest.approx(1.0)


def test_open_cone_one_step_positivity(nn4, quadrant):
    # x + z inside the open cone implies strictly positive boundary distance
    rng = np.random.default_rng(0)
    for _ in range(200):
        x = rng.integers(1, 10, size=2)
        z = nn4.support[rng.integers(0, 4)]
        inside, dist = cone_geometry(quadrant, (x + z).astype(float))
        if inside:
            assert dist > 0.0


def test_acute_condition_orthant(nn4, quadrant):
    h = np.array([0.5493061443, 0.5493061443])
    ok, worst = check_acute_cone_condition(quadrant, h)
    assert ok
    assert worst == pytest.approx(np.pi / 4.0, abs=1e-12)


def test_acute_condition_halfplane_fails():
    wedge = ConeSpec.wedge2d(np.pi, 0.0)
    ok, worst = check_acute_cone_condition(wedge, np.array([0.0, 1.0]))
    assert not ok
    assert worst == pytest.approx(np.pi / 2.0)


def test_acute_condition_negative_component(quadrant):
    ok, worst = check_acute_cone_condition(quadrant, np.array([1.0, -0.1]))
    assert not ok
    assert worst > np.pi / 2.0


def test_acute_condition_positive_h_always_ok():
    rng = np.random.default_rng(3)
    for d in (2, 3, 4):
        cone = ConeSpec.orthant(d)
        for _ in range(20):
            h = rng.uniform(0.05, 2.0, size=d)
            ok, worst = check_acute_cone_condition(cone, h)
            assert ok
            assert worst < np.pi / 2.0


def test_acute_condition_halfspace_reports_not_raises():
    half = ConeSpec.halfspace(np.array([1.0, 0.0]))
    ok, worst = check_acute_cone_condition(half, np.array([1.0, 0.0]))
    assert not ok
    assert worst == pytest.approx(np.pi / 2.0)


def test_cone_contains_vectorized(quadrant):
    pts = np.array([[1, 1], [0, 1], [2, -1], [3, 4]])
    assert cone_contains(quadrant, pts).tolist() == [True, False, False, True]


def test_wedge_validation():
    with pytest.raises(ConfigError):
        ConeSpec.wedge2d(0.0)
    with pytest.raises(ConfigError):
        ConeSpec.wedge2d(2.0 * np.pi)
    with pytest.raises(ConfigError):
        ConeSpec.halfspace(np.zeros(2))
    for build, named in ((lambda: ConeSpec.wedge2d(np.nan), "beta = nan"),
                         (lambda: ConeSpec.wedge2d(1.0, np.nan), "theta0 = nan"),
                         (lambda: ConeSpec.wedge2d(1.0, -np.inf), "theta0 = -inf"),
                         (lambda: ConeSpec.halfspace([np.nan, 1.0]), "got [nan, 1.0]"),
                         (lambda: ConeSpec.halfspace([1.0, np.inf]), "got [1.0, inf]")):
        with pytest.raises(ConfigError, match=re.escape(named)):
            build()
    with pytest.raises(ConfigError):
        ConeSpec.orthant(1)
