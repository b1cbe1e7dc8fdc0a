"""Step laws, cones, and executable checks of the model's standing assumptions."""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

ANGLE_TOL = 1e-9          # strictness margin for the acute-angle cone check
PROB_SUM_TOL = 1e-12
APERIODICITY_RADIUS = 8   # half-width of the box the aperiodicity scan explores


@dataclass(frozen=True)
class StepLaw:
    """Finite lattice step distribution: integer support vectors and probabilities."""

    support: np.ndarray   # (m, d) int
    probs: np.ndarray     # (m,) float

    def __post_init__(self):
        support = np.asarray(self.support, dtype=int)
        probs = np.asarray(self.probs, dtype=float)
        if support.ndim != 2 or support.shape[0] == 0 or support.shape[1] < 1:
            raise ConfigError("support must be a nonempty (m, d) array with d >= 1")
        if probs.shape != (support.shape[0],):
            raise ConfigError("probs must align with support")
        if np.any(probs <= 0):
            raise ConfigError("probabilities must be strictly positive")
        if abs(probs.sum() - 1.0) > PROB_SUM_TOL:
            raise ConfigError(f"probabilities sum to {probs.sum()!r}, not 1")
        if len({tuple(z) for z in support}) != support.shape[0]:
            raise ConfigError("support vectors must be pairwise distinct")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)

    @property
    def dim(self):
        return self.support.shape[1]

    def mean(self):
        return self.probs @ self.support

    def reversed(self):
        """Law of the negated step."""
        return StepLaw(support=-self.support, probs=self.probs.copy())


@dataclass(frozen=True)
class ConeSpec:
    """Open cone: orthant(d), 2D wedge (opening beta, rotated by theta0), or halfspace."""

    kind: str
    dim: int
    beta: float = 0.0
    theta0: float = 0.0
    normal: np.ndarray = None

    def __post_init__(self):
        if self.kind == "orthant":
            if self.dim < 2:
                raise ConfigError("orthant cone requires d >= 2")
        elif self.kind == "wedge2d":
            if self.dim != 2:
                raise ConfigError("wedge cone is two-dimensional")
            if not (0.0 < self.beta < 2.0 * np.pi):
                raise ConfigError("wedge opening must lie in (0, 2*pi)")
        elif self.kind == "halfspace":
            a = np.asarray(self.normal, dtype=float)
            if a.ndim != 1 or a.shape[0] != self.dim or np.allclose(a, 0.0):
                raise ConfigError("halfspace needs a nonzero normal of matching dimension")
            object.__setattr__(self, "normal", a)
        else:
            raise ConfigError(f"unknown cone kind {self.kind!r}")

    @staticmethod
    def orthant(d):
        return ConeSpec(kind="orthant", dim=d)

    @staticmethod
    def wedge2d(beta, theta0=0.0):
        return ConeSpec(kind="wedge2d", dim=2, beta=float(beta), theta0=float(theta0))

    @staticmethod
    def halfspace(normal):
        a = np.asarray(normal, dtype=float)
        return ConeSpec(kind="halfspace", dim=a.shape[0], normal=a)


@dataclass
class ModelReport:
    drift: np.ndarray
    noncollinear: bool
    aperiodicity: str          # "verified" or "inconclusive"
    notes: list = field(default_factory=list)


def cone_contains(cone, pts):
    """Vectorized open-cone membership for an (N, d) array of points."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if cone.kind == "orthant":
        return np.all(pts > 0.0, axis=1)
    if cone.kind == "halfspace":
        return pts @ cone.normal > 0.0
    # wedge: relative angle strictly inside (0, beta); lattice boundary rays land
    # exactly on 0 or beta for axis-aligned theta0, so a small tolerance decides ties
    r = np.hypot(pts[:, 0], pts[:, 1])
    rel = np.mod(np.arctan2(pts[:, 1], pts[:, 0]) - cone.theta0, 2.0 * np.pi)
    tol = 1e-12
    return (r > 0.0) & (rel > tol) & (rel < cone.beta - tol)


def cone_geometry(cone, x):
    """Membership and Euclidean distance to the cone boundary.

    Returns ``(inside, boundary_distance)``; the distance is to the boundary
    for outside points as well, with ``inside`` False there and on the
    boundary itself (the cone is open).
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (cone.dim,):
        raise ConfigError(f"point has dimension {x.shape}, cone expects ({cone.dim},)")
    inside = bool(cone_contains(cone, x[None, :])[0])
    if cone.kind == "orthant":
        if np.all(x > 0.0):
            dist = float(np.min(x))
        else:
            dist = float(np.linalg.norm(np.minimum(x, 0.0)))
        return inside, dist
    if cone.kind == "halfspace":
        dist = float(abs(x @ cone.normal) / np.linalg.norm(cone.normal))
        return inside, dist
    d0 = _ray_distance(x, cone.theta0)
    d1 = _ray_distance(x, cone.theta0 + cone.beta)
    return inside, float(min(d0, d1))


def _ray_distance(x, phi):
    u = np.array([np.cos(phi), np.sin(phi)])
    t = x @ u
    if t <= 0.0:
        return np.linalg.norm(x)
    return np.linalg.norm(x - t * u)


def build_model(law, cone):
    """Validate a (law, cone) pair and report drift, collinearity, aperiodicity.

    Rejects collinear supports (the walk would live on a hyperplane) and zero
    drift (outside this package's regime).
    """
    if law.dim != cone.dim:
        raise ConfigError(f"law dimension {law.dim} != cone dimension {cone.dim}")
    drift = law.mean()
    centered = law.support - law.support[0]
    noncollinear = np.linalg.matrix_rank(centered) == law.dim
    if not noncollinear:
        raise ConfigError(
            "non-collinearity assumption violated: support lies on a hyperplane"
        )
    if np.linalg.norm(drift) <= 1e-14:
        raise ConfigError("zero drift: law is outside the nonzero-drift regime")
    notes = []
    aperiodicity = _aperiodicity_scan(law)
    if aperiodicity == "inconclusive":
        notes.append(
            "aperiodicity scan inconclusive within the bounded box; "
            "exit-time asymptotics are unaffected"
        )
    if cone.kind == "halfspace":
        notes.append(
            "halfspace cone: acute-angle condition cannot hold; "
            "use the one-dimensional projection path"
        )
    notes.append(
        "boundary regularity of the cone cross-section is asserted for the "
        "supported cone variants, not tested"
    )
    return ModelReport(drift=drift, noncollinear=True, aperiodicity=aperiodicity, notes=notes)


def _aperiodicity_scan(law):
    """Bounded BFS over the subgroup generated by the support.

    Verified when every residue in the box [-r, r]^d, r = APERIODICITY_RADIUS,
    is reached by integer combinations of steps whose partial sums stay inside
    the box; otherwise inconclusive (never silently refuted).
    """
    d = law.dim
    if (2 * APERIODICITY_RADIUS + 1) ** d > 10 ** 6:
        return "inconclusive"
    steps = [z for z in law.support] + [-z for z in law.support]
    seen = {tuple(np.zeros(d, dtype=int))}
    queue = [np.zeros(d, dtype=int)]
    while queue:
        x = queue.pop()
        for z in steps:
            y = x + z
            if np.max(np.abs(y)) > APERIODICITY_RADIUS:
                continue
            ty = tuple(y)
            if ty not in seen:
                seen.add(ty)
                queue.append(y)
    full = (2 * APERIODICITY_RADIUS + 1) ** d
    return "verified" if len(seen) == full else "inconclusive"


def check_acute_cone_condition(cone, h):
    """Largest angle between the tilt direction and the cone cross-section boundary.

    ``ok`` requires every boundary direction of the cross-section to make an
    angle strictly below pi/2 with h; this is what makes the exponential
    normalizer sum over the cone converge.  Halfspaces always fail and are
    reported rather than raised.
    """
    h = np.asarray(h, dtype=float)
    if np.linalg.norm(h) == 0.0:
        raise ConfigError("tilt vector h must be nonzero")
    if h.shape != (cone.dim,):
        raise ConfigError("dimension mismatch between h and cone")
    hn = h / np.linalg.norm(h)
    if cone.kind == "halfspace":
        return False, np.pi / 2.0
    if cone.kind == "wedge2d":
        worst = 0.0
        for phi in (cone.theta0, cone.theta0 + cone.beta):
            u = np.array([np.cos(phi), np.sin(phi)])
            worst = max(worst, np.arccos(np.clip(u @ hn, -1.0, 1.0)))
        return bool(worst < np.pi / 2.0 - ANGLE_TOL), float(worst)
    # orthant: the cross-section boundary is the union of coordinate faces; the
    # minimum of x . h over each face is attained at a corner when the face
    # components of h are not all negative, else along the negative part of h
    d = cone.dim
    min_dot = np.inf
    for i in range(d):
        rest = np.delete(hn, i)
        corner_min = np.min(rest)
        neg = rest[rest < 0.0]
        face_min = corner_min if neg.size == 0 else min(corner_min, -np.linalg.norm(neg))
        min_dot = min(min_dot, face_min)
    worst = float(np.arccos(np.clip(min_dot, -1.0, 1.0)))
    return bool(worst < np.pi / 2.0 - ANGLE_TOL), worst
