"""Step laws, cones, the walk's lattice structure, and executable checks of the
model's standing assumptions."""

from dataclasses import dataclass
from itertools import combinations
from math import gcd, prod

import numpy as np

from .errors import ConfigError

ANGLE_TOL = 1e-9          # strictness margin for the acute-angle cone check
PROB_SUM_TOL = 1e-12


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
        bad = np.flatnonzero(~(np.isfinite(probs) & (probs > 0.0)))
        if bad.size:
            raise ConfigError(f"step {support[bad[0]].tolist()} has probability "
                              f"{float(probs[bad[0]])}: probabilities must be finite and "
                              "strictly positive")
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
            if not (0.0 < self.beta < 2.0 * np.pi and np.isfinite(self.theta0)):
                raise ConfigError("wedge opening must lie in (0, 2*pi) and its rotation be "
                                  f"finite, got beta = {self.beta}, theta0 = {self.theta0}")
        elif self.kind == "halfspace":
            a = np.asarray(self.normal, dtype=float)
            if a.ndim != 1 or a.shape[0] != self.dim or np.allclose(a, 0.0) or \
                    not np.all(np.isfinite(a)):
                raise ConfigError("halfspace needs a finite nonzero normal of matching "
                                  f"dimension, got {a.tolist()}")
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
    sublattice_index: int      # [Z^d : G], G the group the steps generate
    period: int                # the walk's period; 1 when aperiodic


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
    """Validate a (law, cone) pair and report drift and lattice structure.

    Rejects collinear supports (the walk would live on a hyperplane) and zero
    drift (outside this package's regime).
    """
    if law.dim != cone.dim:
        raise ConfigError(f"law dimension {law.dim} != cone dimension {cone.dim}")
    index, period = lattice_structure(law)
    drift = law.mean()
    if np.linalg.norm(drift) <= 1e-14:
        raise ConfigError("zero drift: law is outside the nonzero-drift regime")
    return ModelReport(drift=drift, sublattice_index=index, period=period)


def lattice_structure(law):
    """``(sublattice_index, period)`` of the walk, in exact integer arithmetic.

    The steps generate a group G with index [Z^d : G], the gcd of the d x d
    minors of the support matrix (its d-th determinantal divisor).  The
    differences z - z0 generate D, and G / D is cyclic, generated by z0:
    after n steps the walk sits in x0 + n z0 + D, so the period is
    [G : D] = [Z^d : D] / [Z^d : G].  D of lower rank means the support
    lies on an affine hyperplane, which is rejected.
    """
    index = _lattice_index(law.support.tolist(), law.dim)
    diff_index = _lattice_index((law.support[1:] - law.support[0]).tolist(), law.dim)
    if diff_index == 0:
        raise ConfigError(
            "non-collinearity assumption violated: support lies on a hyperplane"
        )
    return index, diff_index // index


def _lattice_index(rows, d):
    """[Z^d : lattice generated by the integer rows], or 0 if they do not span."""
    basis = _lattice_basis(rows, d)
    return 0 if basis is None else prod(b[i] for i, b in enumerate(basis))


def _lattice_basis(rows, d):
    """Triangular basis of the lattice the integer rows generate, or None if they
    do not span: row i is zero before column i and has a positive pivot there.

    Euclid's algorithm down each column (unimodular row operations, which
    keep the gcd of the d x d minors) leaves one pivot per column; the pivots
    are the diagonal of the Hermite normal form, and their product is the index.
    """
    rows = [list(r) for r in rows]
    basis = []
    for col in range(d):
        live = [r for r in rows if r[col]]
        while len(live) > 1:
            pivot = min(live, key=lambda r: abs(r[col]))
            for r in live:
                if r is not pivot:
                    q = r[col] // pivot[col]
                    r[:] = [a - q * b for a, b in zip(r, pivot)]
            live = [r for r in live if r[col]]
        if not live:
            return None
        basis.append([a if live[0][col] > 0 else -a for a in live[0]])
        rows = [r for r in rows if r is not live[0]]
    return basis


def lattice_classes(support, points):
    """Label each integer point by its coset of the group the steps generate.

    Steps never leave a coset, so the cosets are the closed lattice classes of
    any killed walk.  Reducing a point by the triangular basis column by column
    leaves the canonical residue r with 0 <= r_i < pivot_i, computed in exact
    integer arithmetic; labels number the residues present 0, 1, ... in sorted order.
    Returns ``(labels, index)`` with ``index`` the number of cosets in Z^d.
    """
    basis = np.array(_lattice_basis(np.asarray(support).tolist(), points.shape[1]),
                     dtype=np.int64)
    residue = np.array(points, dtype=np.int64)
    code = np.zeros(len(residue), dtype=np.int64)
    for i, b in enumerate(basis):
        residue -= (residue[:, i] // b[i])[:, None] * b
        code = code * b[i] + residue[:, i]
    return np.unique(code, return_inverse=True)[1], int(np.prod(np.diag(basis)))


def span_obstruction(law):
    """A nonzero integer u with u . z <= 0 for every step z, or None.

    None means the steps positively span R^d, which is when R(h) = E e^(h.X)
    has a minimizer.  If they span R^d but not positively, their cone has a
    facet through d - 1 independent steps whose outward normal is such a u;
    if they span less, some d - 1 vectors among the steps and the unit
    vectors have a normal orthogonal to every step.  So the cofactor normals
    of all d - 1 such vectors are the only candidates, and every test is done
    in exact integer arithmetic.
    """
    d = law.dim
    support = law.support.tolist()
    pool = support + np.eye(d, dtype=int).tolist()
    for rows in combinations(pool, d - 1):
        u = [(-1) ** j * _det([r[:j] + r[j + 1:] for r in rows]) for j in range(d)]
        dots = [sum(a * b for a, b in zip(u, z)) for z in support]
        if any(u) and (max(dots) <= 0 or min(dots) >= 0):
            sign = (1 if max(dots) <= 0 else -1) * gcd(*u)
            return [a // sign for a in u]
    return None


def _det(rows):
    """Determinant of a square integer matrix by cofactor expansion along row 0."""
    if not rows:
        return 1
    return sum((-1) ** j * a * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, a in enumerate(rows[0]) if a)


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
