"""Whitening of the tilted walk and the image cone's homogeneity degree.

M maps the tilted step to unit covariance.  The canonical choice is the
symmetric inverse square root; an explicit 2D rotation-and-scale variant is
kept as a second mode so both can be cross-checked.  The image cone M K is
the only description of the harmonic function u downstream, and its degree
p is read off it: pi over the opening of a wedge image (arccos(-alpha) for
the quadrant).  A non-diagonal M on an orthant in d >= 3 has no closed-form
image; both are then None and the pipeline fits p from the driftless scan.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericsError
from .model import ConeSpec

SYM_TOL = 1e-12


@dataclass
class WhiteningData:
    cov: np.ndarray          # second-moment matrix of the tilted step
    M: np.ndarray            # whitening matrix, M cov M^T = I
    alpha: float             # normalized cross-correlation (2D; None otherwise)
    cone_image: ConeSpec     # image cone M K (None: no closed form)
    p: float                 # homogeneity degree of the image cone (None: fit)


def tilted_covariance(tilted):
    """Second-moment matrix of a driftless law; positive definite by non-collinearity."""
    drift = tilted.mean()
    if np.linalg.norm(drift) > 1e-10:
        raise ConfigError(f"law has drift {drift}, expected driftless input")
    cov = (tilted.support * tilted.probs[:, None]).T @ tilted.support
    if np.linalg.eigvalsh(cov)[0] <= 0.0:
        raise NumericsError("covariance is not positive definite (collinear support)")
    return cov


def whitening_matrix(cov, mode="general"):
    """Whitening matrix for a positive-definite covariance.

    ``general`` returns the symmetric inverse square root (unique,
    deterministic); ``example2d`` returns the explicit 2D matrix built from a
    rotation angle phi in (-pi/4, pi/4) with sin(2 phi) = alpha, which reduces
    to plain rescaling when the components are uncorrelated.
    """
    cov = np.asarray(cov, dtype=float)
    if np.max(np.abs(cov - cov.T)) > SYM_TOL:
        raise ConfigError("covariance must be symmetric")
    if np.linalg.eigvalsh(cov)[0] <= 0.0:
        raise ConfigError("covariance must be positive definite")
    if mode == "general":
        if cov.shape == (2, 2):
            return _inv_sqrt_2x2(cov)
        lam, U = np.linalg.eigh(cov)
        return (U / np.sqrt(lam)) @ U.T
    if mode == "example2d":
        if cov.shape != (2, 2):
            raise ConfigError("example2d mode requires a 2x2 covariance")
        c1, c2 = cov[0, 0], cov[1, 1]
        alpha = cov[0, 1] / np.sqrt(c1 * c2)
        phi = 0.5 * np.arcsin(alpha)
        cphi, sphi = np.cos(phi), np.sin(phi)
        scale = 1.0 / np.sqrt(1.0 - alpha ** 2)
        return scale * np.array(
            [[cphi / np.sqrt(c1), -sphi / np.sqrt(c2)],
             [-sphi / np.sqrt(c1), cphi / np.sqrt(c2)]]
        )
    raise ConfigError(f"unknown whitening mode {mode!r}")


def _inv_sqrt_2x2(cov):
    # closed form: inv sqrt = [[c+delta, -b], [-b, a+delta]] / (delta * s)
    # with delta = sqrt(det) and s = sqrt(a + c + 2 delta)
    a, b, c = cov[0, 0], cov[0, 1], cov[1, 1]
    delta = np.sqrt(a * c - b * b)
    s = np.sqrt(a + c + 2.0 * delta)
    return np.array([[c + delta, -b], [-b, a + delta]]) / (delta * s)


def correlation_alpha(cov):
    """Normalized cross term of a 2x2 covariance, in (-1, 1)."""
    return float(cov[0, 1] / np.sqrt(cov[0, 0] * cov[1, 1]))


def image_degree(image):
    """Degree p of the positive harmonic function of an image cone."""
    if image.kind == "orthant":
        return float(image.dim)
    if image.kind == "wedge2d":
        return float(np.pi / image.beta)
    return 1.0


def cone_image_and_p(cone, M):
    """Image cone under M and its homogeneity degree p, or (None, None).

    2D cones map their two extreme rays through M to a wedge.  Orthants with
    diagonal M keep their shape, and halfspaces map to halfspaces.  A
    non-diagonal M on an orthant in d >= 3 has no closed-form image.
    """
    M = np.asarray(M, dtype=float)
    diagonal = np.max(np.abs(M - np.diag(np.diag(M)))) < 1e-12
    if cone.kind == "halfspace":
        image = ConeSpec.halfspace(np.linalg.solve(M.T, cone.normal))
    elif cone.kind == "orthant" and diagonal:
        image = ConeSpec.orthant(cone.dim)
    elif cone.dim == 2:
        if cone.kind == "orthant":
            theta0, beta = 0.0, np.pi / 2.0
        else:
            theta0, beta = cone.theta0, cone.beta
        u1 = np.array([np.cos(theta0), np.sin(theta0)])
        u2 = np.array([np.cos(theta0 + beta), np.sin(theta0 + beta)])
        v1, v2 = M @ u1, M @ u2
        phi1 = np.arctan2(v1[1], v1[0])
        phi2 = np.arctan2(v2[1], v2[0])
        if np.linalg.det(M) > 0:
            opening = np.mod(phi2 - phi1, 2.0 * np.pi)
            start = phi1
        else:
            opening = np.mod(phi1 - phi2, 2.0 * np.pi)
            start = phi2
        if opening >= np.pi - 1e-12:
            raise NumericsError(
                "image wedge opens to pi or more; homogeneity degree below 1 "
                "is outside the supported regime"
            )
        image = ConeSpec.wedge2d(beta=float(opening), theta0=float(start))
    else:
        return None, None
    return image, image_degree(image)


def whiten_model(cramer, cone):
    """Assemble covariance, the symmetric whitening matrix, image cone and degree p."""
    cov = tilted_covariance(cramer.tilted)
    M = whitening_matrix(cov)
    alpha = correlation_alpha(cov) if cov.shape == (2, 2) else None
    cone_image, p = cone_image_and_p(cone, M)
    return WhiteningData(cov=cov, M=M, alpha=alpha, cone_image=cone_image, p=p)
