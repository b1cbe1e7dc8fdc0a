"""Moment generating function, tilt point, and the driftless tilted law.

The tilt point is the nonzero minimizer h of R(h) = E[exp(h . X)]; the tilted
law reweights each step by exp(h . z) / R(h) and has zero drift.  R(h) < 1 is
the geometric survival rate of the killed walk.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericsError
from .model import StepLaw, span_obstruction

GRAD_TOL = 1e-12
MAX_ITER = 200
ARMIJO_C = 1e-4
ROUNDOFF = 4.0 * np.finfo(float).eps   # relative slack of the Armijo test on R


@dataclass
class CramerData:
    h: np.ndarray            # tilt point, nonzero minimizer of R
    c: float                 # R(h) in (0, 1)
    tilted: StepLaw          # law of the tilted (driftless) step
    grad_residual: float     # |grad R(h)| at the solution
    newton_residuals: list = None   # gradient norms along accepted iterates


def log_mgf(law, h):
    """R(h), its gradient and Hessian for a finite-support law.

    R(h) = sum_z p_z e^(h.z); finite support makes R entire, so every h is
    admissible.
    """
    h = np.asarray(h, dtype=float)
    if h.shape != (law.dim,):
        raise ConfigError("h has wrong dimension")
    w = law.probs * np.exp(law.support @ h)
    R = float(w.sum())
    grad = w @ law.support
    hess = (law.support * w[:, None]).T @ law.support
    return R, grad, hess


def solve_cramer_point(law):
    """Newton iteration with backtracking for the minimizer of R.

    Strict convexity (guaranteed by a non-collinear support) gives a unique
    minimizer when the steps positively span R^d; otherwise R has none and
    the law is rejected.  A solution at the origin means zero drift and is
    rejected too.  The Armijo test allows for the roundoff in R, which near
    the minimum exceeds the decrease it tests for.
    """
    u = span_obstruction(law)
    if u is not None:
        raise ConfigError(
            f"steps do not positively span R^{law.dim}: every step z has u.z <= 0 "
            f"for u = {u}, so R(h) = E exp(h.X) has no minimizer (no Cramér point)")
    h = np.zeros(law.dim)
    R, grad, hess = log_mgf(law, h)
    residuals = [float(np.linalg.norm(grad))]
    for _ in range(MAX_ITER):
        if residuals[-1] <= GRAD_TOL:
            break
        step = np.linalg.solve(hess, grad)
        t = 1.0
        # Armijo backtracking on R along the Newton direction
        slope = grad @ step
        while True:
            h_new = h - t * step
            R_new, grad_new, hess_new = log_mgf(law, h_new)
            if R_new <= R - ARMIJO_C * t * slope + ROUNDOFF * R or t < 1e-14:
                break
            t *= 0.5
        h, R, grad, hess = h_new, R_new, grad_new, hess_new
        residuals.append(float(np.linalg.norm(grad)))
    else:
        raise NumericsError("tilt-point Newton iteration did not converge")
    if np.linalg.norm(h) <= 1e-9:
        raise ConfigError("tilt point at the origin: zero drift, outside scope")
    if R >= 1.0:
        raise NumericsError(f"survival rate c = {R!r} >= 1: inconsistent solution")
    tilted = tilt_law(law, h, R)
    drift = law.mean()
    if drift @ h >= 0.0:
        raise NumericsError("drift does not oppose the tilt direction")
    return CramerData(h=h, c=R, tilted=tilted, grad_residual=residuals[-1],
                      newton_residuals=residuals)


def tilt_law(law, h, c):
    """Exponentially tilted law with weights e^(h.z)/c, renormalized exactly.

    ``c`` must match R(h); the output probabilities are divided by their
    computed sum so they total 1 to machine precision.
    """
    h = np.asarray(h, dtype=float)
    R, _, _ = log_mgf(law, h)
    if abs(R - c) > 1e-10 * max(1.0, abs(c)):
        raise ConfigError(f"c = {c!r} inconsistent with R(h) = {R!r}")
    w = law.probs * np.exp(law.support @ h)
    return StepLaw(support=law.support.copy(), probs=w / w.sum())
