"""Continuous and discrete harmonic functions of the killed walk.

The continuous function u solves the Dirichlet problem on the whitened image
cone, homogeneous of degree p, and is read off the image cone itself: the
product of the coordinates on an orthant, r^p sin(p theta) on a wedge.  Its
discrete counterpart V satisfies the one-step mean-value equation of the
killed driftless walk; V' is the same object for the reversed walk.
Drift-adjusted versions U(x) = e^(h.x) V(Mx) and U'(y) = e^(-h.y) V'(My)
and the normalizer kappa feed every limit check downstream, always through
scale-free ratios.  The one certificate, ``convergence_residual``, is the
mean-value defect of V and V'; c-harmonicity of U and the one-step relation
of U' are those equations in tilted coordinates.  The pipeline grows the
window through ``_lattice.grow_window``, as the DP does, until a
closed-form bound on the mass of U' beyond it, which assumes that the
growth constant C of V' on the window holds there too, passes, or until no
window within the memory budget ``_lattice.MAX_BYTES`` would.

V is the unique solution of the killed-kernel fixed-point equation on a
truncated window with u as far-field data on the one-step exterior ring.
The window size L is a whitened radius: the window is the max-norm box
|y|_inf <= L / |M|_inf every stage builds, the largest inside |M y|_inf <= L.
The truncated kernel has spectral radius below one, so I - T is invertible; it is
solved by BiCGSTAB, matrix-free through the kernel's step and started from u itself,
so no sparse matrix is assembled, scipy is never imported and no sum goes through
BLAS (see ``_lattice.dot``).  When u is itself discretely harmonic (the four-step
reference walk on the quadrant), the start already meets the stopping rule and V is
u on the window bit for bit.  V' starts from V instead when V is the closer start,
as it is for a tilted law that is its own reversal up to rounding.
"""

from dataclasses import dataclass

import numpy as np

from . import _lattice
from ._lattice import KilledKernel, WindowGrid, budget_window, make_grid
from .errors import ConfigError, NumericsError, WindowTooSmallError
from .model import check_acute_cone_condition
from .whiten import image_degree

TAIL_FRACTION = 1e-8     # certified tail of the normalizer sum, relative
SOLVE_TOL = 1e-14        # Krylov stop: |b - A v| <= SOLVE_TOL |b|
SOLVE_MAX_ITER = 2000    # BiCGSTAB iterations per table before giving up
OUTSIDE_TOL = 1e-9       # relative slack before u calls a point outside its cone
ZERO_CHECK = 1e-10       # solved values this far below the largest get the exact-zero pass


def u_eval(image, x):
    """Evaluate u at a single point of the closed image cone."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return float(u_eval_many(image, x[None, :])[0])


def u_eval_many(image, pts):
    """Vectorized u over an (N, d) array; raises on points outside the closed cone."""
    pts = np.asarray(pts, dtype=float)
    if image.kind == "orthant":
        if np.any(pts < -OUTSIDE_TOL * (1.0 + np.abs(pts))):
            raise ConfigError("point outside the closed orthant")
        return np.prod(np.maximum(pts, 0.0), axis=1)
    if image.kind != "wedge2d":
        raise ConfigError(f"u is tabulated on orthant and wedge images, not {image.kind}")
    p, opening = image_degree(image), image.beta
    r = np.hypot(pts[:, 0], pts[:, 1])
    rel = np.mod(np.arctan2(pts[:, 1], pts[:, 0]) - image.theta0, 2.0 * np.pi)
    rel = np.where(rel > np.pi + opening / 2.0, rel - 2.0 * np.pi, rel)
    if np.any((rel < -OUTSIDE_TOL) | (rel > opening + OUTSIDE_TOL)):
        raise ConfigError("point outside the closed wedge")
    rel = np.clip(rel, 0.0, opening)
    out = r ** p * np.sin(p * rel)
    return np.where(r == 0.0, 0.0, np.maximum(out, 0.0))


@dataclass
class HarmonicTables:
    """Window tables for V, V', U, U' and the normalizer kappa."""

    grid: WindowGrid
    L: float
    cone: object
    M: np.ndarray
    cone_image: object
    V: np.ndarray
    Vprime: np.ndarray
    convergence_residual: float
    h: np.ndarray = None
    U: np.ndarray = None
    Uprime: np.ndarray = None
    kappa: float = None
    tail_bound: float = None
    growth_constant: float = None

    def value(self, table, x):
        return self.grid.value_at(table, np.asarray(x, dtype=int))

    def U_at(self, x):
        return self.value(self.U, x)


def build_V_tables(tilted, cone, cone_image, M, L):
    """Discrete harmonic functions V (tilted walk) and V' (reversed walk).

    The window is ``make_grid``'s box |y|_inf <= L / |M|_inf, inside
    |M y|_inf <= L; its one-step ring carries the far-field data u(M y).
    Each table solves V = T V + b, T the killed kernel on the window and b
    the ring data it reaches in one step, by one Krylov solve
    (``_solve_killed_harmonic``).  V starts from u(M y), V' from whichever of
    u(M y) and V has the smaller residual under the reversed kernel: a tilted
    law that is its own reversal, up to rounding, leaves V at or next to the
    reversed solution.
    ``convergence_residual`` is the larger relative defect of the two
    mean-value equations at points whose neighbours stay in the window.
    """
    drift = tilted.mean()
    if np.linalg.norm(drift) > 1e-10:
        raise ConfigError("V construction needs the driftless tilted law")
    M = np.asarray(M, dtype=float)
    row_norm = np.linalg.norm(M, np.inf)
    fits = _budget_radius(cone, int(np.max(np.abs(tilted.support))))
    if np.floor(L / row_norm) > fits:
        raise ConfigError(f"pipeline.harmonic_window = {L:g} is past {fits * row_norm:g}, the "
                          f"largest the {_lattice.MAX_BYTES / 2**30:g} GiB budget holds")
    grid = make_grid(cone, L / row_norm, tilted)
    if grid.n_states == 0:
        raise ConfigError(f"pipeline.harmonic_window = {L:g} holds no cone points; "
                          "increase it")
    u = np.zeros(grid.shape)    # u(M y) on the cone: the start on the window, data off it
    u[grid.in_cone] = u_eval_many(cone_image, grid.coords[grid.in_cone] @ M.T)
    u0, ring_u = u[grid.mask], np.where(grid.mask, 0.0, u)
    V, res_v = _solve_killed_harmonic(KilledKernel(grid, tilted), ring_u, [u0])
    Vp, res_vp = _solve_killed_harmonic(KilledKernel(grid, tilted.reversed()), ring_u,
                                        [u0, V[grid.mask]])
    return HarmonicTables(
        grid=grid, L=float(L), cone=cone, M=M, cone_image=cone_image,
        V=V, Vprime=Vp, convergence_residual=float(max(res_v, res_vp)),
    )


def _solve_killed_harmonic(kernel, ring_u, starts):
    """BiCGSTAB on v - T v = b, matrix-free through ``kernel.backward``, started at
    whichever of ``starts`` has the smallest true residual (the first on a tie).

    b(x) = sum_z p_z u(M(x+z)) over ring neighbours.  The iteration stops once
    the recurrence residual is within SOLVE_TOL of |b| and a recomputed true
    residual agrees; otherwise, and on a breakdown, it restarts from the true
    residual.  The solution is 0 exactly at the states from which no path
    reaches b > 0 (``_reaching``); when a solved value is near 0 those states
    are set to 0 and left out of the residual, and every other value must be
    positive.
    """
    grid = kernel.grid
    mask = grid.mask
    box = np.zeros(grid.shape)
    stepped = np.empty(grid.shape)

    def apply(v):                      # v - T v on the window states
        box[mask] = v
        return v - kernel.backward(box, out=stepped)[mask]

    b = kernel.backward(ring_u, out=stepped)[mask]
    tol = SOLVE_TOL * float(_lattice.norm(b))
    v, r = min(((np.array(v0, dtype=float), b - apply(v0)) for v0 in starts),
               key=lambda pair: float(_lattice.norm(pair[1])))
    iterations = 0
    while _lattice.norm(r) > tol:        # restart from the true residual until it holds
        r_hat, rho, alpha, omega = r.copy(), 1.0, 1.0, 1.0
        p = q = np.zeros_like(r)
        while _lattice.norm(r) > tol:
            iterations += 1
            if iterations > SOLVE_MAX_ITER:
                raise NumericsError(
                    f"harmonic solve not converged in {SOLVE_MAX_ITER} iterations")
            rho_new = float(_lattice.dot(r_hat, r))
            if rho_new == 0.0 or omega == 0.0:
                break                    # breakdown: restart from the true residual
            p = r + (rho_new / rho) * (alpha / omega) * (p - omega * q)
            q = apply(p)
            rq = float(_lattice.dot(r_hat, q))
            if rq == 0.0:
                break
            alpha = rho_new / rq
            s = r - alpha * q
            t = apply(s)
            tt = float(_lattice.dot(t, t))
            omega = float(_lattice.dot(t, s)) / tt if tt > 0.0 else 0.0
            v += alpha * p + omega * s
            r = s - omega * t
            rho = rho_new
        r = b - apply(v)
    live = np.ones(v.shape, dtype=bool)
    if v.min() <= ZERO_CHECK * v.max():
        live = _reaching(kernel, b)
        v[~live] = 0.0
    if np.any(v[live] <= 0.0):
        raise NumericsError("killed harmonic solve produced nonpositive values")
    V = np.zeros(grid.shape)
    V[mask] = v
    # residual of the mean-value equation at points whose neighbours stay inside
    rel = np.zeros(grid.shape)
    rel[mask] = (np.abs(kernel.backward(V, out=stepped)[mask] + b - v)
                 / np.maximum(v, 1e-300))
    interior = kernel.interior & (V > 0.0)
    residual = float(rel[interior].max()) if interior.any() else float(rel[mask].max())
    return V, residual


def _reaching(kernel, b):
    """Whether each window state reaches a state with b > 0 by a path of the
    kernel's walk inside the window: where v = sum_k T^k b is positive."""
    mask = kernel.grid.mask
    live = np.zeros(kernel.grid.shape, dtype=bool)
    live[mask] = b > 0.0
    while True:
        grown = live | (kernel.backward(live.astype(float)) > 0.0)
        if np.array_equal(grown, live):
            return live[mask]
        live = grown


def build_U_tables(tables, h):
    """Attach U, U', kappa and certify the truncated normalizer tail.

    kappa is 1 over the window sum of U'.  The bound of ``_tail_certificate``
    on the mass beyond the window must stay below a 1e-8 fraction of that sum;
    else WindowTooSmallError names the smallest passing window within ``MAX_BYTES``, or None.
    """
    h = np.asarray(h, dtype=float)
    grid = tables.grid
    pts = grid.coords.reshape(-1, grid.dim)
    dots = (pts @ h).reshape(grid.shape)
    U = np.zeros(grid.shape)
    Up = np.zeros(grid.shape)
    U[grid.mask] = np.exp(dots[grid.mask]) * tables.V[grid.mask]
    Up[grid.mask] = np.exp(-dots[grid.mask]) * tables.Vprime[grid.mask]
    total = float(Up[grid.mask].sum())
    if not np.isfinite(total) or total <= 0.0:
        raise NumericsError("normalizer sum is not finite and positive")
    growth_C, tail, suggested = _tail_certificate(tables, h, total)
    if not tail < TAIL_FRACTION * total:      # a nan bound fails too
        where = (f"it passes at L = {suggested}" if suggested else
                 f"no window within the {_lattice.MAX_BYTES / 2**30:g} GiB budget passes "
                 f"at h = {np.round(h, 6).tolist()}")
        raise WindowTooSmallError(
            f"normalizer tail bound {tail:.3e} exceeds {TAIL_FRACTION:.0e} of the "
            f"window sum {total:.6e}; {where}", suggested_L=suggested)
    tables.h = h
    tables.U = U
    tables.Uprime = Up
    tables.kappa = 1.0 / total
    tables.tail_bound = float(tail)
    tables.growth_constant = float(growth_C)
    return tables


def _budget_radius(cone, pad):
    """The largest window radius ``_lattice.budget_window`` holds at 8 (24 + d) bytes a
    box cell: d integer coordinates and 24 float arrays of box or state size at the
    peak of the V' solve (tracemalloc: 141-183 bytes a cell in d = 2, 161 in d = 3)."""
    return budget_window(cone, pad, 8 * (24 + cone.dim))


def _tail_certificate(tables, h, total):
    """(C, bound on the tail beyond the window, smallest passing window or None).

    C, the largest V'(y) / (1 + |M y|^p) on the window, is assumed to hold
    beyond it: an assumption, not a proof.  Shell r_in = floor(L / |M|_inf)
    is the window's own edge.  For r from r_in to the last radius the budget holds,
    the sum of C e^(-h.y) (1 + |M y|^p) over shells k > r is at most t(r + 1)
    / (1 - q), t(k) a shell bound and q >= t(k + 1) / t(k).  Orthant shell k
    lies on the faces y_i = k, where |M y| <= m_i k + sum_{j != i} m_j y_j
    (m_j = |M e_j|), and 1 + t <= e^t makes each face sum geometric.  A wedge
    shell has at most 2d (3k)^(d-1) points, each with h.y >= |h| cos(worst) k.

    ``_budget_radius`` gives that radius.  Rebuilt at L = ceil(r |M|_inf), the radius
    is below r + 1 / |M|_inf, so it fits too.
    """
    grid, M, cone, p = tables.grid, tables.M, tables.cone, image_degree(tables.cone_image)
    _, worst = check_acute_cone_condition(cone, h)   # not acute: no radius passes
    growth_C = float(np.max(tables.Vprime[grid.mask] /
                            (1.0 + np.linalg.norm(grid.points() @ M.T, axis=1) ** p)))
    row_norm = float(np.linalg.norm(M, np.inf))
    r_in, d = int(np.floor(tables.L / row_norm)), grid.dim
    r_max = _budget_radius(cone, grid.pad)
    r = np.arange(r_in, max(r_in, r_max + 1 - np.ceil(1 / row_norm)) + 1)
    k = r + 1.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if cone.kind == "orthant":
            def g(b):                  # sum of e^(-b y) over y >= 1; inf unless b > 0
                return 1.0 / np.expm1(np.maximum(b, 0.0))
            m = np.linalg.norm(M, axis=0)
            first = 0.0
            for i in range(d):
                hj, mj = np.delete(h, i)[:, None], np.delete(m, i)[:, None]
                poly = (m[i] * k) ** p * np.prod(g(hj - p * mj / (m[i] * k)), axis=0)
                first = first + np.exp(-h[i] * k) * (np.prod(g(hj)) + poly)
            decay, order = np.exp(-np.min(h)), p
        else:
            beta = np.linalg.norm(h) * np.cos(worst)
            first = 2 * d * (3.0 * k) ** (d - 1) * np.exp(-beta * k) * (
                1.0 + (np.linalg.norm(M, 2) * np.sqrt(d) * k) ** p)
            decay, order = np.exp(-beta), d - 1 + p
        q = decay * ((k + 1.0) / k) ** order
        tail = growth_C * np.where(q < 1.0, first / (1.0 - q), np.inf)
    passing = np.flatnonzero(tail < TAIL_FRACTION * total)
    suggested = int(np.ceil(r[passing[0]] * row_norm)) if passing.size else None
    return growth_C, float(tail[0]), suggested

