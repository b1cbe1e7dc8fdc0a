"""Quasistationary distribution of the killed walk on a truncated window.

The killed transition kernel P restricted to the window is substochastic; its
left Perron vector, normalized to a probability, is the window QSD and its
Perron root approximates the survival rate c from below (monotonically in the
window size, by domain monotonicity).

The solve uses the paper's exponential tilt: P~(x, y) = P(x, y) e^(h.(y-x)) / c
is the killed kernel of the driftless tilted law, nearly symmetric where P is
badly non-normal, and nu P~ = (lambda / c) nu gives mu(y) ~ e^(-h.y) nu(y).
No other eigenvalue exceeds the Perron root in modulus, so the root is the one
nearest 1, and inverse iteration with I - P~^T (shift 1) finds it, on
bipartite kernels too.  The window states, numbered in C order, fall into
slabs of consecutive axis-0 layers as thick as the longest axis-0 step, so
I - P~^T is block tridiagonal over the slabs and block Thomas elimination
factors it directly, with one dense inverse per slab and numpy alone.

Steps never leave a coset of the group they generate, so the window splits
into closed lattice classes, one per coset it meets.  The iteration normalizes
each class on its own, and the QSD is the Perron vector of the class with the
largest root, with no mass anywhere else.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _lattice
from ._lattice import KilledKernel, make_grid
from .errors import ConfigError
from .model import lattice_classes

QSD_TOL = 1e-10
MAX_SOLVES = 1000
SETTLED = 1e-13            # per-class iterates are probabilities: roundoff sits far below


@dataclass
class QsdResult:
    L: float
    lambda_: float           # Perron root of the truncated kernel, in (0, 1)
    mu: np.ndarray           # probability over the window states (grid order)
    residual: float          # TV distance between mu evolved-and-renormalized and mu
    iterations: int          # shift-invert solves
    grid: object = None
    converged: bool = True
    warnings: list = field(default_factory=list)


def truncated_kernel(law, cone, L):
    """Substochastic kernel P(x -> y) on the cone points with max|x| <= L, as
    compressed sparse rows (``_lattice.Csr``).

    Rows sum to at most 1; the missing mass is the one-step kill probability
    (cone exit or window truncation).
    """
    if L < 4 * int(np.max(np.abs(law.support))):
        raise ConfigError("window must be at least four step lengths wide")
    grid = make_grid(cone, L, law)
    kernel = KilledKernel(grid, law).matrix()
    return kernel, grid


def _slab_solver(tilted, slab):
    """Solver of (I - P~^T) x = y, P~ = ``tilted``, by block Thomas elimination.

    ``slab`` numbers the states' slabs, nondecreasing; a step couples a slab to
    itself and its neighbours only.  For each slab the factorization keeps the
    inverse G_b of its Schur complement and, as index lists, the entries of P~
    that enter it from the slab before (``down``) and after (``up``):
    forward, w_b = G_b (y_b + down_b w_{b-1}); backward,
    x_b = w_b + G_b up_b x_{b+1}.
    """
    n = tilted.shape[0]
    bounds = np.concatenate(([0], np.flatnonzero(np.diff(slab)) + 1, [n])).tolist()
    rows, cols, vals = tilted.rows(), tilted.indices, tilted.data
    spans = list(zip(bounds[:-1], bounds[1:]))
    down = [None] * len(spans)
    up = [None] * len(spans)
    inverses = []
    for b, (lo, hi) in enumerate(spans):
        m = hi - lo
        own = slice(tilted.indptr[lo], tilted.indptr[hi])
        r, c, v = rows[own] - lo, cols[own], vals[own]
        inner = (c >= lo) & (c < hi)
        schur = np.eye(m)
        schur[c[inner] - lo, r[inner]] -= v[inner]
        before, after = c < lo, c >= hi
        if b + 1 < len(spans):
            down[b + 1] = (r[after], c[after] - hi, v[after])
        if b:
            plo = spans[b - 1][0]
            up[b - 1] = (r[before], c[before] - plo, v[before])
            # S_b = D_b - A[b, b-1] G_{b-1} A[b-1, b]: both couplings are -P~^T
            # blocks, so each pair of entries adds one product w G_{b-1} w'
            src, dst, w = down[b]
            usrc, udst, uw = up[b - 1]
            pairs = np.outer(w, uw) * inverses[-1][np.ix_(src, udst)]
            schur -= np.bincount((dst[:, None] * m + usrc).ravel(), weights=pairs.ravel(),
                                 minlength=m * m).reshape(m, m)
        inverses.append(np.linalg.inv(schur))

    def solve(y):
        x = np.empty(n)
        prev = None
        for (lo, hi), G, coupling in zip(spans, inverses, down):
            t = y[lo:hi]
            if coupling is not None:
                src, dst, w = coupling
                t = t + np.bincount(dst, weights=w * prev[src], minlength=hi - lo)
            prev = x[lo:hi] = G @ t
        for b in range(len(spans) - 2, -1, -1):
            (lo, hi), (nlo, nhi) = spans[b], spans[b + 1]
            src, dst, w = up[b]
            x[lo:hi] += inverses[b] @ np.bincount(dst, weights=w * x[nlo:nhi][src],
                                                  minlength=hi - lo)
        return x

    return solve


def qsd_power_iteration(kernel, grid, cramer, L):
    """Left Perron pair of ``kernel``, solved on its tilted counterpart.

    Inverse iteration from a fixed start runs until the iterate, normalized on
    each lattice class, stops changing, so reruns give the same bytes.  The
    class whose one-step mass lambda under ``kernel`` is largest is kept;
    roundoff of either sign is clipped to 0, and lambda and the residual are
    measured on the final mu with ``kernel`` itself.
    """
    tilted = cramer.tilted
    pts = grid.points()
    reach = max(1, int(np.max(np.abs(tilted.support[:, 0]))))
    slab = (pts[:, 0] - grid.lo[0]) // reach
    need = 8 * int(np.sum(np.bincount(slab).astype(np.int64) ** 2))
    if need > _lattice.MAX_BYTES:   # d = 3 slab inverses grow as L^5: 0.14 GB at L = 28
        raise ConfigError(f"the QSD window L = {L} needs {need / 2**30:.1f} GiB of slab "
                          f"inverses, above {_lattice.MAX_BYTES / 2**30:g} GiB; use a smaller "
                          "qsd_window")
    solve = _slab_solver(KilledKernel(grid, tilted).matrix(), slab)
    labels, index = lattice_classes(tilted.support, pts)
    n_classes = int(labels.max()) + 1

    def per_class(v):
        return v / np.bincount(labels, weights=v, minlength=n_classes)[labels]

    vec = per_class(np.ones(len(pts)))
    change = np.inf
    for solves in range(1, MAX_SOLVES + 1):
        new = per_class(solve(vec))
        step = float(np.abs(new - vec).max())
        vec = new
        if step == 0.0 or SETTLED > step >= change:    # fixed, or at its roundoff floor
            break
        change = step
    hy = pts @ cramer.h
    mu = per_class(vec * np.exp(hy.min() - hy))
    roots = np.bincount(labels, weights=kernel.rmatvec(mu), minlength=n_classes)
    mu = np.clip(np.where(labels == np.argmax(roots), mu, 0.0), 0.0, None)
    mu /= mu.sum()
    evolved = kernel.rmatvec(mu)
    lam = float(evolved.sum())
    residual = float(0.5 * np.abs(evolved / lam - mu).sum())
    warnings = [] if n_classes == 1 else [
        f"the steps generate a sublattice of index {index}: the window holds "
        f"{n_classes} lattice classes; the QSD is the Perron vector of the one with "
        f"the largest root, which contains {pts[np.argmax(mu)].tolist()}"]
    converged = residual < QSD_TOL
    if not converged:
        warnings.append(f"the QSD did not converge: after {solves} shift-invert solves "
                        f"its residual {residual:.2e} is not below QSD_TOL = {QSD_TOL:g}")
    return QsdResult(L=float(L), lambda_=lam, mu=mu, residual=residual,
                     iterations=solves, grid=grid, converged=converged, warnings=warnings)


def qsd_for_model(law, cramer, cone, L):
    kernel, grid = truncated_kernel(law, cone, L)
    return qsd_power_iteration(kernel, grid, cramer, L)


def mu_as_table(result):
    """QSD as a box array on the result's grid."""
    table = np.zeros(result.grid.shape)
    table[result.grid.mask] = result.mu
    return table


def tv_distance_tables(table_a, grid_a, table_b, grid_b):
    """Total-variation distance between two measures given on possibly
    different windows; points absent from a window carry zero mass."""
    lo = np.minimum(grid_a.lo, grid_b.lo)
    shape = tuple(np.maximum(grid_a.lo + grid_a.shape, grid_b.lo + grid_b.shape) - lo)
    diff = grid_a.place(table_a, lo, shape) - grid_b.place(table_b, lo, shape)
    return float(0.5 * np.abs(diff).sum())
