"""Quasistationary distribution of the killed walk on a truncated window.

The killed transition kernel restricted to the window is substochastic; its
left Perron vector, normalized to a probability, is the window QSD and its
Perron root approximates the survival rate c from below (monotonically in the
window size, by domain monotonicity).
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.csgraph import connected_components

from ._lattice import KilledKernel, make_grid
from .errors import ConfigError

QSD_TOL = 1e-10
QSD_MAX_ITER = 100_000


@dataclass
class QsdResult:
    L: float
    lambda_: float           # Perron root of the truncated kernel, in (0, 1)
    mu: np.ndarray           # probability over the window states (grid order)
    residual: float          # TV distance between mu evolved-and-renormalized and mu
    iterations: int
    grid: object = None
    converged: bool = True
    warnings: list = field(default_factory=list)


def truncated_kernel(law, cone, L):
    """Substochastic kernel P(x -> y) on the cone points with max|x| <= L.

    Rows sum to at most 1; the missing mass is the one-step kill probability
    (cone exit or window truncation).
    """
    if L < 4 * int(np.max(np.abs(law.support))):
        raise ConfigError("window must be at least four step lengths wide")
    grid = make_grid(cone, L)
    kernel = KilledKernel(grid, law).matrix()
    return kernel, grid


def qsd_power_iteration(kernel, tol=QSD_TOL, max_iter=QSD_MAX_ITER, grid=None, L=None):
    """Left power iteration for the Perron pair of a substochastic kernel.

    The update averages the current iterate with its one-step evolution
    before renormalizing.  Plain one-step iteration two-cycles on bipartite
    kernels (nearest-neighbour walks are bipartite: walks of fixed length
    alternate between the two parity classes), while the averaged update
    converges to the same Perron vector for every kernel; the eigenvalue is
    read off as the one-step mass of the converged vector.
    """
    n = kernel.shape[0]
    warnings = []
    n_comp, _ = connected_components(kernel, directed=True, connection="strong")
    if n_comp != 1:
        warnings.append(
            f"kernel has {n_comp} strongly connected components; the Perron "
            "vector may depend on the start"
        )
    kernel_T = kernel.T.tocsr()
    nu = np.full(n, 1.0 / n)
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        step = kernel_T @ nu
        mixed = nu + step
        mixed /= mixed.sum()
        change = 0.5 * np.abs(mixed - nu).sum()
        nu = mixed
        if change < tol:
            converged = True
            break
    evolved = kernel_T @ nu
    lam = float(evolved.sum())
    residual = float(0.5 * np.abs(evolved / lam - nu).sum())
    return QsdResult(
        L=float(L) if L is not None else float("nan"),
        lambda_=lam, mu=nu, residual=residual, iterations=iterations,
        grid=grid, converged=converged, warnings=warnings,
    )


def qsd_for_model(law, cone, L, tol=QSD_TOL, max_iter=QSD_MAX_ITER):
    kernel, grid = truncated_kernel(law, cone, L)
    return qsd_power_iteration(kernel, tol=tol, max_iter=max_iter, grid=grid, L=L)


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
