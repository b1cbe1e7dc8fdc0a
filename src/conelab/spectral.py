"""Quasistationary distribution of the killed walk on a truncated window.

The killed transition kernel P restricted to the window is substochastic; its
left Perron vector, normalized to a probability, is the window QSD and its
Perron root approximates the survival rate c from below (monotonically in the
window size, by domain monotonicity).

The solve uses the paper's exponential tilt: P~(x, y) = P(x, y) e^(h.(y-x)) / c
is the killed kernel of the driftless tilted law, nearly symmetric where P is
badly non-normal, and nu P~ = (lambda / c) nu gives mu(y) ~ e^(-h.y) nu(y).
No other eigenvalue exceeds the Perron root in modulus, so the root is the one
nearest 1 and a single shift-invert Arnoldi solve (ARPACK, shift 1) finds it,
on bipartite kernels too.
"""

from dataclasses import dataclass, field

import numpy as np

from ._lattice import KilledKernel, make_grid
from .errors import ConfigError

QSD_TOL = 1e-10


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
    """Substochastic kernel P(x -> y) on the cone points with max|x| <= L.

    Rows sum to at most 1; the missing mass is the one-step kill probability
    (cone exit or window truncation).
    """
    if L < 4 * int(np.max(np.abs(law.support))):
        raise ConfigError("window must be at least four step lengths wide")
    grid = make_grid(cone, L, law)
    kernel = KilledKernel(grid, law).matrix()
    return kernel, grid


def qsd_power_iteration(kernel, grid, cramer, L):
    """Left Perron pair of ``kernel``, solved on its tilted counterpart.

    ARPACK starts from a fixed vector, so reruns give the same bytes.  Its
    roundoff of either sign (about 1e-8 of the other closed class on a
    sublattice-confined law) is clipped to 0; lambda, the one-step mass, and
    the residual are measured on the final mu with ``kernel`` itself.
    """
    from scipy.sparse import identity  # local imports: commands that never solve skip scipy
    from scipy.sparse.csgraph import connected_components
    from scipy.sparse.linalg import LinearOperator, eigs, splu
    n = kernel.shape[0]
    tilted_T = KilledKernel(grid, cramer.tilted).matrix().T
    # minimum degree on the pattern of A + A^T: half the default LU fill here
    lu = splu((tilted_T - identity(n)).tocsc(), permc_spec="MMD_AT_PLUS_A")
    solves = []          # one entry per shift-invert solve
    opinv = LinearOperator((n, n), matvec=lambda b: solves.append(1) or lu.solve(b),
                           dtype=float)
    _, vec = eigs(tilted_T, k=1, sigma=1.0, v0=np.ones(n), OPinv=opinv)
    pts = grid.points()
    hy = pts @ cramer.h
    mu = vec[:, 0].real * np.exp(hy.min() - hy)
    mu = np.clip(mu * np.sign(mu.sum()), 0.0, None)
    mu /= mu.sum()
    evolved = kernel.T @ mu
    lam = float(evolved.sum())
    residual = float(0.5 * np.abs(evolved / lam - mu).sum())
    n_comp, _ = connected_components(kernel, directed=True, connection="strong")
    warnings = [] if n_comp == 1 else [
        f"kernel has {n_comp} strongly connected components; the QSD is the Perron "
        "vector of the one with the largest root, which contains "
        f"{pts[np.argmax(mu)].tolist()}"]
    return QsdResult(L=float(L), lambda_=lam, mu=mu, residual=residual,
                     iterations=len(solves), grid=grid,
                     converged=residual < QSD_TOL, warnings=warnings)


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
