"""Quasistationary distribution of the killed walk on a truncated window.

The killed transition kernel P restricted to the window is substochastic; its
left Perron vector, normalized to a probability, is the window QSD and its
Perron root approximates the survival rate c from below (monotonically in the
window size, by domain monotonicity).

The solve uses the paper's exponential tilt: P~(x, y) = P(x, y) e^(h.(y-x)) / c
is the killed kernel of the driftless tilted law, nearly symmetric where P is
badly non-normal, and nu P~ = (lambda / c) nu gives mu(y) ~ e^(-h.y) nu(y).
No other eigenvalue exceeds the Perron root in modulus, so the root is the
eigenvalue of largest real part, on bipartite kernels too.  A thick-restart
Arnoldi iteration (Stewart's Krylov-Schur restart, SIAM J. Matrix Anal. Appl.
2001) finds it matrix-free from ``KilledKernel.forward`` of the tilted law:
``BASIS`` Krylov vectors of box size, restarted on the ``KEEP`` Ritz vectors
of largest real part.  Its Ritz vector x is accurate in norm, not cell by
cell, so a second run on the similar map v -> forward(v x) / x, started from
ones, refines nu / x, whose cells are all near 1.  Inner products go through
``einsum``, which numpy runs without BLAS: a threaded BLAS call can stall a
process for most of a second, and its sums depend on the thread count.

Steps never leave a coset of the group they generate, so the window splits
into closed lattice classes, one per coset it meets.  Each class gets its own
pair of runs, started from its indicator, so the other classes stay exactly 0;
the QSD is the Perron vector of the class with the largest root.  Cells that
no step from its support reaches are zeroed, since nu(y) = (nu P~)(y) c / lambda
is 0 there, and ``POLISH`` damped steps (mu + mu P / lambda) / 2 shrink every
other mode of the roundoff left.  The Collatz-Wielandt bracket, min and max of
(mu P)(y) / mu(y) over mu's support, then holds the class's root whatever mu
is; the QSD is converged when its relative width is at most ``QSD_TOL``, so a
defective root reads unconverged however small the Arnoldi residual.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _lattice
from ._lattice import KilledKernel, budget_window, make_grid
from .errors import ConfigError
from .model import lattice_classes

QSD_TOL = 1e-10
BASIS = 20                 # Krylov vectors of an Arnoldi run
KEEP = 6                   # Ritz vectors kept over a restart
SCALE_TOL = 1e-10          # relative Ritz residual that ends the first run
RITZ_TOL = 1e-15           # and the second
MAX_STEPS = 4000           # kernel steps a run may take
POLISH = 3                 # damped steps (mu + mu P / lambda) / 2 on the chosen class


@dataclass
class QsdResult:
    L: float
    lambda_: float           # Perron root of the truncated kernel, in (0, 1)
    mu: np.ndarray           # probability over the window states (grid order)
    residual: float          # TV distance between mu evolved-and-renormalized and mu
    iterations: int          # kernel steps: every Arnoldi run's, then the polish
    bracket: tuple           # Collatz-Wielandt bounds (low, high) on the chosen class's root
    grid: object = None
    converged: bool = True
    warnings: list = field(default_factory=list)


def truncated_kernel(law, cone, L):
    """Substochastic kernel P(x -> y) on the cone points with max|x| <= L, as
    compressed sparse rows (``_lattice.Csr``).

    Rows sum to at most 1; the missing mass is the one-step kill probability
    (cone exit or window truncation).  The window must fit
    ``_lattice.budget_window`` at 8 (``BASIS`` + 24 + 2 |support|) bytes a box
    cell: the Arnoldi basis, the runs' box arrays, the grid's coordinates and these
    rows (tracemalloc: 37-49 floats a cell on d = 2 windows of nn4 and diagonal
    steps, 45-50 on the octant, 63 with 12 steps).
    """
    pad = int(np.max(np.abs(law.support)))
    if L < 4 * pad:
        raise ConfigError("window must be at least four step lengths wide")
    fits = budget_window(cone, pad, 8 * (BASIS + 24 + 2 * len(law.probs)))
    if L > fits:
        raise ConfigError(f"QSD window L = {L} is past L = {fits}, the largest the "
                          f"{_lattice.MAX_BYTES / 2**30:g} GiB budget holds")
    grid = make_grid(cone, L, law)
    kernel = KilledKernel(grid, law).matrix()
    return kernel, grid


def _norm(v):
    return np.sqrt(np.einsum("i,i->", v, v))


def _arnoldi(step, start, tol):
    """(theta, x, steps): the eigenvalue of largest real part of the linear map
    ``step`` on the Krylov space of ``start``, its Ritz vector and the steps taken.

    Each new vector is orthogonalized against the basis by classical Gram-Schmidt,
    repeated once when a pass cancels most of it (DGKS); when the repeat cancels
    most of what is left too, the vector lies in the basis, whose span is then
    invariant and whose Ritz pairs are exact (a class smaller than ``BASIS`` ends
    so).  Else a full basis restarts on an orthonormal basis of the ``KEEP`` Ritz
    vectors of largest real part, one more to keep a complex pair whole, and the
    run ends when theta's Ritz residual is below ``tol`` of theta, or after
    ``MAX_STEPS`` steps.
    """
    V = np.zeros((BASIS + 1, start.size))
    H = np.zeros((BASIS + 1, BASIS))
    V[0] = start / _norm(start)
    kept = steps = 0
    while True:
        j, invariant = kept, False
        while j < BASIS and steps < MAX_STEPS and not invariant:
            w = step(V[j])
            steps += 1
            size = _norm(w)
            for _ in range(2):
                h = np.einsum("ij,j->i", V[:j + 1], w)
                w -= np.einsum("i,ij->j", h, V[:j + 1])
                H[:j + 1, j] += h
                beta = _norm(w)
                if beta > size / np.sqrt(2.0):
                    break
                size = beta
            else:
                invariant = True
            j += 1
            if not invariant:
                H[j, j - 1] = beta
                V[j] = w / beta
        theta, Y = np.linalg.eig(H[:j, :j])
        order = np.argsort(-theta.real, kind="stable")
        y = Y[:, order[0]]
        if invariant or steps >= MAX_STEPS or abs(H[j, :j] @ y) <= tol * abs(theta[order[0]]):
            return float(theta[order[0]].real), np.einsum("i,ij->j", y.real, V[:j]), steps
        chosen = list(order[:KEEP])
        if theta[chosen[-1]].imag != 0 and np.conj(theta[chosen[-1]]) not in theta[chosen]:
            chosen.append(order[KEEP])
        columns = [part for i in chosen if theta[i].imag >= 0
                   for part in ((Y[:, i].real,) if theta[i].imag == 0
                                else (Y[:, i].real, Y[:, i].imag))]
        Q = np.linalg.qr(np.column_stack(columns))[0]
        kept = Q.shape[1]
        V[:kept] = np.einsum("ik,ij->kj", Q, V[:BASIS])
        V[kept] = V[BASIS]
        spike = H[BASIS] @ Q
        H[:kept, :kept] = Q.T @ H[:BASIS] @ Q
        H[kept, :kept] = spike
        H[kept + 1:] = 0.0
        H[:, kept:] = 0.0


def _class_perron(kernel, cells):
    """(steps, nu): the left Perron vector of the kernel's forward step on the class
    of flat box indices ``cells``, on the window states and zero off the class.

    The first Arnoldi run, from the class's indicator, gives x; the second runs on
    the similar map v -> forward(v x) / x from the same start, so its Ritz residual
    bounds the error of nu / x, every cell of which is near 1.
    """
    shape = kernel.grid.shape
    start = np.zeros(kernel.grid.mask.size)
    start[cells] = 1.0

    def forward(v):
        return kernel.forward(v.reshape(shape)).ravel()

    _, x, first = _arnoldi(forward, start, SCALE_TOL)
    scale = np.abs(x, out=x)
    scale[scale == 0.0] = 1.0
    _, w, second = _arnoldi(lambda v: forward(v * scale) / scale, start, RITZ_TOL)
    nu = (w * scale)[kernel.states]
    return first + second, nu * np.sign(nu.sum())


def qsd_power_iteration(kernel, grid, cramer, L):
    """Left Perron pair of ``kernel``, solved on its tilted counterpart.

    Each lattice class is solved from its indicator by ``_class_perron``, so reruns
    give the same bytes.  The class whose one-step mass lambda under ``kernel`` is
    largest is kept; roundoff of either sign is clipped to 0, and lambda, the
    Collatz-Wielandt bracket and the residual are measured on the final mu with
    ``kernel`` itself.
    """
    tilted = KilledKernel(grid, cramer.tilted)
    pts = grid.points()
    labels, index = lattice_classes(cramer.tilted.support, pts)
    n_classes = int(labels.max()) + 1
    hy = pts @ cramer.h
    weight = np.exp(hy.min() - hy)
    steps, best = 0, None
    for k in range(n_classes):
        used, nu = _class_perron(tilted, tilted.states[labels == k])
        steps += used
        mu = np.clip(nu * weight, 0.0, None)
        mu /= mu.sum()
        root = kernel.rmatvec(mu).sum()
        if best is None or root > best[0]:
            best = root, mu
    mu = best[1]
    on = mu > 0.0
    while True:     # nu(y) = (nu P)(y) / lambda: a cell no step of the support reaches has none
        fed = on & (kernel.rmatvec(on.astype(float)) > 0.0)
        if np.array_equal(fed, on):
            break
        on = fed
    mu = np.where(on, mu, 0.0) / mu[on].sum()
    for _ in range(POLISH):
        evolved = kernel.rmatvec(mu)
        mu = 0.5 * (mu + evolved / evolved.sum())
    steps += POLISH
    evolved = kernel.rmatvec(mu)
    lam = float(evolved.sum())
    residual = float(0.5 * np.abs(evolved / lam - mu).sum())
    on = mu > 0.0
    ratios = evolved[on] / mu[on]
    low, high = float(ratios.min()), float(ratios.max())
    width = (high - low) / lam
    warnings = [] if n_classes == 1 else [
        f"the steps generate a sublattice of index {index}: the window holds "
        f"{n_classes} lattice classes; the QSD is the Perron vector of the one with "
        f"the largest root, which contains {pts[np.argmax(mu)].tolist()}"]
    converged = width <= QSD_TOL
    if not converged:
        warnings.append(f"the QSD did not converge: after {steps} kernel steps (Arnoldi runs "
                        f"and polish) its Collatz-Wielandt bracket [{low:.12g}, {high:.12g}] "
                        f"has relative width {width:.2e}, above QSD_TOL = {QSD_TOL:g}")
    return QsdResult(L=float(L), lambda_=lam, mu=mu, residual=residual, iterations=steps,
                     bracket=(low, high), grid=grid, converged=converged, warnings=warnings)


def qsd_for_model(law, cramer, cone, L):
    kernel, grid = truncated_kernel(law, cone, L)
    return qsd_power_iteration(kernel, grid, cramer, L)


def tv_distance_tables(table_a, grid_a, table_b, grid_b):
    """Total-variation distance between two measures given on possibly
    different windows; points absent from a window carry zero mass."""
    lo = np.minimum(grid_a.lo, grid_b.lo)
    shape = tuple(np.maximum(grid_a.lo + grid_a.shape, grid_b.lo + grid_b.shape) - lo)
    diff = grid_a.place(table_a, lo, shape) - grid_b.place(table_b, lo, shape)
    return float(0.5 * np.abs(diff).sum())
