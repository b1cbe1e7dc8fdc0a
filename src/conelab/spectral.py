"""Quasistationary distribution of the killed walk on a truncated window.

The killed transition kernel P restricted to the window is substochastic; its
left Perron vector, normalized to a probability, is the window QSD and its
Perron root approximates the survival rate c from below (monotonically in the
window size, by domain monotonicity).

The solve uses the paper's exponential tilt: P~(x, y) = P(x, y) e^(h.(y-x)) / c
is the killed kernel of the driftless tilted law, nearly symmetric where P is
badly non-normal, and nu P~ = (lambda / c) nu gives mu(y) ~ e^(-h.y) nu(y).
No other eigenvalue exceeds the Perron root in modulus, so the root is the
eigenvalue of largest real part.  A thick-restart Arnoldi iteration (Stewart's
Krylov-Schur restart, SIAM J. Matrix Anal. Appl. 2001) finds it matrix-free
from ``KilledKernel.forward`` of the tilted law: ``BASIS`` Krylov vectors,
restarted on the ``KEEP`` Ritz vectors of largest real part.  Its Ritz vector
x is accurate in norm, not cell by cell, so a second run on the similar map
v -> A(v x) / x, started from ones, refines nu / x, whose cells are all near
1.  Inner products go through ``_lattice.dot``, off BLAS.

Steps never leave a coset of the group G they generate, so the window splits
into closed lattice classes, one per coset it meets.  Each class gets its own
pair of runs, so the other classes stay exactly 0; the QSD is the Perron
vector of the class whose Arnoldi root is largest.  A class splits further
into p cyclic subclasses C0, ..., C(p-1), the cosets in it of the group D that
the step differences generate (p = [G : D] is the walk's period): a step moves
mass from each to the next, C(p-1) to C0.  So P~^p is block diagonal over them
(Varga, Matrix Iterative Analysis, 2nd ed., sec. 4.2), and on C0 its root
lambda^p stands alone in modulus where P~ has p roots lambda e^(2 pi i k / p).
Both runs take A = P~^p on C0: their vectors hold C0's cells only, p times
fewer than the class's, and each Arnoldi step is p forward steps of the box.
With lambda = theta^(1/p), nu on each further subclass is nu on the one
before it stepped forward once, over lambda.  Only the chosen class's nu is
mapped to mu; cells that no step from its support reaches are zeroed, since
nu(y) = (nu P~)(y) c / lambda is 0 there.  The compressed rows of P are read
for that and for the certificate only: the Collatz-Wielandt bracket, min and
max of (mu P)(y) / mu(y) over mu's support, holds the class's root whatever mu
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
MAX_STEPS = 4000           # Arnoldi steps a run may take, p kernel steps each


@dataclass
class QsdResult:
    L: float
    lambda_: float           # Perron root of the truncated kernel, in (0, 1)
    mu: np.ndarray           # probability over the window states (grid order)
    residual: float          # TV distance between mu evolved-and-renormalized and mu
    iterations: int          # kernel steps: p an Arnoldi step (MAX_STEPS caps Arnoldi
                             # steps a run) and p - 1 to rebuild, summed over the classes
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
    cell: the Arnoldi basis on a whole class, as an aperiodic walk's is, the runs'
    box arrays, the grid's coordinates and these rows.  A warm solve's tracemalloc
    peak reads 28-34 floats a cell on d = 2 windows (L = 60 and 120) of the nn4,
    diagonal and period-3 steps and 31-33 on the octant (L = 20 and 28), whose
    bases hold one cyclic subclass; 50 for an aperiodic lazy nn4, 55-58 with 12
    steps.
    """
    pad = int(np.max(np.abs(law.support)))
    if L < 4 * pad:
        raise ConfigError(f"QSD window L = {L} is below L = {4 * pad}, four step lengths "
                          "of the walk")
    fits = budget_window(cone, pad, 8 * (BASIS + 24 + 2 * len(law.probs)))
    if L > fits:
        raise ConfigError(f"QSD window L = {L} is past L = {fits}, the largest the "
                          f"{_lattice.MAX_BYTES / 2**30:g} GiB budget holds")
    grid = make_grid(cone, L, law)
    kernel = KilledKernel(grid, law).matrix()
    return kernel, grid


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
    V[0] = start / _lattice.norm(start)
    kept = steps = 0
    while True:
        j, invariant = kept, False
        while j < BASIS and steps < MAX_STEPS and not invariant:
            w = step(V[j])
            steps += 1
            size = _lattice.norm(w)
            for _ in range(2):
                h = _lattice.dot(V[:j + 1], w)
                w -= np.einsum("i,ij->j", h, V[:j + 1])
                H[:j + 1, j] += h
                beta = _lattice.norm(w)
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


def _class_perron(kernel, cells, period):
    """(steps, nu, root): the left Perron vector of the kernel's forward step on the
    class whose cyclic subclass C0 is the flat box indices ``cells``, on the window
    states and zero off the class, and its root theta^(1/p), theta clipped at 0.

    Both Arnoldi runs map v on C0 through p = ``period`` forward steps, written back
    and forth between two box buffers.  The first, from C0's indicator, gives x; the
    second runs on the similar map v -> forward^p(v x) / x from the same start, so its
    Ritz residual bounds the error of nu / x, every cell of which is near 1.
    """
    shape = kernel.grid.shape
    boxes = [np.zeros(shape), np.empty(shape)]

    def power(v):
        # boxes[0] is 0 off C0: it starts so, and p steps from C0 land on C0 only
        boxes[0].reshape(-1)[cells] = v
        for _ in range(period):
            kernel.forward(boxes[0], out=boxes[1])
            boxes.reverse()
        return boxes[0].reshape(-1)[cells]

    start = np.ones(len(cells))
    _, x, first = _arnoldi(power, start, SCALE_TOL)
    scale = np.abs(x, out=x)
    scale[scale == 0.0] = 1.0
    theta, w, second = _arnoldi(lambda v: power(v * scale) / scale, start, RITZ_TOL)
    root = max(theta, 0.0) ** (1.0 / period)
    lam = root or 1.0                                   # a nilpotent class rebuilds unscaled
    nu = np.zeros(shape)
    nu.reshape(-1)[cells] = w * scale
    part = nu
    for _ in range(period - 1):
        part = kernel.forward(part) / lam
        nu += part
    nu = nu.reshape(-1)[kernel.states]
    return period * (first + second) + period - 1, nu * np.sign(nu.sum()), root


def qsd_power_iteration(kernel, grid, cramer, L):
    """Left Perron pair of ``kernel``, solved on its tilted counterpart.

    Each lattice class is solved by ``_class_perron`` on the cyclic subclass of its
    first cell, from that subclass's indicator, so reruns give the same bytes.
    ``iterations`` counts kernel steps: p for each Arnoldi step (``MAX_STEPS`` caps
    Arnoldi steps a run) and p - 1 for the rebuild.  The class with the largest
    Arnoldi root is kept, the first on a tie; its nu is tilted back to mu, roundoff
    of either sign is clipped to 0, and lambda, the Collatz-Wielandt bracket and the
    residual are measured on mu with one product of ``kernel`` itself.
    """
    tilted = KilledKernel(grid, cramer.tilted)
    pts = grid.points()
    support = cramer.tilted.support
    labels, index = lattice_classes(support, pts)
    phases, cosets = lattice_classes(support[1:] - support[0], pts)
    n_classes = int(labels.max()) + 1
    hy = pts @ cramer.h
    weight = np.exp(hy.min() - hy)
    steps, best = 0, None
    for k in range(n_classes):
        first = np.argmax(labels == k)
        used, nu, root = _class_perron(tilted, tilted.states[phases == phases[first]],
                                       cosets // index)
        steps += used
        if best is None or root > best[0]:
            best = root, nu
    mu = np.clip(best[1] * weight, 0.0, None)
    on = mu > 0.0
    while True:     # nu(y) = (nu P)(y) / lambda: a cell no step of the support reaches has none
        fed = on & (kernel.rmatvec(on.astype(float)) > 0.0)
        if np.array_equal(fed, on):
            break
        on = fed
    mu = np.where(on, mu, 0.0) / mu[on].sum()
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
        warnings.append(f"the QSD did not converge: after {steps} kernel steps of Arnoldi "
                        f"runs its Collatz-Wielandt bracket [{low:.12g}, {high:.12g}] "
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
