"""Exact dynamic-programming evolution of the killed walk.

Evolves the sub-probability measure q_n(y) = P(x0 + S(n) = y, alive at n) on
a truncated lattice window, rescaling by the survival rate each step so the
series stays O(1) deep into the tail.  This is the floating-point oracle for
every limit law: survival tails, hazard ratios, conditional laws, exit
distributions, and bridges.
"""

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from . import _lattice
from ._lattice import KilledKernel, admit, budget_window, grow_window, make_grid, walk_reach
from .cramer import solve_cramer_point
from .errors import ConfigError, WindowTooSmallError
from .model import ConeSpec, StepLaw

LEAK_TOL = 1e-12


@dataclass
class DpSeries:
    """Killed-walk evolution from one start, rescaled by ``rescale_by`` per step.

    ``survival[n]`` is P(tau > n) / rescale_by^n and ``exit_mass[n]`` is
    P(tau = n) / rescale_by^n, recorded each step (exactly 0 where no path
    exits, and at n = 0); ``tables[n]`` holds the full rescaled measure at the
    retained times; ``L`` is the window it ran on.
    ``leak_max`` is the largest one-step leak: over single steps, the largest
    ratio of the mass a step pushes out of the window to that step's survival.
    It does not bound the mass beyond the window at n, which gathers the leaks
    of every earlier step (on nn4 with n_max = 301: 1.0e-19 against 8.0e-19).
    """

    x0: np.ndarray
    n_max: int
    rescale_by: float
    survival: np.ndarray
    exit_mass: np.ndarray
    grid: object
    law: StepLaw
    L: int
    tables: dict = field(default_factory=dict)
    leak_max: float = 0.0

    def raw_survival_log(self, n):
        """log P(tau > n), reconstructed from the rescaled series, for one time n
        or an array of times."""
        return n * np.log(self.rescale_by) + np.log(self.survival[n])


def dp_evolve(law, cone, x0, n_max, rescale_by=1.0, L=60, retain=()):
    """Evolve the killed measure for ``n_max`` steps from x0, a point of the open cone.

    ``L`` is only a starting size: the first window, max|y| <= L, holds x0 inside it, and
    a start at or past L begins on ``grown(|x0|)``, skipping the window |x0|, from whose
    edge it leaks at step 1 (a start whose edge window would not leak lands on the larger
    window).  When a step's about-to-be-truncated mass (points leaving the window while
    staying in the cone) reaches 1e-12 of the current rescaled survival, ``_evolve`` raises
    WindowTooSmallError and ``grow_window``, the loop the harmonic tail search retries
    through too, restarts the run from x0 on ``grown(L)`` = ceil(1.4 L) + pad.  Each window
    is capped at the sure reach ``walk_reach(x0, n_max, law)`` + 1, beyond which nothing
    leaks, and at ``_lattice.budget_window`` for 8 (7 + d + tables) bytes a box cell: d
    integer coordinates, the measure, its step buffer, the kernel's scratch, leak and exit
    arrays, the grid's masks and one float a retained table (tracemalloc: 67 bytes a cell
    in d = 2, 76 in d = 3, 8 more a table).  A start off the cone, or an L or |x0| past
    that cap, is a ConfigError, a leak at the cap a WindowTooSmallError naming the budget;
    the result equals a fresh run at the final window.
    """
    x0 = admit(cone, x0, "start")
    far = int(np.max(np.abs(x0)))
    retain = set(int(n) for n in retain)
    pad = int(np.max(np.abs(law.support)))
    fits = budget_window(cone, pad, 8 * (7 + cone.dim + len(retain)))
    if max(L, far) > fits:
        raise ConfigError(f"DP window L = {max(L, far)} is past L = {fits}, the largest "
                          f"the {_lattice.MAX_BYTES / 2**30:g} GiB budget holds")
    top = min(walk_reach(x0, n_max, law) + 1, fits)

    def grown(L):
        return min(int(np.ceil(1.4 * L)) + pad, top)

    return grow_window(lambda L: _evolve(
        KilledKernel(make_grid(cone, L, law), law), L, x0, n_max, rescale_by, retain,
        grown(L)), L if far < L else grown(far))


def _evolve(kernel, L, x0, n_max, rescale_by, retain, grown):
    """The DpSeries from x0, a point of the window L; a leak raises WindowTooSmallError
    toward ``grown``, or naming the budget when ``grown`` is no larger."""
    grid = kernel.grid
    q = np.zeros(grid.shape)
    q[tuple(x0 - grid.lo)] = 1.0
    out = np.empty_like(q)
    survival = np.ones(n_max + 1)
    exit_mass = np.zeros(n_max + 1)
    tables = {0: q.copy()} if 0 in retain else {}
    leak_max = 0.0
    cells = np.flatnonzero(kernel.leak + kernel.exit)   # the cells that can leak or exit
    rates = np.stack([kernel.leak.reshape(-1)[cells], kernel.exit.reshape(-1)[cells]])
    for n in range(1, n_max + 1):
        leaked, exit_mass[n] = _lattice.dot(rates, q.reshape(-1)[cells]) / rescale_by
        out = kernel.forward(q, out=out)
        out /= rescale_by
        q, out = out, q
        b_n = float(q.sum())
        survival[n] = b_n
        if b_n > 0.0:
            leak_max = max(leak_max, leaked / b_n)
            if leak_max >= LEAK_TOL:
                capped = "" if grown > L else \
                    f"; no larger window fits the {_lattice.MAX_BYTES / 2**30:g} GiB budget"
                raise WindowTooSmallError(f"DP window L = {L} leaks {leak_max:.2e} of the "
                                          f"survival at step {n}{capped}",
                                          None if capped else grown)
        if n in retain:
            tables[n] = q.copy()
    return DpSeries(
        x0=x0, n_max=n_max, rescale_by=float(rescale_by),
        survival=survival, exit_mass=exit_mass, grid=grid, law=kernel.law, L=L,
        tables=tables, leak_max=float(leak_max),
    )


# ---------------------------------------------------------------------------
# statistics on a finished series

def exit_time_pmf_rescaled(series, n):
    """P(tau = n) / rescale_by^n, for one time n or an array of times."""
    if np.min(n) < 1 or np.max(n) > series.n_max:
        raise ConfigError(f"exit time {n} outside the computed horizon")
    return series.exit_mass[n]


def hazard_ratio(series, n):
    """P(tau = n) / P(tau > n); the rescaling cancels."""
    return exit_time_pmf_rescaled(series, n) / series.survival[n]


def conditional_law(series, n):
    """Normalized law of the surviving walk at time n (needs a retained table)."""
    if n not in series.tables:
        raise ConfigError(f"no table retained at n = {n}")
    q = series.tables[n]
    return q / q.sum()


def exit_profile(grid, law, table, name):
    """Normalized law of the exit position one step on from ``table``, and the mask.

    One more step is applied to ``table`` and the mass landing outside the
    open cone is collected, per landing point; ``name`` names the table.
    """
    outside = ~grid.in_cone
    exit_mass = np.where(outside, KilledKernel(grid, law).push(table), 0.0)
    total = exit_mass.sum()
    if total <= 0.0:
        raise ConfigError(f"no exit mass from {name}")
    return exit_mass / total, outside


def exit_position_law(series, n):
    """Normalized law of the exit position at tau = n (needs the table at n - 1)."""
    if n - 1 not in series.tables:
        raise ConfigError(f"exit law at {n} needs the table retained at {n - 1}")
    return exit_profile(series.grid, series.law, series.tables[n - 1], f"q_{n - 1}")


def bridge_value(series, n, t, z):
    """Conditioned bridge mass P(walk at x0 at time [t n] | alive at n, endpoint z).

    Uses the Markov factorization through the retained tables: the walk from
    x0 back at x0 after [t n] steps, then on to z in the remaining n - [t n].
    """
    m = int(np.floor(t * n))
    z = np.asarray(z, dtype=int)
    grid = series.grid
    q_m, q_rest, q_n = (series.tables.get(k) for k in (m, n - m, n))
    if q_m is None or q_rest is None or q_n is None:
        raise ConfigError(f"bridge needs tables at {m}, {n - m} and {n}")
    denom = grid.value_at(q_n, z)
    if denom <= 0.0:
        raise ConfigError(f"endpoint {z.tolist()} has no mass at n = {n}")
    return grid.value_at(q_m, series.x0) * grid.value_at(q_rest, z) / denom


def check_tilt_identity(law, cramer, cone, x0, n_max=20):
    """Max relative defect of q_n(x0, y) = c^n e^(h.(x0-y)) d_n(x0, y), n <= n_max.

    The drifted walk evolved under the original law and the driftless walk
    evolved under the tilted law are compared cell by cell; the identity is
    algebraic, so the defect, each n's largest cell defect over its largest
    |q_n| (0 for an all-zero table), is floating-point noise on every law.
    The window holds every reachable point, so nothing is truncated, and the
    DP leak monitor checks exactly that.
    """
    if n_max > 40:
        raise ConfigError("identity check is meant for short horizons (n_max <= 40)")
    L = walk_reach(x0, n_max, law) + 1
    steps = range(1, n_max + 1)
    drifted = dp_evolve(law, cone, x0, n_max, rescale_by=cramer.c, L=L, retain=steps)
    driftless = dp_evolve(cramer.tilted, cone, x0, n_max, L=L, retain=steps)
    grid = drifted.grid
    weight = np.exp((drifted.x0 @ cramer.h) - grid.coords.reshape(-1, grid.dim) @ cramer.h) \
        .reshape(grid.shape)
    q, d = drifted.tables, driftless.tables
    return max((float(np.max(np.abs(q[n] - weight * d[n])) / np.max(np.abs(q[n])))
                for n in steps if q[n].any()), default=0.0)


def survival_scan(law, cone, starts, n_max):
    """P(tau_x > n) for every start simultaneously, by backward recursion.

    Returns an array of shape (len(starts), n_max + 1) on the window
    ``walk_reach(starts, n_max, law, LEAK_TOL)``, which no walk leaves within n_max
    steps but with probability ``LEAK_TOL``, so each entry is low by at most that.
    That window must fit ``_lattice.budget_window`` at 8 (6 + d) bytes a box cell
    (tracemalloc: 45-47 bytes a cell on d = 2 orthants, 56 on a wedge, 57 in d = 3);
    a longer ``n_max`` is a ConfigError naming the longest that fits.
    """
    starts = admit(cone, starts, "start")
    L = walk_reach(starts, n_max, law, LEAK_TOL)
    fits = budget_window(cone, int(np.max(np.abs(law.support))), 8 * (6 + cone.dim))
    if L > fits:
        best = bisect_right(range(n_max), fits,
                            key=lambda n: walk_reach(starts, n, law, LEAK_TOL)) - 1
        raise ConfigError(f"pipeline.n_max = {n_max} needs the scan window L = {L}, past "
                          f"L = {fits}, the largest the {_lattice.MAX_BYTES / 2**30:g} GiB "
                          f"budget holds; " + (f"n_max = {best} fits" if best >= 0 else
                                               "no n_max fits"))
    grid = make_grid(cone, L, law)
    kernel = KilledKernel(grid, law)
    s = np.where(grid.mask, 1.0, 0.0)
    out = np.empty_like(s)
    flat_idx = np.ravel_multi_index((starts - grid.lo).T, grid.shape)
    result = np.empty((len(starts), n_max + 1))
    result[:, 0] = 1.0
    for n in range(1, n_max + 1):
        out = kernel.backward(s, out=out)
        s, out = out, s
        result[:, n] = s.reshape(-1)[flat_idx]
    return result


def halfspace_1d(law, a, x0_height, n_max):
    """Project the walk onto a . X and run the killed half-line oracle.

    The projected one-dimensional law must be integer valued with negative
    drift.  The returned series is rescaled by the projected survival rate
    c1 = min_t E[exp(t a . X)] (available as ``series.rescale_by``), so the
    remaining decay is the pure polynomial factor.
    """
    a = np.asarray(a, dtype=float)
    proj = law.support @ a
    rounded = np.rint(proj)
    if np.max(np.abs(proj - rounded)) > 1e-9:
        raise ConfigError("projection a . X is not integer valued on the support")
    drift = float(law.probs @ proj)
    if drift >= 0.0:
        raise ConfigError(f"projected drift {drift} is not negative")
    values = {}
    for v, p in zip(rounded.astype(int), law.probs):
        values[v] = values.get(v, 0.0) + p
    support_1d = np.array(sorted(values), dtype=int)[:, None]
    probs_1d = np.array([values[int(v)] for v in support_1d[:, 0]])
    law_1d = StepLaw(support=support_1d, probs=probs_1d)
    cd = solve_cramer_point(law_1d)
    cone_1d = ConeSpec.halfspace(np.array([1.0]))
    return dp_evolve(law_1d, cone_1d, np.array([x0_height]), n_max, rescale_by=cd.c, L=1)
