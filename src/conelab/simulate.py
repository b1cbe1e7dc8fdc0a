"""Monte Carlo estimators: direct killed paths, tilted importance sampling,
and the chain conditioned to stay in the cone forever.

Randomness comes from counter-based Philox generators.  A run with seed ``s``
and ``workers`` streams splits its samples into ``workers`` blocks; block
``w`` draws from ``Philox(SeedSequence(entropy=s, spawn_key=(w,)))`` and the
block results are merged in block order.  Estimates therefore depend on
(seed, n_samples, workers) and reproduce bit for bit, whatever the core
count: the blocks are shared among at most one forked child per usable core,
or run in the calling process when there is one core or the platform cannot
fork.

Each step of a live path with uniform u is step number #{k < K-1 : u >= cdf_k}:
the map of a binary search of the cdf clipped to the last step, so estimates
do not depend on which of the two finds it.
"""

from dataclasses import dataclass

import numpy as np

from ._lattice import KilledKernel
from .errors import ConfigError
from .model import cone_contains


@dataclass
class McEstimate:
    value: float
    std_error: float
    n_samples: int
    seed: int
    workers: int = 1

    @property
    def rel_std_error(self):
        return self.std_error / self.value if self.value != 0.0 else float("inf")


def _worker_rng(seed, worker):
    return np.random.Generator(
        np.random.Philox(seed=np.random.SeedSequence(entropy=seed, spawn_key=(worker,)))
    )


def _split_samples(n_samples, workers):
    base = n_samples // workers
    counts = [base + (1 if w < n_samples % workers else 0) for w in range(workers)]
    return counts


def _simulate_killed(law, cone, x0, n, m, rng):
    """Final positions and alive flags of m killed paths of length n.

    Survivors are kept compacted, one row per coordinate (int32 unless a path
    could reach 2^31 in n steps), in their original order, so each step draws
    the same uniforms for the same paths as a loop over the full (m, d) array
    would.  A path that dies has its exit position written to ``pos`` and
    leaves the compacted rows.  The step count, made into buffers allocated
    once, equals min(searchsorted(cdf, u, side="right"), K - 1) for any
    non-decreasing cdf, ties from zero probabilities included.
    """
    x0 = np.asarray(x0, dtype=np.int64)
    pos = np.tile(x0, (m, 1))
    alive = np.zeros(m, dtype=bool)
    reach = int(np.abs(x0).max()) + n * int(np.abs(law.support).max())
    dtype = np.int32 if reach < 2 ** 31 else np.int64
    p = np.repeat(x0[:, None].astype(dtype), m, axis=1)
    live = np.arange(m)
    cuts = np.cumsum(law.probs)[:-1]
    steps = law.support.T.astype(dtype)
    u = np.empty(m)
    idx = np.empty(m, dtype=np.intp)
    ge = np.empty(m, dtype=bool)
    for _ in range(n):
        k = live.size
        if k == 0:
            break
        uk, ik, gk = u[:k], idx[:k], ge[:k]
        rng.random(out=uk)
        ik.fill(0)
        for cut in cuts:
            np.greater_equal(uk, cut, out=gk)
            ik += gk
        for row, step in zip(p, steps):
            row += step.take(ik)
        if cone.kind == "orthant":
            inside = p[0] > 0
            for row in p[1:]:
                inside &= row > 0
        else:
            inside = cone_contains(cone, p.T)
        if not inside.all():
            dead = np.flatnonzero(~inside)
            pos[live.take(dead)] = p.take(dead, axis=1).T
            keep = np.flatnonzero(inside)
            p, live = p.take(keep, axis=1), live.take(keep)
    pos[live] = p.T
    alive[live] = True
    return pos, alive


def _direct_block(law, cone, x0, n, m, seed, worker):
    _, alive = _simulate_killed(law, cone, x0, n, m, _worker_rng(seed, worker))
    return int(alive.sum())


def _tilted_block(tilted, h, cone, x0, n, m, seed, worker):
    pos, alive = _simulate_killed(tilted, cone, x0, n, m, _worker_rng(seed, worker))
    wts = np.where(alive, np.exp(-((pos - x0) @ h)), 0.0)
    return float(wts.sum()), float((wts * wts).sum())


def _run_blocks(block, args, n_samples, seed, workers):
    """``block(*args, m, seed, w)`` for each non-empty block w, in block order.

    With more than one usable core, the blocks are shared in order among at
    most one forked child per core and the caller only waits: a child leaves
    out of its RSS the pages it never touches, so the peak stays lower than
    if the caller ran blocks too.  The fork helper is imported here, so
    commands that never simulate skip it.
    """
    from . import _fork

    jobs = [(m, seed, w) for w, m in enumerate(_split_samples(n_samples, workers)) if m > 0]
    procs = min(len(jobs), _fork.usable_cores())
    if procs == 1:
        return [block(*args, *job) for job in jobs]
    shares = [jobs[len(jobs) * i // procs: len(jobs) * (i + 1) // procs] for i in range(procs)]
    results = _fork.run_each(lambda share: [block(*args, *job) for job in share], shares)
    return [r for share in results for r in share]


def _check_start(cone, x0, n_samples):
    if n_samples < 1:
        raise ConfigError("n_samples must be at least 1")
    x0 = np.asarray(x0, dtype=int)
    if x0.shape != (cone.dim,) or not cone_contains(cone, x0[None, :])[0]:
        raise ConfigError(f"start {x0.tolist()} is not inside the open cone")
    return x0


def mc_survival(law, cone, x0, n, n_samples, seed, workers=1):
    """Direct estimate of P(tau_x0 > n) with binomial standard error."""
    x0 = _check_start(cone, x0, n_samples)
    if n == 0:
        return McEstimate(1.0, 0.0, n_samples, seed, workers)
    hits = sum(_run_blocks(_direct_block, (law, cone, x0, n), n_samples, seed, workers))
    p_hat = hits / n_samples
    se = float(np.sqrt(p_hat * (1.0 - p_hat) / n_samples))
    return McEstimate(float(p_hat), se, n_samples, seed, workers)


def is_survival(cramer, cone, x0, n, n_samples, seed, workers=1):
    """Importance-sampling estimate of P(tau_x0 > n) via the driftless tilt.

    Simulates the tilted walk killed on leaving the cone and averages the
    inverse-tilt weight exp(-h . S(n)) over survivors; multiplying by c^n
    gives an unbiased estimate of the original survival probability.  The
    value is assembled in log space, so long horizons cannot underflow.
    """
    x0 = _check_start(cone, x0, n_samples)
    if n == 0:
        return McEstimate(1.0, 0.0, n_samples, seed, workers)
    h, c = cramer.h, cramer.c
    sum_w = 0.0
    sum_w2 = 0.0
    for s, s2 in _run_blocks(_tilted_block, (cramer.tilted, h, cone, x0, n),
                             n_samples, seed, workers):
        sum_w += s
        sum_w2 += s2
    mean_w = sum_w / n_samples
    if mean_w > 0.0:
        value = float(np.exp(n * np.log(c) + np.log(mean_w)))
    else:
        value = 0.0
    var_w = max(sum_w2 / n_samples - mean_w ** 2, 0.0) * n_samples / max(n_samples - 1, 1)
    se = float(c ** n * np.sqrt(var_w / n_samples))
    return McEstimate(value, se, n_samples, seed, workers)


@dataclass
class ZChainRun:
    """Sampled paths of the conditioned chain plus row-sum diagnostics.

    ``row_sum_min``/``row_sum_max`` cover the raw (pre-normalization) row sums
    of the transition table at the interior states the paths visit;
    c-harmonicity of U makes them 1 up to the table's numerical residual.
    Paths whose row lost more than half its mass near the window edge are
    frozen there and counted in ``n_truncated``.
    """

    paths: np.ndarray        # (n_paths, n_steps + 1, d)
    row_sum_min: float
    row_sum_max: float
    n_truncated: int
    seed: int
    n_steps: int


def z_chain(law, cramer, tables, x0, n_steps, seed, n_paths=1):
    """Sample the chain conditioned to never leave the cone.

    Transition weights are (1/c) P(X = z) U(x+z) / U(x), computed as
    (1/c) P(X = z) e^(h.z) V(x+z) / V(x) once over the window, one array per
    step z, from the kernel's shifts of V.  Each row's raw sum is kept and the
    row normalized into a cumulative table, so table truncation shows up as a
    diagnostic rather than a bias; a sampled step is a lookup at the paths'
    positions.  The table is zero off the window, so paths stay on it.
    """
    x0 = np.asarray(x0, dtype=int)
    grid = tables.grid
    if not grid.contains(x0):
        raise ConfigError(f"start {x0.tolist()} outside the harmonic window")
    h, c = cramer.h, cramer.c
    support = law.support
    step_w = law.probs * np.exp(support @ h) / c   # (1/c) P(z) e^(h.z)
    kernel = KilledKernel(grid, law)
    V, mask = tables.V, grid.mask
    weights = np.zeros(grid.shape + (support.shape[0],))
    weights[mask] = step_w * kernel.gather(V) / V[mask][:, None]
    row_sum = weights.sum(axis=-1)
    cdf = np.cumsum(weights / np.maximum(row_sum, 1e-300)[..., None], axis=-1)
    interior = kernel.interior
    rng = _worker_rng(seed, 0)
    m = n_paths
    pos = np.tile(x0, (m, 1))
    frozen = np.zeros(m, dtype=bool)
    paths = np.empty((m, n_steps + 1, law.dim), dtype=np.int64)
    paths[:, 0] = pos
    row_min, row_max = np.inf, -np.inf
    for t in range(1, n_steps + 1):
        at = tuple((pos - grid.lo).T)
        row_sums = row_sum[at]
        inter = interior[at] & ~frozen
        if inter.any():
            row_min = min(row_min, float(row_sums[inter].min()))
            row_max = max(row_max, float(row_sums[inter].max()))
        # freeze paths whose row lost more than truncation noise allows
        frozen |= row_sums <= 0.5
        u = rng.random(m)
        choice = (u[:, None] >= cdf[at][:, :-1]).sum(axis=1)
        pos = pos + np.where(frozen[:, None], 0, support[choice])
        paths[:, t] = pos
    return ZChainRun(
        paths=paths, row_sum_min=float(row_min), row_sum_max=float(row_max),
        n_truncated=int(frozen.sum()), seed=seed, n_steps=n_steps,
    )


def transience_indicator(run, early=20, late=200):
    """One-sided drift-outward statistic: mean |position| late minus early.

    Returns (difference, standard error of the difference) over the sampled
    paths; a transient chain shows a difference many standard errors above 0.
    """
    if late > run.n_steps:
        raise ConfigError("late time beyond the sampled horizon")
    r_early = np.linalg.norm(run.paths[:, early], axis=1)
    r_late = np.linalg.norm(run.paths[:, late], axis=1)
    diff = r_late - r_early
    n = diff.shape[0]
    return float(diff.mean()), float(diff.std(ddof=1) / np.sqrt(n))
