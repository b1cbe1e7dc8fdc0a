"""Monte Carlo estimators: direct killed paths, tilted importance sampling,
and the chain conditioned to stay in the cone forever.

Randomness comes from counter-based Philox generators.  Worker ``w`` of a run
with seed ``s`` draws from ``Philox(SeedSequence(entropy=s, spawn_key=(w,)))``
and simulates its own block of samples; results are combined in worker order,
so (seed, n_samples, workers) reproduces every estimate bit for bit.
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
    """Final increments and alive flags of m killed paths of length n."""
    pos = np.tile(np.asarray(x0, dtype=np.int64), (m, 1))
    alive = np.ones(m, dtype=bool)
    cdf = np.cumsum(law.probs)
    for _ in range(n):
        act = np.flatnonzero(alive)
        if act.size == 0:
            break
        idx = np.searchsorted(cdf, rng.random(act.size), side="right")
        idx = np.minimum(idx, law.support.shape[0] - 1)
        pos[act] += law.support[idx]
        alive[act] = cone_contains(cone, pos[act])
    return pos, alive


def mc_survival(law, cone, x0, n, n_samples, seed, workers=1):
    """Direct estimate of P(tau_x0 > n) with binomial standard error."""
    if n_samples < 1:
        raise ConfigError("n_samples must be at least 1")
    x0 = np.asarray(x0, dtype=int)
    if n == 0:
        return McEstimate(1.0, 0.0, n_samples, seed, workers)
    hits = 0
    for w, m in enumerate(_split_samples(n_samples, workers)):
        if m == 0:
            continue
        rng = _worker_rng(seed, w)
        _, alive = _simulate_killed(law, cone, x0, n, m, rng)
        hits += int(alive.sum())
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
    if n_samples < 1:
        raise ConfigError("n_samples must be at least 1")
    x0 = np.asarray(x0, dtype=int)
    if n == 0:
        return McEstimate(1.0, 0.0, n_samples, seed, workers)
    h, c = cramer.h, cramer.c
    sum_w = 0.0
    sum_w2 = 0.0
    for w, m in enumerate(_split_samples(n_samples, workers)):
        if m == 0:
            continue
        rng = _worker_rng(seed, w)
        pos, alive = _simulate_killed(cramer.tilted, cone, x0, n, m, rng)
        wts = np.where(alive, np.exp(-((pos - x0) @ h)), 0.0)
        sum_w += float(wts.sum())
        sum_w2 += float((wts * wts).sum())
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
    seen at interior states; c-harmonicity of U makes them 1 up to the table's
    numerical residual.  Paths that reach the window edge are frozen there and
    counted in ``n_truncated``.
    """

    paths: np.ndarray        # (n_paths, n_steps + 1, d)
    row_sum_min: float
    row_sum_max: float
    n_truncated: int
    seed: int
    n_steps: int


def z_chain(law, cramer, tables, x0, n_steps, seed, n_paths=1):
    """Sample the chain conditioned to never leave the cone.

    Transition weights are (1/c) P(X = z) U(x+z) / U(x); each row is
    normalized explicitly and the raw sum recorded, so table truncation shows
    up as a diagnostic rather than a bias.
    """
    x0 = np.asarray(x0, dtype=int)
    grid = tables.grid
    if grid.index_of(x0) < 0:
        raise ConfigError(f"start {x0.tolist()} outside the harmonic window")
    h, c = cramer.h, cramer.c
    support = law.support
    step_w = law.probs * np.exp(support @ h) / c   # (1/c) P(z) e^(h.z)
    interior = KilledKernel(grid, law, tables.cone).interior
    rng = _worker_rng(seed, 0)
    m = n_paths
    pos = np.tile(x0, (m, 1))
    frozen = np.zeros(m, dtype=bool)
    paths = np.empty((m, n_steps + 1, law.dim), dtype=np.int64)
    paths[:, 0] = pos
    row_min, row_max = np.inf, -np.inf
    V = tables.V
    lo, shape = grid.lo, np.asarray(grid.shape)
    for t in range(1, n_steps + 1):
        off = pos - lo
        vx = V[tuple(off.T)]
        inter = interior[tuple(off.T)] & ~frozen
        weights = np.empty((m, support.shape[0]))
        for j, z in enumerate(support):
            offz = off + z
            ok = np.all((offz >= 0) & (offz < shape), axis=1)
            vz = np.zeros(m)
            vz[ok] = V[tuple(offz[ok].T)]
            weights[:, j] = step_w[j] * vz
        weights /= vx[:, None]
        row_sums = weights.sum(axis=1)
        if inter.any():
            row_min = min(row_min, float(row_sums[inter].min()))
            row_max = max(row_max, float(row_sums[inter].max()))
        # freeze paths whose row lost more than truncation noise allows
        bad = (row_sums <= 0.5) & ~frozen
        frozen |= bad
        u = rng.random(m)
        cdf = np.cumsum(weights / np.maximum(row_sums, 1e-300)[:, None], axis=1)
        choice = (u[:, None] > cdf).sum(axis=1)
        move = ~frozen
        pos = pos + np.where(move[:, None], support[np.minimum(choice, support.shape[0] - 1)], 0)
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
