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
do not depend on which of the two finds it.  The killed-walk loop never forms
u: ``Generator.random`` makes u = (r >> 11) 2^-53 of the path's raw 64-bit
Philox word r, so u >= cdf_k exactly when (r >> 11) >= ceil(cdf_k 2^53).  The
step is looked up from the top 16 bits of r, and settled by that integer
comparison in the few lookup buckets a threshold falls strictly inside.  The
loop tracks surviving paths only: the estimators read nothing of the others,
so a killed path's exit position is not kept.

Each step walks a block's live paths ``PATH_CHUNK`` = 2^15 at a time, in
chunks of consecutive original indices taken in order.  Consecutive
``random_raw`` calls continue one stream, so each path draws the words it
would draw in one whole-block call, and every estimate keeps its bits.  A
block holds per path only its survivors' rows and ids, and the per-step
temporaries (about 40 bytes a path) are one chunk long.  One 250,000-path
block (nn4 from (5, 5), n = 60) peaks at 11.1 and 15.4 traced bytes a path,
direct and tilted, against 44.0 and 41.8 when whole blocks were stepped, and
runs in 43-63 and 166-223 ms against 49-69 and 180-216 ms (medians of 9, two
runs, one Xeon core with 4 MiB of L2).  A chunk costs about a dozen numpy
calls a step, so 2^12-path chunks took 78-98 ms direct; 2^17 held 23.7 bytes
a path.

Positions are held in the narrowest signed integer type that holds the
walk's reach |x0| + n max|z|, in the killed-walk loop (int8 for the shipped
60 steps from (5, 5)) and in the conditioned chain's path record, and
surviving path ids in int32.  The integers are those an int64 walk would
hold, so estimates and paths do not depend on the type.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._lattice import KilledKernel, admit, walk_reach
from .errors import ConfigError
from .model import cone_contains

_BUCKET_BITS = 16
PATH_CHUNK = 1 << 15     # live paths stepped together; basis in the module docstring


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


def _position_type(x0, n, law):
    """The narrowest signed integer type that holds ``walk_reach(x0, n, law)``."""
    reach = walk_reach(x0, n, law)
    for dtype in (np.int8, np.int16, np.int32):
        if reach <= np.iinfo(dtype).max:
            return dtype
    return np.int64


def _step_tables(law, dtype):
    """Steps, lookup tables and thresholds that turn raw Philox words into steps.

    A word r is the uniform u = (r >> 11) 2^-53 of ``Generator.random``, so
    u >= cut_k exactly when (r >> 11) >= T_k = ceil(cut_k 2^53), and the step
    is #{k < K-1 : (r >> 11) >= T_k}.  Bucket j = r >> 48 holds the r >> 11 in
    [j 2^37, (j+1) 2^37); ``disp`` gives, per coordinate, the step of the
    bucket's lowest word.  A bucket with a T_k strictly inside it, which needs
    a cut that is not a multiple of 2^-16, is flagged in ``straddles``: at most
    K-1 buckets, whose words are settled against ``thresholds``.
    """
    cuts = np.cumsum(law.probs)[:-1]
    thresholds = np.array([math.ceil(float(cut) * 2.0 ** 53) for cut in cuts], dtype=np.uint64)
    width = np.uint64(1 << (53 - _BUCKET_BITS))
    lowest = np.arange(1 << _BUCKET_BITS, dtype=np.uint64) * width
    first = np.searchsorted(thresholds, lowest, side="right")
    last = np.searchsorted(thresholds, lowest + (width - np.uint64(1)), side="right")
    steps = law.support.T.astype(dtype)
    return steps, steps.take(first, axis=1), thresholds, first != last


def _simulate_killed(law, cone, x0, n, m, rng):
    """The k of m killed paths of length n that survive, one (ids, rows) pair
    per chunk of ``PATH_CHUNK`` consecutive original indices, in order: the
    survivors' original indices and their final positions, shape (d, k).

    Each chunk keeps its survivors compacted, one row per coordinate of
    ``_position_type`` and their ids in int32 while m < 2^31, in their
    original order, so each step draws the same words for the same paths as
    a loop over all m paths would.  A step is looked up from the top bits of
    the path's raw word (``_step_tables``) and is the step
    min(searchsorted(cdf, u, side="right"), K - 1) for the uniform u that
    ``rng.random`` makes of that word, for any non-decreasing cdf, ties from
    zero probabilities included.  A path that dies leaves its chunk and its
    exit position is not kept.
    """
    x0 = np.asarray(x0, dtype=np.int64)
    dtype = _position_type(x0, n, law)
    steps, disp, thresholds, straddles = _step_tables(law, dtype)
    settle = straddles.any()
    start = x0[:, None].astype(dtype)
    id_type = np.int32 if m < 2 ** 31 else np.int64
    chunks = [(np.arange(lo, min(lo + PATH_CHUNK, m), dtype=id_type),
               np.repeat(start, min(PATH_CHUNK, m - lo), axis=1))
              for lo in range(0, m, PATH_CHUNK)]
    raw = rng.bit_generator.random_raw
    to_bucket, to_double = np.uint64(64 - _BUCKET_BITS), np.uint64(11)
    for _ in range(n):
        for i, (live, p) in enumerate(chunks):
            if live.size == 0:
                continue
            words = raw(live.size)
            bk = (words >> to_bucket).view(np.intp)
            p += disp.take(bk, axis=1)
            if settle:
                odd = straddles.take(bk).nonzero()[0]
                if odd.size:
                    exact = ((words.take(odd) >> to_double)[:, None] >= thresholds).sum(axis=1)
                    # a step difference may wrap in a narrow type; the sum, in range, is exact
                    p[:, odd] += steps.take(exact, axis=1) - disp.take(bk.take(odd), axis=1)
            if cone.kind == "orthant":
                inside = p.min(axis=0) > 0
            else:
                inside = cone_contains(cone, p.T)
            keep = inside.nonzero()[0]
            if keep.size < live.size:
                chunks[i] = live.take(keep), p.take(keep, axis=1)
    return chunks


def _direct_block(law, cone, x0, n, m, seed, worker):
    chunks = _simulate_killed(law, cone, x0, n, m, _worker_rng(seed, worker))
    return sum(live.size for live, _ in chunks)


def _tilted_block(tilted, h, cone, x0, n, m, seed, worker):
    chunks = _simulate_killed(tilted, cone, x0, n, m, _worker_rng(seed, worker))
    live = np.concatenate([ids for ids, _ in chunks])
    pos = np.concatenate([rows for _, rows in chunks], axis=1).T
    del chunks
    weights = _inverse_tilt(pos, x0, h)     # before the m-long array: peaks do not add
    # one m-long array, zero at killed paths, fixes the order of both sums
    wts = np.zeros(m)
    wts[live] = weights
    total = float(wts.sum())
    wts *= wts
    return total, float(wts.sum())


def _inverse_tilt(pos, x0, h):
    """exp(-h.(y - x0)) at the positions y, rows of ``pos``, formed in one
    product: matmul rounds a one-row product (a dot) apart from the same row
    in a longer one.  Matmul would cast the int64 difference to a C-ordered
    float64 copy; writing that copy directly holds no int64 array and keeps
    every bit of the product."""
    diff = np.empty(pos.shape)
    np.subtract(pos, x0, out=diff)
    return np.exp(-(diff @ h))


def _run_blocks(block, args, n_samples, seed, workers):
    """``block(*args, m, seed, w)`` for each non-empty block w, in block order.

    With more than one usable core, the blocks are shared in order among at
    most one forked child per core and the caller only waits.  A child's peak
    RSS is the caller's resident pages, which it inherits, plus its own
    working set, so the block working set sets ``simulate``'s peak.  The fork
    helper is imported here, so commands that never simulate skip it.
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
    return admit(cone, x0, "start")


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
    value is assembled in log space, and so is the standard error once c^n
    underflows, so long horizons do not read 0.
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
    scale = c ** n
    if scale >= np.finfo(float).tiny or var_w == 0.0:
        se = float(scale * np.sqrt(var_w / n_samples))
    else:
        # c^n underflows where the value, built in log space, does not
        se = float(np.exp(n * np.log(c) + 0.5 * np.log(var_w / n_samples)))
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

    paths: np.ndarray        # (n_paths, n_steps + 1, d), narrowest integer type
    row_sum_min: float
    row_sum_max: float
    n_truncated: int
    seed: int
    n_steps: int


def z_chain(law, cramer, tables, x0, n_steps, seed, n_paths=1):
    """Sample the chain conditioned to never leave the cone.

    Transition weights are (1/c) P(X = z) U(x+z) / U(x), computed as the tilted
    law's (1/c) P(X = z) e^(h.z) times V(x+z) / V(x) once over the window, one
    array per step z, from the kernel's shifts of V.  Each row's raw sum is kept
    and the row normalized into a cumulative table, so table truncation shows up
    as a diagnostic rather than a bias; a sampled step is a lookup at the paths'
    positions.  The table is zero off the window, so paths stay on it.  The
    path record takes ``_position_type`` (int16 for 200 unit steps).
    """
    grid = tables.grid
    x0 = admit(tables.cone, x0, "start", grid, f"harmonic window L = {tables.L:g}")
    support = law.support
    step_w = cramer.tilted.probs   # (1/c) P(z) e^(h.z)
    kernel = KilledKernel(grid, law)
    V, mask = tables.V, grid.mask
    if grid.value_at(V, x0) == 0.0:
        raise ConfigError(f"V({x0.tolist()}) = 0: no path from the start reaches the far "
                          "field inside the cone, so the conditioned chain cannot start there")
    weights = np.zeros(grid.shape + (support.shape[0],))
    # a state with V = 0 has no row: every step into it has weight 0
    weights[mask] = step_w * kernel.gather(V) / np.where(V > 0.0, V, np.inf)[mask][:, None]
    row_sum = weights.sum(axis=-1)
    cdf = np.cumsum(weights / np.maximum(row_sum, 1e-300)[..., None], axis=-1)
    interior = kernel.interior
    rng = _worker_rng(seed, 0)
    m = n_paths
    pos = np.tile(x0, (m, 1))
    frozen = np.zeros(m, dtype=bool)
    paths = np.empty((m, n_steps + 1, law.dim), dtype=_position_type(x0, n_steps, law))
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
