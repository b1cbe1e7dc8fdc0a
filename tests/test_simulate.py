import math
import os
import re
import time
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from cases import killed_walk_case

import conelab.simulate as simulate
from conelab import _fork
from conelab._lattice import KilledKernel
from conelab.cramer import solve_cramer_point
from conelab.dp_oracle import dp_evolve
from conelab.errors import ConfigError
from conelab.harmonic import build_U_tables, build_V_tables
from conelab.model import ConeSpec, StepLaw, cone_contains
from conelab.simulate import (_simulate_killed, _worker_rng, is_survival,
                              mc_survival, transience_indicator, z_chain)
from conelab.whiten import whiten_model


def test_zero_horizon_is_exact(nn4, quadrant, cramer_nn4):
    direct = mc_survival(nn4, quadrant, [1, 1], 0, 100, seed=1)
    tilted = is_survival(cramer_nn4, quadrant, [1, 1], 0, 100, seed=1)
    for est in (direct, tilted):
        assert est.value == 1.0
        assert est.std_error == 0.0


def test_direct_estimator_matches_enumeration(nn4, quadrant):
    est1 = mc_survival(nn4, quadrant, [1, 1], 1, 400_000, seed=5, workers=4)
    assert abs(est1.value - 0.25) <= 4.0 * est1.std_error
    est2 = mc_survival(nn4, quadrant, [1, 1], 2, 400_000, seed=6, workers=4)
    assert abs(est2.value - 5.0 / 32.0) <= 4.0 * est2.std_error


def test_tilted_estimator_matches_enumeration(cramer_nn4, quadrant):
    est = is_survival(cramer_nn4, quadrant, [1, 1], 1, 400_000, seed=7, workers=4)
    assert abs(est.value - 0.25) <= 4.0 * est.std_error


def test_bit_exact_reproducibility(nn4, quadrant, cramer_nn4):
    a = mc_survival(nn4, quadrant, [2, 2], 8, 50_000, seed=42, workers=3)
    b = mc_survival(nn4, quadrant, [2, 2], 8, 50_000, seed=42, workers=3)
    assert a.value == b.value and a.std_error == b.std_error
    c = is_survival(cramer_nn4, quadrant, [2, 2], 8, 50_000, seed=42, workers=3)
    d = is_survival(cramer_nn4, quadrant, [2, 2], 8, 50_000, seed=42, workers=3)
    assert c.value == d.value and c.std_error == d.std_error
    # the worker count is part of the stream layout
    e = mc_survival(nn4, quadrant, [2, 2], 8, 50_000, seed=42, workers=4)
    assert e.value != a.value or e.std_error != a.std_error


def test_both_estimators_agree_with_dp(nn4, quadrant, cramer_nn4):
    series = dp_evolve(nn4, quadrant, [2, 2], 12, rescale_by=1.0, L=20)
    target = series.survival[12]
    for seed in range(5):
        direct = mc_survival(nn4, quadrant, [2, 2], 12, 200_000, seed=seed,
                             workers=2)
        tilted = is_survival(cramer_nn4, quadrant, [2, 2], 12, 200_000, seed=seed,
                             workers=2)
        assert abs(direct.value - target) <= 4.0 * direct.std_error
        assert abs(tilted.value - target) <= 4.0 * tilted.std_error


def test_importance_weights_bounded(cramer_nn4, quadrant):
    # on surviving paths the weight is e^{-h.(y - x0)} <= e^{h.x0 - min h.y}
    x0 = np.array([1, 1])
    h = cramer_nn4.h
    bound = float(np.exp(h @ x0 - h @ np.array([1, 1])))
    rng = _worker_rng(123, 0)
    _, pos = killed(cramer_nn4.tilted, quadrant, x0, 30, 20_000, rng)
    weights = np.exp(-((pos - x0) @ h))
    assert weights.max() <= bound + 1e-12
    assert np.all(weights > 0.0)


def test_sample_count_validation(nn4, quadrant):
    with pytest.raises(ConfigError):
        mc_survival(nn4, quadrant, [1, 1], 5, 0, seed=0)


@pytest.mark.parametrize("x0", [[0, 3], [3, -1], [1, 1, 1]],
                         ids=["on-axis", "outside", "wrong-dimension"])
def test_start_outside_open_cone_rejected(nn4, quadrant, cramer_nn4, x0):
    # tau = 0 at a start outside the open cone, so an estimate would be wrong
    named = re.escape(f"start {x0}")
    with pytest.raises(ConfigError, match=named):
        mc_survival(nn4, quadrant, x0, 2, 10_000, seed=1)
    with pytest.raises(ConfigError, match=named):
        is_survival(cramer_nn4, quadrant, x0, 2, 10_000, seed=1)


def killed(law, cone, x0, n, m, rng):
    """``_simulate_killed``'s chunks joined: the survivors' ids and positions."""
    chunks = _simulate_killed(law, cone, x0, n, m, rng)
    return (np.concatenate([live for live, _ in chunks]),
            np.concatenate([rows for _, rows in chunks], axis=1).T)


def _reference_simulate_killed(law, cone, x0, n, m, rng):
    """The uncompacted loop over the full (m, d) array."""
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


CONES = [
    (ConeSpec.orthant(2), (2, 2)),
    (ConeSpec.wedge2d(3 * np.pi / 4, theta0=np.pi / 8), (2, 3)),
    (ConeSpec.halfspace(np.array([1.0, 2.0])), (1, 1)),
]


@pytest.mark.parametrize("cone, x0", CONES, ids=["quadrant", "wedge", "halfspace"])
@pytest.mark.parametrize("tilted", [False, True], ids=["direct", "tilted"])
def test_compacted_loop_matches_reference(nn4, cramer_nn4, cone, x0, tilted):
    law = cramer_nn4.tilted if tilted else nn4
    live, pos = killed(law, cone, x0, 40, 5_000, _worker_rng(3, 1))
    ref_pos, ref_alive = _reference_simulate_killed(law, cone, x0, 40, 5_000,
                                                    _worker_rng(3, 1))
    assert 0 < live.size < ref_alive.size
    assert np.array_equal(live, np.flatnonzero(ref_alive))
    assert np.array_equal(pos, ref_pos[ref_alive])


def assert_matches_reference(law, cone, x0, n, m, seed):
    # the survivors, in their original order, and where they are; killed
    # paths' exit positions are not kept
    live, pos = killed(law, cone, x0, n, m, _worker_rng(seed, 0))
    ref_pos, ref_alive = _reference_simulate_killed(law, cone, x0, n, m,
                                                    _worker_rng(seed, 0))
    assert live.dtype == np.int32
    assert np.array_equal(live, np.flatnonzero(ref_alive))
    assert np.array_equal(pos, ref_pos[ref_alive])
    return pos


@pytest.mark.parametrize("seed", range(40))
def test_cut_point_count_matches_searchsorted_reference(seed):
    # counting cut points picks the step the binary search picks, also across
    # ties from zero-probability steps and a cdf that ends below 1
    law, cone, x0, sim_seed = killed_walk_case(seed)
    assert_matches_reference(law, cone, x0, 30, 2_000, sim_seed)


def test_far_start_takes_int64_rows():
    # from 2^31 - 10, twenty steps of up to +2 pass int32's range
    law = SimpleNamespace(support=np.array([[2, 0], [-1, 1], [0, -1]]),
                          probs=np.array([0.5, 0.25, 0.25]))
    pos = assert_matches_reference(law, ConeSpec.orthant(2), (2**31 - 10, 5), 20,
                                   2_000, 8)
    assert pos[:, 0].max() >= 2**31


@pytest.mark.parametrize("edge, dtype, wider", [
    (2**7 - 1, np.int8, np.int16),
    (2**15 - 1, np.int16, np.int32),
    (2**31 - 1, np.int32, np.int64),
], ids=["int8", "int16", "int32"])
@pytest.mark.parametrize("past", [0, 1], ids=["at-edge", "past-edge"])
def test_rows_take_the_narrowest_type_that_fits(edge, dtype, wider, past):
    # five steps of up to +2 from edge - 10 + past reach the largest value of
    # dtype, or one more, which takes the next wider type; paths that take
    # five +2 steps land there
    law = SimpleNamespace(support=np.array([[2, 0], [-1, 1], [0, -1]]),
                          probs=np.array([0.5, 0.25, 0.25]))
    pos = assert_matches_reference(law, ConeSpec.orthant(2), (edge - 10 + past, 5), 5,
                                   2_000, 3)
    assert pos.dtype == (wider if past else dtype)
    assert pos[:, 0].max() == edge + past


class CraftedWords:
    """Replays a cycle of 64-bit words: raw to the lookup, and as the doubles
    ``Generator.random`` makes of them, (r >> 11) 2^-53, to the reference."""

    def __init__(self, words):
        self.words = np.array(words, dtype=np.uint64)
        self.drawn = 0
        self.bit_generator = self

    def random_raw(self, k):
        out = self.words[(self.drawn + np.arange(k)) % self.words.size]
        self.drawn += k
        return out

    def random(self, k):
        return (self.random_raw(k) >> np.uint64(11)).astype(float) * 2.0 ** -53


def boundary_words(probs):
    """Words on either side of each threshold T_k = ceil(cut_k 2^53), with the
    low 11 bits clear and set, and at the edges of the 2^16 lookup buckets:
    those holding a threshold, the first, a middle one and the last."""
    thresholds = [math.ceil(float(cut) * 2.0 ** 53) for cut in np.cumsum(probs)[:-1]]
    words = {q << 11 | low for t in thresholds for q in (t - 1, t) if 0 <= q < 2 ** 53
             for low in (0, 0x7FF)}
    for j in [1, 2 ** 15, 2 ** 16 - 1] + [min(t >> 37, 2 ** 16 - 1) for t in thresholds]:
        words |= {j << 48, (j << 48) - 1, ((j + 1) << 48) - 1}
    return sorted(w for w in words if 0 <= w < 2 ** 64)


def test_philox_double_is_top_53_bits_of_raw_word():
    # the rule the lookup relies on, checked on the generator itself
    words = _worker_rng(5, 0).bit_generator.random_raw(10_000)
    assert np.array_equal(_worker_rng(5, 0).random(10_000), CraftedWords(words).random(10_000))


NN4_STEPS = [[1, 0], [-1, 0], [0, 1], [0, -1]]


LOOKUP_CASES = [
    (NN4_STEPS, [1 / 8, 3 / 8, 1 / 8, 3 / 8], (2, 2), 0),
    (NN4_STEPS, "tilted", (2, 2), 2),
    ([[-1, 0], [1, 1], [0, 1], [0, -1]], [0.0, 0.3, 0.0, 0.7], (2, 2), 1),
    ([[1, 0], [-1, 1], [0, -1]], [0.3, 0.3, 0.3], (2, 2), 2),
    (NN4_STEPS, [9 / 28, 18 / 28, 1 / 28, 0.0], (2, 2), 2),
    ([[2, 0], [-1, 1], [0, -1]], [0.5, 0.3, 0.2], (2 ** 31 - 10, 2), 1),
]


@pytest.mark.parametrize("steps, probs, x0, straddling", LOOKUP_CASES, ids=[
    "dyadic", "nn4-tilted", "zero-steps-first-cut-0", "cdf-ends-at-0.9", "partial-sum-above-1",
    "int64-rows"])
def test_lookup_settles_words_at_thresholds_exactly(cramer_nn4, steps, probs, x0, straddling):
    # a path whose word sits next to a threshold, or at a bucket edge, takes
    # the step the uniform (r >> 11) 2^-53 picks in the reference loop
    if probs == "tilted":
        probs = cramer_nn4.tilted.probs
    law = SimpleNamespace(support=np.array(steps), probs=np.array(probs))
    assert simulate._step_tables(law, np.int64)[3].sum() == straddling
    words = boundary_words(law.probs)
    m, n = len(words) + 3, 6
    live, pos = killed(law, ConeSpec.orthant(2), x0, n, m, CraftedWords(words))
    ref_pos, ref_alive = _reference_simulate_killed(law, ConeSpec.orthant(2), x0, n, m,
                                                    CraftedWords(words))
    assert 0 < live.size < m
    assert np.array_equal(live, np.flatnonzero(ref_alive))
    assert np.array_equal(pos, ref_pos[ref_alive])


def test_settling_wraps_exactly_in_int8_rows():
    # one step of up to 64 from (2, 2) keeps int8 rows; the word at the first
    # threshold is looked up as (-64, 0) and settled as (64, 0), a correction
    # of 128 that wraps in int8 and still lands the path on (66, 2)
    law = SimpleNamespace(support=np.array([[-64, 0], [64, 0], [0, 1], [0, -1]]),
                          probs=np.array([0.3, 0.3, 0.3, 0.1]))
    words = boundary_words(law.probs)
    live, pos = killed(law, ConeSpec.orthant(2), (2, 2), 1, len(words),
                       CraftedWords(words))
    ref_pos, ref_alive = _reference_simulate_killed(law, ConeSpec.orthant(2), (2, 2), 1,
                                                    len(words), CraftedWords(words))
    assert pos.dtype == np.int8
    assert np.array_equal(live, np.flatnonzero(ref_alive))
    assert np.array_equal(pos, ref_pos[ref_alive])
    at_threshold = words.index(math.ceil(0.3 * 2.0 ** 53) << 11)
    assert pos[live.tolist().index(at_threshold)].tolist() == [66, 2]


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_chunk_edges_match_the_reference(nn4, cramer_nn4, chunk, monkeypatch):
    # chunks of 1, 7 and 64 paths cross slice edges, empty whole chunks and
    # leave a short last one (5,000 = 714 * 7 + 2 = 78 * 64 + 8; 2,000 =
    # 285 * 7 + 5 = 31 * 64 + 16), and every path still draws its own words
    monkeypatch.setattr(simulate, "PATH_CHUNK", chunk)
    chunks = _simulate_killed(nn4, ConeSpec.orthant(2), (2, 2), 40, 5_000, _worker_rng(3, 1))
    assert len(chunks) == -(-5_000 // chunk)
    assert any(live.size == 0 for live, _ in chunks)
    # at one path a chunk, each chunk pass costs a dozen numpy calls: the
    # tilted and non-orthant loops and two of the seeds (10 s there) run from
    # 7 paths a chunk up
    for cone, x0 in CONES if chunk > 1 else CONES[:1]:
        for tilted in (False, True) if chunk > 1 else (False,):
            test_compacted_loop_matches_reference(nn4, cramer_nn4, cone, x0, tilted)
    for seed in range(3) if chunk > 1 else range(1):
        test_cut_point_count_matches_searchsorted_reference(seed)
    for case in LOOKUP_CASES:
        test_lookup_settles_words_at_thresholds_exactly(cramer_nn4, *case)
    test_settling_wraps_exactly_in_int8_rows()
    test_far_start_takes_int64_rows()


def test_chunks_of_the_shipped_size_match_the_reference(cramer_nn4):
    # three whole chunks and a short fourth of 5 paths
    m = 3 * simulate.PATH_CHUNK + 5
    assert len(_simulate_killed(cramer_nn4.tilted, ConeSpec.orthant(2), (2, 2), 1, m,
                                _worker_rng(11, 0))) == 4
    assert_matches_reference(cramer_nn4.tilted, ConeSpec.orthant(2), (2, 2), 30, m, 11)


def test_block_working_set_stays_chunk_sized(nn4, cramer_nn4, quadrant):
    # a block holds per path its survivors' rows and ids, and the tilted block
    # its m-long weights; every per-step temporary is one chunk long.  Traced
    # peaks read 11.1 (direct) and 15.4 (tilted) bytes a path; stepping whole
    # blocks held 44.0 and 41.8
    m, x0 = 250_000, np.array([5, 5])
    for block, args, bound in (
            (simulate._direct_block, (nn4, quadrant, x0, 60), 16.0),
            (simulate._tilted_block, (cramer_nn4.tilted, cramer_nn4.h, quadrant, x0, 60), 22.0)):
        tracemalloc.start()
        try:
            block(*args, m, 20240718, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / m <= bound, block.__name__


@pytest.mark.parametrize("d", [2, 3])
def test_inverse_tilt_keeps_the_bits_of_the_int64_product(d):
    # the weights are those of exp(-((pos - x0) @ h)) on the same rows, bit
    # for bit, for int8 and int64 rows laid out as the loop's (d, k) rows
    rng = np.random.default_rng(d)
    x0, h = rng.integers(1, 50, d), rng.normal(size=d)
    for k in (1, 2, 3, 17, 4_099):
        for dtype in (np.int8, np.int64):
            pos = rng.integers(1, 100, (d, k)).astype(dtype).T
            assert np.array_equal(simulate._inverse_tilt(pos, x0, h), np.exp(-((pos - x0) @ h)))


def test_tilted_error_survives_an_underflowing_rate(cramer_nn4, quadrant):
    # c^5300 underflows to 0 while the value, built in log space, does not;
    # the standard error must not read 0 on a positive estimate
    assert cramer_nn4.c ** 5300 == 0.0
    est = is_survival(cramer_nn4, quadrant, [200, 200], 5300, 2000, seed=1, workers=1)
    assert est.value > 0.0
    assert est.std_error > 0.0
    assert 0.5 < est.rel_std_error <= 1.0


# (value, std_error) of both estimators at x0 (2, 2), n = 30, seed 42,
# workers 3, as computed by the serial uncompacted loop
PINNED = {"direct": (0.00029, 3.807334369345566e-05),
          "tilted": (0.00030295165427495624, 4.092072974484666e-06)}


def _both(nn4, quadrant, cramer_nn4, n_samples, workers):
    args = (quadrant, [2, 2], 30, n_samples)
    direct = mc_survival(nn4, *args, seed=42, workers=workers)
    tilted = is_survival(cramer_nn4, *args, seed=42, workers=workers)
    return {"direct": (direct.value, direct.std_error),
            "tilted": (tilted.value, tilted.std_error)}


def test_pinned_estimates_independent_of_core_count(nn4, quadrant, cramer_nn4,
                                                     monkeypatch):
    assert _both(nn4, quadrant, cramer_nn4, 200_000, 3) == PINNED
    monkeypatch.setattr(_fork, "usable_cores", lambda: 1)
    assert _both(nn4, quadrant, cramer_nn4, 200_000, 3) == PINNED


def _late_first_block(m, seed, worker):
    time.sleep(0.05 * (4 - worker))
    return worker


def test_blocks_merge_in_block_order():
    # block 0 finishes last, so a merge in completion order would reorder
    assert simulate._run_blocks(_late_first_block, (), 4, 0, 4) == [0, 1, 2, 3]


def test_pool_capped_at_core_count(nn4, quadrant, cramer_nn4, monkeypatch):
    cores = _fork.usable_cores()
    with monkeypatch.context() as mp:
        mp.setattr(_fork, "usable_cores", lambda: 1)
        serial = _both(nn4, quadrant, cramer_nn4, 50, 64)
    forks = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    # 64 streams of 50 samples: 50 non-empty blocks, shared by one child per core
    assert _both(nn4, quadrant, cramer_nn4, 50, 64) == serial
    assert len(forks) == (2 * cores if cores > 1 else 0)


@pytest.fixture(scope="module")
def z_tables(ctx):
    wd = ctx.whitening
    tabs = build_V_tables(ctx.cramer.tilted, ctx.cone, wd.cone_image, wd.M, L=120)
    return build_U_tables(tabs, ctx.cramer.h)


def test_z_chain_row_sums_and_confinement(nn4, cramer_nn4, z_tables):
    run = z_chain(nn4, cramer_nn4, z_tables, [1, 1], 100, seed=9, n_paths=200)
    assert run.row_sum_min >= 1.0 - 1e-4
    assert run.row_sum_max <= 1.0 + 1e-4
    assert np.all(run.paths > 0)
    assert run.n_truncated == 0


def test_z_chain_reproducible(nn4, cramer_nn4, z_tables):
    a = z_chain(nn4, cramer_nn4, z_tables, [1, 1], 50, seed=4, n_paths=20)
    b = z_chain(nn4, cramer_nn4, z_tables, [1, 1], 50, seed=4, n_paths=20)
    assert np.array_equal(a.paths, b.paths)


def test_z_chain_ties_pick_the_binary_search_step(nn4, cramer_nn4, z_tables, monkeypatch):
    # at (1, 1) the two killing steps carry no weight and the others half
    # each, so the cdf row is [0.5, 0.5, 1, 1]; u = 0.5 sits on its cut points
    # and searchsorted(cdf, 0.5, side="right") = 2 picks (0, 1), not (1, 0)
    class Halves:
        def random(self, m):
            return np.full(m, 0.5)

    monkeypatch.setattr(simulate, "_worker_rng", lambda seed, worker: Halves())
    run = z_chain(nn4, cramer_nn4, z_tables, [1, 1], 1, seed=0, n_paths=3)
    assert nn4.support.tolist() == [[1, 0], [-1, 0], [0, 1], [0, -1]]
    assert run.paths[:, 1].tolist() == [[1, 2]] * 3


def test_z_chain_is_transient(nn4, cramer_nn4, z_tables):
    run = z_chain(nn4, cramer_nn4, z_tables, [1, 1], 200, seed=17, n_paths=400)
    diff, se = transience_indicator(run, early=20, late=200)
    assert diff > 3.0 * se


def test_z_chain_truncation_notice(nn4, cramer_nn4, ctx):
    # tiny window: long paths must hit the edge and freeze with a notice
    # (the chain samples from the V table alone, so the normalizer
    # certificate that a 14-wide window cannot meet is not needed here)
    wd = ctx.whitening
    small = build_V_tables(cramer_nn4.tilted, ctx.cone, wd.cone_image, wd.M, L=14)
    run = z_chain(nn4, cramer_nn4, small, [1, 1], 400, seed=2, n_paths=50)
    assert run.n_truncated > 0
    assert np.all(run.paths > 0)


def _z_chain_reference(law, cramer, tables, x0, n_steps, seed, n_paths):
    """z_chain as a per-step loop: each step gathers V at the paths' neighbours,
    with bounds checks, and rebuilds and normalizes their transition weights."""
    x0 = np.asarray(x0, dtype=int)
    grid = tables.grid
    support = law.support
    step_w = law.probs * np.exp(support @ cramer.h) / cramer.c
    interior = KilledKernel(grid, law).interior
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
        frozen |= (row_sums <= 0.5) & ~frozen
        u = rng.random(m)
        cdf = np.cumsum(weights / np.maximum(row_sums, 1e-300)[:, None], axis=1)
        choice = (u[:, None] > cdf).sum(axis=1)
        move = ~frozen
        pos = pos + np.where(move[:, None], support[np.minimum(choice, support.shape[0] - 1)],
                             0)
        paths[:, t] = pos
    return paths, float(row_min), float(row_max), int(frozen.sum())


@pytest.fixture(scope="module")
def small_tables(ctx, cramer_nn4):
    wd = ctx.whitening
    return build_V_tables(cramer_nn4.tilted, ctx.cone, wd.cone_image, wd.M, L=14)


@pytest.fixture(scope="module")
def diag_tables(diag_ctx):
    return diag_ctx.harmonic


@pytest.mark.parametrize("model, tables, x0, n_steps, n_paths, dtype", [
    ("ctx", "z_tables", [1, 1], 200, 300, np.int16),
    ("diag_ctx", "diag_tables", [2, 2], 200, 300, np.int16),
    ("ctx", "small_tables", [1, 1], 400, 50, np.int16),
    ("ctx", "z_tables", [1, 1], 126, 300, np.int8),
], ids=["nn4-L120", "diagonal-L96", "nn4-L14-truncating", "nn4-L120-int8"])
def test_z_chain_table_matches_per_step_loop(request, model, tables, x0, n_steps, n_paths,
                                             dtype):
    # the path record takes the narrowest type that holds |x0| + n_steps max|z|
    # and the int64 reference's values
    pipeline = request.getfixturevalue(model)
    tabs = request.getfixturevalue(tables)
    run = z_chain(pipeline.law, pipeline.cramer, tabs, x0, n_steps, seed=11,
                  n_paths=n_paths)
    paths, row_min, row_max, n_truncated = _z_chain_reference(
        pipeline.law, pipeline.cramer, tabs, x0, n_steps, 11, n_paths)
    assert run.paths.dtype == dtype
    assert np.array_equal(run.paths, paths)
    assert (run.row_sum_min, run.row_sum_max, run.n_truncated) == \
        (row_min, row_max, n_truncated)
    assert (n_truncated > 0) == (tables == "small_tables")


def test_z_chain_start_validation(nn4, cramer_nn4, z_tables):
    with pytest.raises(ConfigError, match="window"):
        z_chain(nn4, cramer_nn4, z_tables, [500, 500], 10, seed=0)


def test_z_chain_refuses_a_zero_start_and_never_divides_by_zero(quadrant):
    # every step from (1, 1) leaves the quadrant, so V(1, 1) = 0 exactly: the chain
    # cannot start there, and a chain from (2, 2) never steps into it
    law = StepLaw(support=np.array([[2, -1], [-1, 2], [-1, -1]]),
                  probs=np.array([0.25, 0.25, 0.5]))
    cramer = solve_cramer_point(law)
    wd = whiten_model(cramer, quadrant)
    tabs = build_V_tables(cramer.tilted, quadrant, wd.cone_image, wd.M, L=20)
    with pytest.raises(ConfigError, match=r"V\(\[1, 1\]\) = 0"):
        z_chain(law, cramer, tabs, [1, 1], 10, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run = z_chain(law, cramer, tabs, [2, 2], 40, seed=3, n_paths=50)
    assert not np.any(np.all(run.paths == 1, axis=-1))
    assert abs(run.row_sum_min - 1.0) <= 1e-4 and abs(run.row_sum_max - 1.0) <= 1e-4
