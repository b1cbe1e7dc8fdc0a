import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from cases import padded_box_case
from conftest import scipy_csr

from conelab import _lattice, dp_oracle
from conelab._lattice import KilledKernel, grow_window, make_grid, walk_reach
from conelab.analysis import VerifyParams
from conelab.cramer import solve_cramer_point
from conelab.dp_oracle import (LEAK_TOL, bridge_value, check_tilt_identity,
                               dp_evolve, exit_position_law,
                               exit_time_pmf_rescaled, halfspace_1d, hazard_ratio,
                               survival_scan)
from conelab.errors import ConfigError, WindowTooSmallError
from conelab.model import ConeSpec, StepLaw, cone_contains, span_obstruction

ROOT3 = np.sqrt(3.0)


def enumerate_paths(law, cone, x0, n):
    """Brute-force path enumeration: survival and endpoint law at time n."""
    survival = 0.0
    endpoint = {}
    exits = {}
    for steps in itertools.product(range(len(law.probs)), repeat=n):
        pos = np.asarray(x0, dtype=int).copy()
        prob = 1.0
        alive = True
        for k in steps:
            prob *= law.probs[k]
            pos = pos + law.support[k]
            if not cone_contains(cone, pos[None, :])[0]:
                alive = False
                break
        if alive:
            survival += prob
            endpoint[tuple(pos)] = endpoint.get(tuple(pos), 0.0) + prob
        elif len(steps) == n:
            pass
    return survival, endpoint


def test_one_and_two_step_survival_exact(nn4, quadrant):
    series = dp_evolve(nn4, quadrant, [1, 1], 2, rescale_by=1.0, L=10)
    assert series.survival[1] == 0.25
    assert series.survival[2] == 5.0 / 32.0


def test_dp_matches_enumeration(nn4, quadrant):
    for n in (1, 2, 3, 4):
        target, endpoint = enumerate_paths(nn4, quadrant, [1, 1], n)
        series = dp_evolve(nn4, quadrant, [1, 1], n, rescale_by=1.0, L=12,
                           retain=[n])
        assert series.survival[n] == pytest.approx(target, abs=1e-15)
        table = series.tables[n]
        for pt, mass in endpoint.items():
            assert series.grid.value_at(table, np.array(pt)) == pytest.approx(
                mass, abs=1e-15)


def test_immediate_death(quadrant):
    law = StepLaw(support=np.array([[-2, 0], [0, -2]]), probs=np.array([0.5, 0.5]))
    series = dp_evolve(law, quadrant, [1, 1], 1, rescale_by=1.0, L=8)
    assert series.survival[1] == 0.0


def test_mass_conservation_and_monotonicity(ctx):
    series = ctx.series
    for n, table in series.tables.items():
        assert table.sum() == pytest.approx(series.survival[n], abs=1e-12)
    raw = series.survival * series.rescale_by ** np.arange(series.n_max + 1)
    assert np.all(np.diff(raw) <= 1e-15)
    assert np.all(series.survival >= 0.0)


def test_rescaled_series_stays_in_range(ctx):
    b = ctx.series.survival
    assert np.all((b > 1e-12) & (b < 1e12))


def test_dp_matches_kernel_power(nn4, quadrant):
    # independent oracle: sparse-kernel matrix power on the same window
    series = dp_evolve(nn4, quadrant, [2, 2], 6, rescale_by=1.0, L=12, retain=[6])
    kernel = scipy_csr(KilledKernel(series.grid, nn4).matrix())
    vec = np.zeros(series.grid.n_states)
    vec[series.grid.points().tolist().index([2, 2])] = 1.0
    for _ in range(6):
        vec = kernel.T @ vec
    table = np.zeros(series.grid.shape)
    table[series.grid.mask] = vec
    assert np.max(np.abs(table - series.tables[6])) < 1e-14


def test_chapman_kolmogorov(nn4, quadrant):
    # q^(m+n)(x, z) = sum_y q^(m)(x, y) q^(n)(y, z), every factor from the DP
    m, n = 3, 4
    x0 = np.array([2, 2])
    series = dp_evolve(nn4, quadrant, x0, m + n, rescale_by=1.0, L=14,
                       retain=[m, m + n])
    mid = series.tables[m]
    grid = series.grid
    targets = [np.array([1, 1]), np.array([2, 2]), np.array([3, 2])]
    totals = {tuple(z): 0.0 for z in targets}
    for y in grid.points():
        mass = grid.value_at(mid, y)
        if mass == 0.0:
            continue
        sub = dp_evolve(nn4, quadrant, y, n, rescale_by=1.0, L=14, retain=[n])
        for z in targets:
            totals[tuple(z)] += mass * sub.grid.value_at(sub.tables[n], z)
    for z in targets:
        direct = grid.value_at(series.tables[m + n], z)
        assert totals[tuple(z)] == pytest.approx(direct, abs=1e-11)


def test_time_reversal_identity(cramer_nn4, quadrant):
    # d^(n)(x, y) = sum_z d^(m)(x, z) f^(n-m)(y, z) with f the reversed walk
    tilted = cramer_nn4.tilted
    rev = tilted.reversed()
    x0, y0 = np.array([2, 3]), np.array([3, 2])
    m, n = 3, 7
    fwd = dp_evolve(tilted, quadrant, x0, n, rescale_by=1.0, L=14, retain=[m, n])
    bwd = dp_evolve(rev, quadrant, y0, n - m, rescale_by=1.0, L=14, retain=[n - m])
    acc = 0.0
    for z in fwd.grid.points():
        acc += (fwd.grid.value_at(fwd.tables[m], z)
                * bwd.grid.value_at(bwd.tables[n - m], z))
    direct = fwd.grid.value_at(fwd.tables[n], y0)
    assert acc == pytest.approx(direct, abs=1e-11)


def test_tilt_identity_hand_value(nn4, quadrant, cramer_nn4):
    # one-step check: P(tau > 1) = c * (1/4) * (e^{-h1} + e^{-h2}) = 1/4;
    # the solved tilt point carries its gradient residual into the value
    c, h = cramer_nn4.c, cramer_nn4.h
    value = c * 0.25 * (np.exp(-h[0]) + np.exp(-h[1]))
    assert value == pytest.approx(0.25, abs=1e-13)


def test_tilt_identity_full(nn4, quadrant, cramer_nn4):
    err = check_tilt_identity(nn4, cramer_nn4, quadrant, [1, 1], n_max=20)
    assert err <= 1e-12


def test_tilt_identity_rejects_long_horizon(nn4, quadrant, cramer_nn4):
    with pytest.raises(ConfigError):
        check_tilt_identity(nn4, cramer_nn4, quadrant, [1, 1], n_max=60)


def test_exit_law_one_step(nn4, quadrant):
    series = dp_evolve(nn4, quadrant, [1, 1], 1, rescale_by=1.0, L=8, retain=[0])
    law, outside = exit_position_law(series, 1)
    grid = series.grid
    assert grid.value_at(law, np.array([0, 1])) == pytest.approx(0.5, abs=1e-15)
    assert grid.value_at(law, np.array([1, 0])) == pytest.approx(0.5, abs=1e-15)
    assert law.sum() == pytest.approx(1.0, abs=1e-15)


def test_exit_mass_matches_pmf(ctx):
    series = ctx.series
    n = ctx.params.n_hi
    q = series.tables[n - 1]
    grid = series.grid
    full = KilledKernel(grid, series.law).push(q)
    outside = ~cone_contains(ctx.cone, grid.coords.reshape(-1, 2)).reshape(grid.shape)
    exit_total = full[outside].sum()
    # the collected exit mass carries one less rescaling than the pmf
    expected = exit_time_pmf_rescaled(series, n) * series.rescale_by
    assert exit_total == pytest.approx(expected, rel=1e-12)


def test_bridge_two_step_enumeration(nn4, quadrant):
    series = dp_evolve(nn4, quadrant, [1, 1], 2, rescale_by=1.0, L=8,
                       retain=[1, 2])
    z = np.array([2, 2])
    value = bridge_value(series, 2, 0.5, z)
    # only two surviving 2-step paths reach (2, 2), none through (1, 1)
    assert value == 0.0


def test_hazard_limit(ctx):
    measured = hazard_ratio(ctx.series, 300)
    assert measured == pytest.approx(2.0 / ROOT3 - 1.0, rel=0.02)


@pytest.mark.parametrize("L, n_max", [(10, 200), (4, 4)], ids=["grows", "reach-cap"])
def test_window_monitor_grows(quadrant, cramer_nn4, L, n_max):
    law, x0 = cramer_nn4.tilted, [1, 1]
    series = dp_evolve(law, quadrant, x0, n_max, rescale_by=1.0, L=L, retain=[n_max])
    assert L < series.L <= walk_reach(np.array(x0), n_max, law) + 1
    assert series.leak_max < LEAK_TOL
    fresh = dp_evolve(law, quadrant, x0, n_max, rescale_by=1.0, L=series.L,
                      retain=[n_max])
    assert fresh.L == series.L
    assert np.array_equal(series.survival, fresh.survival)
    assert np.array_equal(series.tables[n_max], fresh.tables[n_max])


def test_octant_window_grows_to_42(octant_law):
    # from L = 20 the leak monitor restarts twice (20 -> 29 -> 42), and the
    # result is a fresh run at the final window
    octant, x0 = ConeSpec.orthant(3), [1, 1, 1]
    series = dp_evolve(octant_law, octant, x0, 200, rescale_by=ROOT3 / 2.0, L=20,
                       retain=[100, 200])
    assert series.L == 42 and series.leak_max < LEAK_TOL
    fresh = dp_evolve(octant_law, octant, x0, 200, rescale_by=ROOT3 / 2.0, L=42,
                      retain=[100, 200])
    assert fresh.L == 42
    assert np.array_equal(series.survival, fresh.survival)
    for n in (100, 200):
        assert np.array_equal(series.tables[n], fresh.tables[n])
    assert series.survival[100] == pytest.approx(5.591829575462262e-06, rel=1e-12)
    assert series.survival[200] == pytest.approx(3.5348857867363805e-07, rel=1e-12)


def test_failed_window_is_freed_before_the_next(diagonal_law, quadrant, monkeypatch):
    # diagonal's DP from L = 72, retaining verify's tables, leaks at step 284 and is
    # rebuilt at 102; the 72 window and its four tables are gone by then, so the run
    # peaks as a fresh one at 102 does (holding the failed window would add 44%)
    c = solve_cramer_point(diagonal_law).c
    errors = []

    def recording(build, L):
        def build_recording(L):
            try:
                return build(L)
            except WindowTooSmallError as exc:
                errors.append((str(exc), exc.suggested_L))
                raise
        return grow_window(build_recording, L)

    def peak(L):
        tracemalloc.start()
        try:
            series = dp_evolve(diagonal_law, quadrant, [1, 1], 400, rescale_by=c, L=L,
                               retain=VerifyParams().retained_times())
            return series.L, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    fresh_L, fresh = peak(102)
    monkeypatch.setattr(dp_oracle, "grow_window", recording)
    grown_L, grown = peak(72)
    assert fresh_L == grown_L == 102 and grown <= 1.01 * fresh
    assert errors == [("DP window L = 72 leaks 1.04e-12 of the survival at step 284", 102)]


def test_dp_window_growth_fits_the_budget(octant_law, monkeypatch):
    # from L = 20 the ladder builds 22^3, 31^3 and 44^3 boxes, at 8 (7 + 3 + 2) = 96
    # bytes a cell with two tables retained: a budget of exactly the last still grows
    # to L = 42, one byte less caps the last rung at the 43^3 box (L = 41), and a
    # budget of 31^3 cells stops at L = 29, naming the budget
    octant, shapes = ConeSpec.orthant(3), []

    def recording(*args):
        grid = make_grid(*args)
        shapes.append(grid.shape[0])
        return grid

    def grown(budget):
        shapes.clear()
        monkeypatch.setattr(_lattice, "MAX_BYTES", budget)
        return dp_evolve(octant_law, octant, [1, 1, 1], 200, rescale_by=ROOT3 / 2.0, L=20,
                         retain=[100, 200]).L

    monkeypatch.setattr(dp_oracle, "make_grid", recording)
    assert grown(96 * 44 ** 3) == 42 and shapes == [22, 31, 44]
    assert grown(96 * 44 ** 3 - 1) == 41 and shapes == [22, 31, 43]
    with pytest.raises(WindowTooSmallError, match=r"^DP window L = 29 leaks 1\.08e-12 of the "
                       r"survival at step 97; no larger window fits .* budget$") as err:
        grown(96 * 31 ** 3)
    assert err.value.suggested_L is None and shapes == [22, 31]
    with pytest.raises(ConfigError, match="DP window L = 20 is past L = 18, the largest"):
        grown(96 * 20 ** 3)
    assert shapes == []


@pytest.mark.parametrize("seed", [*range(20), "tilt-defect-law"])
def test_random_spanning_laws_tilt_identity_and_leak(seed):
    # over laws whose steps positively span R^d a series grown from a small
    # window certifies its leak, and the tilt identity holds to roundoff
    # relative to the rescaled tables, which reach the hundreds on some laws
    if seed == "tilt-defect-law":   # 2.56e-12 absolute once failed a fixed bound
        law, cone = StepLaw(support=np.array([[0, -1], [0, 1], [-1, 0], [1, 2]]),
                            probs=np.array([1 / 8, 1 / 4, 1 / 8, 1 / 2])), ConeSpec.orthant(2)
    else:
        law, cone, _ = padded_box_case(seed, keep=lambda law, cone, L: (
            span_obstruction(law) is None and np.linalg.norm(law.mean()) > 1e-9
            and (cone.kind != "halfspace" or law.dim == 2)))   # a d = 3 half-space box is large
    cramer = solve_cramer_point(law)
    x0 = make_grid(cone, 2, law).points()[0]
    series = dp_evolve(law, cone, x0, 20, rescale_by=cramer.c, L=3, retain=range(21))
    assert series.leak_max < LEAK_TOL
    assert 3 <= series.L <= walk_reach(x0, 20, law) + 1
    assert check_tilt_identity(law, cramer, cone, x0, n_max=20) <= 1e-12


def quadrant_paths(n, x, y, comb):
    """Paths of the simple walk (steps +-e_i) from x to y in n steps that stay in the
    open quadrant, by reflection: u = y1 + y2 and v = y1 - y2 walk independently,
    and ``comb[k]`` is C(n, k)."""
    total = 0
    for e1, e2 in itertools.product((1, -1), repeat=2):
        d1, d2 = e1 * y[0] - x[0], e2 * y[1] - x[1]
        a, b = d1 + d2, d1 - d2
        if (n + a) % 2 == 0 and abs(a) <= n and abs(b) <= n:
            total += e1 * e2 * comb[(n + a) // 2] * comb[(n + b) // 2]
    return total


def nn4_table(n, x, y, comb):
    """nn4's rescaled table at y: its tilted law is the simple walk, so it is exactly
    e^(-h.(y - x)) N_n(x, y) / 4^n with h = (ln 3 / 2)(1, 1)."""
    return 3.0 ** (-(y[0] + y[1] - x[0] - x[1]) / 2) * (quadrant_paths(n, x, y, comb) / 4 ** n)


def test_dp_matches_exact_nn4_counts_at_n_hi(series_nn4):
    # the shipped series' rescaled table at n_hi, on and beyond its L = 60 window.
    # leak_max is the largest one-step leak, not a bound on the mass beyond the
    # window: that mass lies below it here only because the steps after n_hi, up
    # to the shipped n_max = 400, leak more
    series, n, x = series_nn4, 300, (1, 1)
    assert series.L == 60 and series.x0.tolist() == list(x)
    comb = [math.comb(n, k) for k in range(n + 1)]
    grid = series.grid
    on_window = np.array([nn4_table(n, x, y, comb) for y in grid.points()])
    off_window = math.fsum(nn4_table(n, x, y, comb) for s in range(2, n + 3, 2) for y in
                           ((y1, s - y1) for y1 in range(1, s)) if not grid.contains(y))
    survival = math.fsum(on_window) + off_window
    assert abs(series.survival[n] - survival) <= 1e-12 * survival
    assert np.abs(series.tables[n][grid.mask] - on_window).sum() <= 1e-12 * survival
    assert off_window / survival <= series.leak_max


def test_dp_exit_pmf_and_hazard_match_exact_nn4_counts(series_nn4, cramer_nn4):
    # a walk leaves the quadrant at n from y1 = 1 by -e1 or from y2 = 1 by -e2, each
    # at 3/8, so the rescaled exit mass is sum q_{n-1}(y) (3/8) / c over each edge
    # of the window; the corner (1, 1) lies on both and is counted twice
    series, x, c = series_nn4, (1, 1), cramer_nn4.c
    edges = [y for y in series.grid.points().tolist() if 1 in y]
    corner = edges.index([1, 1])

    def exact_pmf(n):
        comb = [math.comb(n - 1, k) for k in range(n)]
        mass = [nn4_table(n - 1, x, y, comb) for y in edges]
        return math.fsum(mass + [mass[corner]]) * (3 / 8) / c

    for n in (299, 300, 301):
        pmf = exact_pmf(n)
        assert abs(exit_time_pmf_rescaled(series, n) - pmf) <= 1e-12 * pmf
    comb = [math.comb(300, k) for k in range(301)]
    survival = math.fsum(nn4_table(300, x, y, comb) for y in series.grid.points().tolist())
    assert abs(hazard_ratio(series, 300) - exact_pmf(300) / survival) <= 1e-12 * (
        exact_pmf(300) / survival)


def test_exit_pmf_is_exactly_zero_where_the_period_blocks_exits(diag_ctx):
    # each diagonal step flips the parity of both coordinates, and a walk leaves the
    # quadrant by landing on a zero coordinate: from (1, 1) only at odd n, from
    # (2, 2) only at even n.  The exit mass is recorded, not read off the survival
    # as S_{n-1}/c - S_n, which leaves up to 6.9e-18 and 5.6e-17 at those times
    for series, start, blocked in ((diag_ctx.series, [1, 1], 0),
                                   (diag_ctx.series_ratio_start, [2, 2], 1)):
        assert series.x0.tolist() == start
        n = np.arange(1, series.n_max + 1)
        pmf = exit_time_pmf_rescaled(series, n)
        assert np.all(pmf[n % 2 == blocked] == 0.0)
        assert np.all(pmf[(n % 2 != blocked) & (n > 2)] > 0.0)


def test_exit_pmf_matches_the_survival_drop_where_it_is_positive(ctx, diag_ctx, octant_law):
    # the survival's one-step drop is the exit mass plus the step's leak, which
    # lies far below 1e-14 of the exit mass on these windows
    octant = [dp_evolve(octant_law, ConeSpec.orthant(3), x0, 120, rescale_by=ROOT3 / 2.0,
                        L=42) for x0 in ([1, 1, 1], [2, 2, 2])]
    for series in (ctx.series, ctx.series_ratio_start, diag_ctx.series,
                   diag_ctx.series_ratio_start, *octant):
        n = np.arange(1, series.n_max + 1)
        pmf = exit_time_pmf_rescaled(series, n)
        drop = series.survival[n - 1] / series.rescale_by - series.survival[n]
        on = pmf > 0.0
        assert on.sum() >= series.n_max // 2 - 1
        assert np.all(np.abs(pmf[on] - drop[on]) <= 1e-14 * pmf[on]), series.x0


def test_raw_survival_log_of_all_times_equals_the_per_time_values(series_nn4):
    n = np.arange(series_nn4.n_max + 1)
    assert series_nn4.raw_survival_log(n).tolist() == [series_nn4.raw_survival_log(k)
                                                       for k in range(series_nn4.n_max + 1)]


def test_dp_matches_exact_nn4_counts_at_the_wide_horizon(nn4, quadrant, cramer_nn4, wide):
    # the benchmark's wide series, run from (1, 1), at its n_hi = 1200: the window
    # sums alone, as the exact mass beyond the L = 120 window needs ~1.4M cells
    n, x = wide["n_hi"], (1, 1)
    series = dp_evolve(nn4, quadrant, x, wide["n_max"], rescale_by=cramer_nn4.c,
                       L=wide["dp_window"], retain=[n])
    assert series.L == 120
    comb = [math.comb(n, k) for k in range(n + 1)]
    grid = series.grid
    on_window = np.array([nn4_table(n, x, y, comb) for y in grid.points().tolist()])
    survival = math.fsum(on_window)
    assert abs(series.survival[n] - survival) <= 1e-12 * survival
    assert np.abs(series.tables[n][grid.mask] - on_window).sum() <= 1e-12 * survival


def octant_counts(n, x):
    """y -> N_n(x, y), the paths of the simple walk (steps +-e_i) from x to y in n
    steps that stay in the open octant.  By reflection N_n = sum over eps in
    {+-1}^3 of eps1 eps2 eps3 W_n(eps o y - x), with W_n(d) = sum_m C(n, m)
    C(m, (m + d1 + d2) / 2) C(m, (m + d1 - d2) / 2) C(n - m, (n - m + d3) / 2): m
    steps in the (1, 2)-plane, the rest along e3.  The sign splits as eps1 eps2
    times eps3, so the sum runs over m of C(n, m), the reflected plane count and
    the reflected line count, in exact integers."""
    comb = [[math.comb(m, k) for k in range(m + 1)] for m in range(n + 1)]

    def free(m, s):                 # C(m, (m + s) / 2): m +-1 steps summing to s
        return comb[m][(m + s) // 2] if abs(s) <= m and (m + s) % 2 == 0 else 0

    @functools.cache
    def plane(m, y1, y2):
        return sum(e1 * e2 * free(m, e1 * y1 - x[0] + e2 * y2 - x[1])
                   * free(m, e1 * y1 - x[0] - e2 * y2 + x[1])
                   for e1, e2 in itertools.product((1, -1), repeat=2))

    def count(y):
        if sum(y) - sum(x) > n or (sum(y) - sum(x) - n) % 2:
            return 0                # out of reach, or the wrong parity
        return sum(comb[n][m] * plane(m, y[0], y[1])
                   * (free(n - m, y[2] - x[2]) - free(n - m, -y[2] - x[2]))
                   for m in range(n + 1))
    return count


def test_octant_dp_matches_exact_counts(octant_law):
    # the octant walk's tilted law is the simple walk at 1/6 a step, with
    # h = (ln 3 / 2)(1, 1, 1) and c = sqrt(3)/2, so its rescaled table at n is
    # exactly e^(-h.(y - x)) N_n(x, y) / 6^n; at the walk's reach nothing leaks
    n, x = 30, (1, 1, 1)
    cramer = solve_cramer_point(octant_law)
    series = dp_evolve(octant_law, ConeSpec.orthant(3), x, n, rescale_by=cramer.c,
                       L=walk_reach(np.array(x), n, octant_law) + 1, retain=[n])
    count = octant_counts(n, x)
    exact = np.array([3.0 ** (-(sum(y) - sum(x)) / 2) * (count(y) / 6 ** n)
                      for y in series.grid.points().tolist()])
    survival = math.fsum(exact)
    assert series.leak_max == 0.0
    assert abs(series.survival[n] - survival) <= 1e-12 * survival
    assert np.abs(series.tables[n][series.grid.mask] - exact).sum() <= 1e-12 * survival


def test_start_validation(nn4, quadrant):
    with pytest.raises(ConfigError, match="cone"):
        dp_evolve(nn4, quadrant, [0, 1], 5)
    # L is only a starting size: a start past it sizes the first window, and the
    # run equals one configured at its final window
    series = dp_evolve(nn4, quadrant, [1, 70], 20, L=60, retain=[20])
    assert series.L >= 70 and series.grid.contains([1, 70])
    fresh = dp_evolve(nn4, quadrant, [1, 70], 20, L=series.L, retain=[20])
    assert fresh.L == series.L
    for field in ("survival", "exit_mass"):
        assert np.array_equal(getattr(series, field), getattr(fresh, field))
    assert np.array_equal(series.tables[20], fresh.tables[20])


def test_far_start_skips_its_edge_window(nn4, quadrant, cramer_nn4, monkeypatch):
    # (70, 70) at L = 60 would sit on the edge of the window 70 and leak at step 1,
    # so the run starts on the ladder's next rung, ceil(1.4 * 70) + 1 = 99, and
    # builds no other window
    windows, retain = [], VerifyParams().retained_times()

    def recording(*args):
        windows.append(args[1])
        return make_grid(*args)

    def run(L):
        return dp_evolve(nn4, quadrant, [70, 70], 400, rescale_by=cramer_nn4.c, L=L,
                         retain=retain)

    monkeypatch.setattr(dp_oracle, "make_grid", recording)
    series = run(60)
    assert windows == [99] and series.L == 99
    fresh = run(99)
    assert windows == [99, 99] and fresh.L == 99
    for field in ("survival", "exit_mass"):
        assert np.array_equal(getattr(series, field), getattr(fresh, field))
    for n in retain:
        assert np.array_equal(series.tables[n], fresh.tables[n])


@pytest.mark.parametrize("walk, cone, starts", [
    ("nn4", ConeSpec.orthant(2), [(1, 1), (3, 2), (5, 5)]),
    ("nn4", ConeSpec.wedge2d(0.75 * np.pi, 0.3), [(1, 1), (-1, 3), (4, 2)]),
    ("octant_law", ConeSpec.orthant(3), [(1, 1, 1), (3, 2, 1), (4, 4, 4)]),
], ids=["quadrant", "wedge", "octant"])
def test_survival_scan_matches_forward_dp(request, walk, cone, starts):
    # the wedge's box is centred on the origin; each forward run's window is the
    # sure reach, so nothing leaks from it
    law = solve_cramer_point(request.getfixturevalue(walk)).tilted
    scan = survival_scan(law, cone, starts, 40)
    for row, x0 in zip(scan, starts):
        fwd = dp_evolve(law, cone, x0, 40, rescale_by=1.0, L=walk_reach(x0, 40, law) + 1)
        assert np.max(np.abs(row - fwd.survival)) < 1e-12


def test_scan_start_off_the_cone_names_it(cramer_nn4):
    with pytest.raises(ConfigError, match=r"start \[5, 1\] lies outside the open wedge2d "
                       "cone"):
        survival_scan(cramer_nn4.tilted, ConeSpec.wedge2d(0.75 * np.pi, 0.3),
                      [(1, 1), (5, 1)], 10)


# (law fixture, or the cone kind, d and seed of a padded_box_case law, horizon); the
# horizons are long enough that the bound at 1e-2 cuts below the sure reach
ESCAPE_CASES = [("nn4", 40), ("diagonal_law", 40), ("octant_law", 16), (("orthant", 2, 0), 30),
                (("orthant", 3, 0), 20), (("wedge2d", 2, 0), 30), (("halfspace", 2, 0), 30),
                (("halfspace", 3, 1), 20)]


@pytest.mark.parametrize("walk, n", ESCAPE_CASES, ids=lambda v: "-".join(map(str, v))
                         if isinstance(v, tuple) else str(v))
def test_scan_truncates_at_most_the_escape_bound(request, walk, n, monkeypatch):
    # the scan on walk_reach's window at tol against the scan on the sure reach,
    # which no walk leaves: each survival drops by at most tol, at every start and time
    if isinstance(walk, str):
        law = request.getfixturevalue(walk)
        cone = ConeSpec.orthant(law.dim)
    else:
        law, cone, _ = padded_box_case(walk[2], keep=lambda law, cone, L: (
            (cone.kind, law.dim) == walk[:2]))
    pts = make_grid(cone, 3, law).points()
    starts = pts[[0, len(pts) // 2, -1]]
    monkeypatch.setattr(dp_oracle, "LEAK_TOL", 0.0)
    exact = survival_scan(law, cone, starts, n)
    assert walk_reach(starts, n, law, 1e-2) < walk_reach(starts, n, law)  # the bound bites
    for tol in (0.5, 1e-2, 1e-6, 1e-12):
        monkeypatch.setattr(dp_oracle, "LEAK_TOL", tol)
        lost = exact - survival_scan(law, cone, starts, n)
        assert np.all(lost <= tol) and np.all(lost >= -1e-15)


def test_halfspace_projection(nn4):
    series = halfspace_1d(nn4, np.array([1.0, 0.0]), 1, 50)
    assert series.rescale_by == pytest.approx(ROOT3 / 4.0 + 0.5, abs=1e-14)
    assert series.survival[1] * series.rescale_by == pytest.approx(5.0 / 8.0,
                                                                   abs=1e-15)
    # projected law is {+1: 1/8, -1: 3/8, 0: 1/2}
    law = series.law
    got = {int(z[0]): p for z, p in zip(law.support, law.probs)}
    assert got == {1: pytest.approx(1 / 8), -1: pytest.approx(3 / 8),
                   0: pytest.approx(1 / 2)}


def test_halfspace_rejects_bad_projections(nn4):
    with pytest.raises(ConfigError, match="integer"):
        halfspace_1d(nn4, np.array([0.5, 0.0]), 1, 50)
    with pytest.raises(ConfigError, match="negative"):
        halfspace_1d(nn4, np.array([-1.0, 0.0]), 1, 50)


def test_raw_survival_log(ctx):
    series = ctx.series
    n = 300
    log_p = series.raw_survival_log(n)
    assert log_p == pytest.approx(n * np.log(series.rescale_by)
                                  + np.log(series.survival[n]), rel=1e-15)
