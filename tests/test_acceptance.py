"""Acceptance suite for the reference model: the four-step nearest-neighbour
walk with probabilities (1/8, 3/8, 1/8, 3/8) on the open positive quadrant.

Each criterion prints one pass/fail line (run with ``pytest -s`` to see them
on passing tests).  Criteria 8c and 9 compare fixed-time conditional laws
against full-support limit profiles; the reference walk has period 2, so
those conditionals occupy a single parity class and the comparisons are
blocked at total variation about 0.5 regardless of implementation.  They are
asserted exactly as stated and fail honestly; see the README for the
analysis.
"""

import time

import numpy as np
from conftest import mu_as_table

from conelab.analysis import fit_survival_series, fit_tail
from conelab.cramer import solve_cramer_point
from conelab.dp_oracle import (bridge_value, check_tilt_identity, conditional_law,
                               dp_evolve, exit_position_law, exit_time_pmf_rescaled,
                               halfspace_1d, hazard_ratio)
from conelab.harmonic import build_U_tables, build_V_tables
from conelab.simulate import is_survival, mc_survival, transience_indicator, z_chain
from conelab.spectral import tv_distance_tables
from conelab.whiten import whitening_matrix

ROOT3 = np.sqrt(3.0)
H_STAR = np.log(3.0) / 2.0
C_STAR = ROOT3 / 2.0


def _line(num, desc, ok):
    print(f"ACCEPTANCE {num:>3}: [{'PASS' if ok else 'FAIL'}] {desc}")
    return ok


def test_criterion_01_cramer_closed_form(nn4):
    t_best = np.inf
    for _ in range(5):
        t0 = time.perf_counter()
        cd = solve_cramer_point(nn4)
        t_best = min(t_best, time.perf_counter() - t0)
    ok_h = np.max(np.abs(cd.h - H_STAR)) <= 1e-10
    ok_c = abs(cd.c - C_STAR) <= 1e-12
    ok_tilt = np.max(np.abs(cd.tilted.probs - 0.25)) <= 1e-12
    ok_time = t_best < 1e-3
    ok = _line(1, f"tilt solve: |h-h*|={np.max(np.abs(cd.h - H_STAR)):.2e}, "
                  f"|c-c*|={abs(cd.c - C_STAR):.2e}, best time {t_best * 1e6:.0f}us",
               ok_h and ok_c and ok_tilt and ok_time)
    assert ok


def test_criterion_02_whitening(ctx, diag_ctx):
    wd = ctx.whitening
    checks = []
    for mode in ("general", "example2d"):
        M = whitening_matrix(wd.cov, mode=mode)
        checks.append(np.max(np.abs(M @ wd.cov @ M.T - np.eye(2))) <= 1e-10)
    checks.append(abs(wd.alpha) <= 1e-12)
    checks.append(abs(wd.p - np.pi / np.arccos(-wd.alpha)) <= 1e-12 and wd.p == 2.0)
    dw = diag_ctx.whitening
    for mode in ("general", "example2d"):
        M = whitening_matrix(dw.cov, mode=mode)
        checks.append(np.max(np.abs(M @ dw.cov @ M.T - np.eye(2))) <= 1e-10)
    checks.append(abs(dw.p - 2.0959) <= 2e-4)
    from conelab.whiten import cone_image_and_p
    openings = []
    for mode in ("general", "example2d"):
        M = whitening_matrix(dw.cov, mode=mode)
        image, _ = cone_image_and_p(ctx.cone, M)
        openings.append(image.beta)
    checks.append(abs(openings[0] - openings[1]) <= 1e-9)
    ok = _line(2, f"whitening: alpha={wd.alpha:.1e}, p={wd.p}, diag p={dw.p:.5f}, "
                  f"opening gap={abs(openings[0] - openings[1]):.1e}", all(checks))
    assert ok


def test_criterion_03_tilt_identity(nn4, quadrant, cramer_nn4):
    t0 = time.perf_counter()
    err = check_tilt_identity(nn4, cramer_nn4, quadrant, [1, 1], n_max=20)
    elapsed = time.perf_counter() - t0
    ok = _line(3, f"tilt identity: max relative defect {err:.2e} in {elapsed:.2f}s",
               err <= 1e-12 and elapsed < 1.0)
    assert ok


def test_criterion_04_dp_vs_enumeration(nn4, quadrant):
    series = dp_evolve(nn4, quadrant, [1, 1], 2, rescale_by=1.0, L=10)
    e1 = abs(series.survival[1] - 0.25)
    e2 = abs(series.survival[2] - 5.0 / 32.0)
    ok = _line(4, f"DP enumeration: |P(tau>1)-1/4|={e1:.1e}, "
                  f"|P(tau>2)-5/32|={e2:.1e}", e1 <= 1e-15 and e2 <= 1e-15)
    assert ok


def test_criterion_05_tail_fit(nn4, quadrant, cramer_nn4):
    t0 = time.perf_counter()
    series = dp_evolve(nn4, quadrant, [1, 1], 400, rescale_by=cramer_nn4.c, L=60)
    elapsed = time.perf_counter() - t0
    fit = fit_tail(series)
    ok_c = abs(fit.c_hat - C_STAR) <= 0.002
    ok_s = abs(fit.exponent_hat - 3.0) <= 0.15
    ok = _line(5, f"tail fit: c_hat err {abs(fit.c_hat - C_STAR):.2e}, exponent "
                  f"{fit.exponent_hat:.4f}, DP time {elapsed:.2f}s",
               ok_c and ok_s and elapsed < 10.0)
    assert ok


def test_criterion_06_hazard(ctx):
    measured = hazard_ratio(ctx.series, 300)
    target = 2.0 / ROOT3 - 1.0
    dev = abs(measured - target) / target
    ok = _line(6, f"hazard at 300: measured {measured:.6f} vs {target:.6f} "
                  f"({dev * 100:.2f}%)", dev <= 0.02)
    assert ok


def test_criterion_07_start_ratio(ctx):
    tabs = ctx.harmonic
    predicted = tabs.U_at([1, 1]) / tabs.U_at([2, 2])
    measured = (exit_time_pmf_rescaled(ctx.series, 300)
                / exit_time_pmf_rescaled(ctx.series_ratio_start, 300))
    dev = abs(measured - predicted) / predicted
    ok = _line(7, f"start ratio: measured {measured:.6f} vs tables {predicted:.6f} "
                  f"({dev * 100:.2f}%)", dev <= 0.02)
    assert ok


def test_criterion_08a_qsd_eigenvalue(ctx, qsd_sweep):
    lams = [qsd_sweep[L].lambda_ for L in sorted(qsd_sweep)]
    monotone = all(a <= b + 1e-12 for a, b in zip(lams, lams[1:]))
    gap = abs(qsd_sweep[60].lambda_ - ctx.cramer.c)
    ok = _line("8a", f"QSD eigenvalue: |lambda_60 - c| = {gap:.2e}, "
                     f"monotone {monotone}", gap <= 0.005 and monotone)
    assert ok


def test_criterion_08b_qsd_matches_harmonic(ctx):
    tabs = ctx.harmonic
    kU = np.zeros(tabs.grid.shape)
    kU[tabs.grid.mask] = tabs.kappa * tabs.Uprime[tabs.grid.mask]
    tv = tv_distance_tables(mu_as_table(ctx.qsd), ctx.qsd.grid, kU, tabs.grid)
    ok = _line("8b", f"QSD vs normalized harmonic table: TV = {tv:.4f}", tv <= 0.01)
    assert ok


def test_criterion_08c_yaglom_conditional(ctx):
    mu_t = mu_as_table(ctx.qsd)
    tvs = {}
    for n in (75, 300):
        cond = conditional_law(ctx.series, n)
        tvs[n] = tv_distance_tables(cond, ctx.series.grid, mu_t, ctx.qsd.grid)
    ok = _line("8c", f"Yaglom conditional: TV(300) = {tvs[300]:.4f}, "
                     f"TV(75) = {tvs[75]:.4f} (period-2 parity obstruction)",
               tvs[300] <= 0.02 and tvs[300] < tvs[75])
    assert ok, (
        "fixed-time conditionals of the period-2 reference walk live on one "
        "parity class; the QSD spans both, so TV is pinned near 0.5"
    )


def test_criterion_09_exit_law(ctx):
    from conelab._lattice import shift_add

    series = ctx.series
    measured_law, outside = exit_position_law(series, 300)
    grid = series.grid
    tabs = ctx.harmonic
    uprime = np.zeros(grid.shape)
    pts = grid.coords[grid.mask]
    uprime[grid.mask] = [tabs.value(tabs.Uprime, pt) for pt in pts]
    profile = np.zeros(grid.shape)
    for z, p in zip(ctx.law.support, ctx.law.probs):
        shift_add(profile, uprime, np.asarray(z), p)
    profile = np.where(outside, profile, 0.0)
    profile /= profile.sum()
    tv = 0.5 * float(np.abs(measured_law - profile).sum())
    ok = _line(9, f"exit law at 300: TV = {tv:.4f} vs one-step harmonic profile "
                  "(period-2 parity obstruction)", tv <= 0.02)
    assert ok, (
        "exit positions at a fixed time occupy one parity class; the "
        "harmonic profile spans both, so TV is pinned near 0.5"
    )


def test_criterion_10_bridge(ctx):
    n = 300
    z = np.array([2, 2])
    b13 = bridge_value(ctx.series, n, 1.0 / 3.0, z)
    b12 = bridge_value(ctx.series, n, 0.5, z)
    predicted = ((2.0 / 9.0) / 0.25) ** (-3.0)
    dev = abs(b13 / b12 - predicted) / predicted
    ok = _line(10, f"bridge two-time ratio: {b13 / b12:.5f} vs {predicted:.5f} "
                   f"({dev * 100:.2f}%)", dev <= 0.05)
    assert ok


def test_criterion_11_conditioned_chain(ctx, nn4):
    wd = ctx.whitening
    tabs = build_U_tables(build_V_tables(ctx.cramer.tilted, ctx.cone, wd.cone_image,
                                         wd.M, L=120), ctx.cramer.h)
    run = z_chain(nn4, ctx.cramer, tabs, [1, 1], 200, seed=ctx.params.seed,
                  n_paths=1000)
    rows_ok = run.row_sum_min >= 1.0 - 1e-4 and run.row_sum_max <= 1.0 + 1e-4
    diff, se = transience_indicator(run, early=20, late=200)
    ok = _line(11, f"conditioned chain: rows in [{run.row_sum_min:.6f}, "
                   f"{run.row_sum_max:.6f}], outward drift {diff:.2f} "
                   f"({diff / se:.0f} sigma)", rows_ok and diff > 3.0 * se)
    assert ok


def test_criterion_12_importance_sampling(ctx, nn4):
    x0, n, samples = (5, 5), 60, 1_000_000
    series = dp_evolve(nn4, ctx.cone, x0, n, rescale_by=ctx.cramer.c, L=60)
    truth = float(np.exp(series.raw_survival_log(n)))
    direct = mc_survival(nn4, ctx.cone, x0, n, samples, seed=ctx.params.seed,
                         workers=ctx.params.workers)
    tilted = is_survival(ctx.cramer, ctx.cone, x0, n, samples,
                         seed=ctx.params.seed, workers=ctx.params.workers)
    within = abs(tilted.value - truth) <= 4.0 * tilted.std_error
    gain = direct.rel_std_error / tilted.rel_std_error
    ok = _line(12, f"importance sampling at n=60: |IS-DP| = "
                   f"{abs(tilted.value - truth) / tilted.std_error:.2f} SE, "
                   f"relative-error gain {gain:.1f}x", within and gain >= 10.0)
    assert ok


def test_criterion_13_driftless_bound(ctx):
    from conelab.analysis import verify_limits

    rep = verify_limits(ctx, "driftless_bound")[0]
    ok = _line(13, f"driftless scan slope {rep.measured:+.4f} (|.| <= 0.05)",
               rep.passed)
    assert ok


def test_criterion_14_halfspace_reduction(nn4):
    series = halfspace_1d(nn4, np.array([1.0, 0.0]), 1, 400)
    fit = fit_tail(series)
    c1_star = ROOT3 / 4.0 + 0.5
    ok_e = abs(fit.exponent_hat - 1.5) <= 0.1
    ok_c = abs(series.rescale_by - c1_star) <= 0.002 and \
        abs(fit.c_hat - c1_star) <= 0.002
    ok = _line(14, f"half-space reduction: exponent {fit.exponent_hat:.4f}, "
                   f"c1 err {abs(fit.c_hat - c1_star):.2e}", ok_e and ok_c)
    assert ok


def test_criterion_15_fitter_self_test():
    errs = []
    for s in (1.5, 2.0, 3.0):
        n = np.arange(1, 401, dtype=float)
        b = np.concatenate([[1.0], 1.7 * n ** (-s)])
        fit = fit_survival_series(b, rescale_by=0.95)
        errs.append(abs(fit.exponent_hat - s))
    ok = _line(15, f"fitter self-test: max exponent error {max(errs):.2e}",
               max(errs) < 1e-3)
    assert ok
