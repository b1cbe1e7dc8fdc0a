import numpy as np
import pytest

from conelab.analysis import (SELECTORS, PipelineContext, _report, fit_survival_series,
                              fit_tail, verify_all, verify_limits)
from conelab.dp_oracle import dp_evolve, halfspace_1d, hazard_ratio
from conelab.errors import ConfigError
from conelab.model import StepLaw

ROOT3 = np.sqrt(3.0)


@pytest.mark.parametrize("s", [1.5, 2.0, 3.0])
def test_synthetic_exponent_recovery(s):
    n = np.arange(1, 401, dtype=float)
    b = np.concatenate([[1.0], 2.7 * n ** (-s)])
    fit = fit_survival_series(b, rescale_by=0.9)
    assert abs(fit.exponent_hat - s) < 1e-3
    assert abs(fit.c_hat - 0.9) < 1e-6


def test_reference_tail_fit(ctx):
    fit = fit_tail(ctx.series)
    assert abs(fit.c_hat - ROOT3 / 2.0) <= 0.002
    assert abs(fit.exponent_hat - 3.0) <= 0.15
    assert 0.0 < fit.c_hat < 1.0
    assert fit.exponent_hat > 0.0
    assert fit.constant_hat > 0.0


def test_driftless_tail_fit(ctx):
    fit = fit_survival_series(ctx.driftless_scan[0], rescale_by=1.0)
    assert abs(fit.exponent_hat - 1.0) <= 0.1


def test_halfspace_tail_fit(nn4):
    series = halfspace_1d(nn4, np.array([1.0, 0.0]), 1, 400)
    fit = fit_tail(series)
    assert abs(fit.exponent_hat - 1.5) <= 0.1
    assert abs(fit.c_hat - (ROOT3 / 4.0 + 0.5)) <= 0.002


def test_fit_requires_rescaled_for_drifted(nn4, quadrant):
    from conelab.dp_oracle import dp_evolve
    raw = dp_evolve(nn4, quadrant, [1, 1], 40, rescale_by=1.0, L=30)
    with pytest.raises(ConfigError, match="rescaled"):
        fit_tail(raw)


def test_fit_rejects_short_series():
    with pytest.raises(ConfigError, match="short"):
        fit_survival_series(np.ones(20))


def test_selector_names_and_dispatch(ctx):
    with pytest.raises(ConfigError, match="unknown selector"):
        verify_limits(ctx, "plateau")
    reports = verify_limits(ctx, "hazard")
    assert len(reports) == 1
    assert reports[0].check == "hazard.limit"


def test_verify_all_runs_every_selector_once(ctx):
    reports = verify_all(ctx)
    prefixes = {r.check.split(".")[0] for r in reports}
    assert prefixes == set(SELECTORS)
    assert len(reports) == 11


def test_reports_reproducible(ctx):
    a = verify_all(ctx)
    b = verify_all(ctx)
    for ra, rb in zip(a, b):
        assert ra.check == rb.check
        assert ra.measured == rb.measured
        assert ra.deviation == rb.deviation


def test_report_invariant_pass_iff_within_tolerance(ctx):
    for r in verify_all(ctx):
        assert r.passed == (r.deviation <= r.tolerance)


@pytest.mark.parametrize("predicted, measured, deviation", [
    (1.0, np.inf, -np.inf), (np.nan, 0.0, -1.0), (1.0, -np.inf, None)])
def test_report_never_passes_a_non_finite_row(predicted, measured, deviation):
    row = _report("row", predicted, measured, 0.0, kind="signed", deviation=deviation)
    assert not row.passed


def test_ratio_checks_pass(ctx):
    by_name = {r.check: r for r in verify_all(ctx)}
    assert by_name["survival_tail.flatness"].passed
    assert by_name["survival_tail.plateau_ratio"].passed
    assert by_name["start_ratio.exit_pmf"].passed
    assert by_name["hazard.limit"].passed
    assert by_name["bridge.two_time_ratio"].passed
    assert by_name["exp_moment.convergent_at_critical"].passed
    assert by_name["exp_moment.divergent_above_critical"].passed
    assert by_name["driftless_bound.scan_slope"].passed
    # the off-class mass is constant, so the residual O(1/n) part still shrinks
    assert by_name["yaglom.tv_improves"].passed


def test_sublattice_law_gets_a_note(diag_ctx):
    # diagonal steps preserve coordinate-sum parity: the walk is confined to
    # the even sublattice, of index 2
    assert diag_ctx.report.sublattice_index == 2
    note, = diag_ctx.parity_notes
    assert "sublattice of index 2" in note


def test_parity_blocked_distributional_checks(ctx, tables_nn4):
    """The reference walk has period 2, so its fixed-time conditionals live on
    one parity class; the total-variation limits against the full-support
    profile are therefore bounded away from zero by the off-class mass."""
    by_name = {r.check: r for r in verify_all(ctx)}
    yag = by_name["yaglom.tv"]
    exi = by_name["exit_law.tv"]
    assert not yag.passed
    assert not exi.passed
    assert any("period" in note for note in yag.notes)
    assert any("period" in note for note in exi.notes)
    # independent prediction of the obstruction size: the off-class mass of
    # the normalized harmonic profile
    grid = tables_nn4.grid
    pts = grid.points()
    mu = tables_nn4.kappa * tables_nn4.Uprime[grid.mask]
    odd = (pts.sum(axis=1) % 2) == 1
    assert yag.measured == pytest.approx(mu[odd].sum(), abs=0.01)


@pytest.mark.parametrize("family", ["ctx", "diag_ctx"])
def test_ratio_start_series_stops_at_n_hi(request, family):
    """The ratio-start series is read at n_hi only, so it is evolved no further: on its
    window it equals a run to n_max up to n_hi, and so do the two rows that read it."""
    ctx = request.getfixturevalue(family)
    prm, short = ctx.params, ctx.series_ratio_start
    assert short.n_max == prm.n_hi < prm.n_max
    full = dp_evolve(ctx.law, ctx.cone, short.x0, prm.n_max, rescale_by=ctx.cramer.c,
                     L=prm.dp_window)
    assert full.L == short.L
    assert np.array_equal(full.survival[:prm.n_hi + 1], short.survival)
    assert np.array_equal(full.exit_mass[:prm.n_hi + 1], short.exit_mass)
    rerun = PipelineContext(ctx.law, ctx.cone, prm)
    for name in ("cramer", "whitening", "harmonic", "series"):
        rerun.__dict__[name] = getattr(ctx, name)
    rerun.__dict__["series_ratio_start"] = full

    def rows(context):
        return [(r.check, r.measured, r.passed, r.notes)
                for selector in ("survival_tail", "start_ratio")
                for r in verify_limits(context, selector)]

    assert rows(rerun) == rows(ctx)


def test_scale_invariance_of_normalized_checks(ctx, nn4, quadrant):
    """Scaling V and V' leaves every ratio- or TV-based check unchanged."""
    import copy

    reports = verify_all(ctx)
    scaled_ctx = PipelineContext(nn4, quadrant, ctx.params)
    scaled_ctx.__dict__["cramer"] = ctx.cramer
    scaled_ctx.__dict__["whitening"] = ctx.whitening
    scaled_ctx.__dict__["series"] = ctx.series
    scaled_ctx.__dict__["series_ratio_start"] = ctx.series_ratio_start
    scaled_ctx.__dict__["driftless_scan"] = ctx.driftless_scan
    tabs = copy.copy(ctx.harmonic)
    tabs.V = 7.0 * ctx.harmonic.V
    tabs.Vprime = 3.0 * ctx.harmonic.Vprime
    tabs.U = 7.0 * ctx.harmonic.U
    tabs.Uprime = 3.0 * ctx.harmonic.Uprime
    tabs.kappa = ctx.harmonic.kappa / 3.0
    scaled_ctx.__dict__["harmonic"] = tabs
    for ra, rb in zip(reports, verify_all(scaled_ctx)):
        if ra.check.startswith("yaglom") or "ratio" in ra.check \
                or ra.check.startswith("exit"):
            assert rb.measured == pytest.approx(ra.measured, rel=1e-9)


def test_exponent_uses_fitted_p_when_open(ctx):
    assert ctx.exponent == pytest.approx(3.0, abs=1e-12)


def test_diagonal_note_names_period_two(diag_ctx):
    # every diagonal step flips the parity of x2 (and of x1)
    note, = diag_ctx.parity_notes
    assert "period 2" in note


def test_hazard_names_a_structural_zero(ctx, diag_ctx):
    # from (1, 1) the diagonal walk leaves the quadrant only at odd times, so its
    # exit pmf at n_hi = 300 is exactly 0 and the row reads 0 with a note
    row, = verify_limits(diag_ctx, "hazard")
    assert (row.measured, row.deviation, row.passed) == (0.0, 1.0, False)
    assert len(row.notes) == 1 and row.notes[0].startswith("structural, not numerical")
    assert "period 2" in row.notes[0]
    row, = verify_limits(ctx, "hazard")
    assert row.measured == hazard_ratio(ctx.series, 300)
    assert row.passed and row.notes == []


def test_period_three_note(quadrant):
    law = StepLaw(support=np.array([[1, 0], [0, 1], [-1, -1]]),
                  probs=np.array([1 / 4, 1 / 4, 1 / 2]))
    note, = PipelineContext(law, quadrant).parity_notes
    assert "period 3" in note
