import numpy as np
import pytest

from conelab.errors import ConfigError, WindowTooSmallError
from conelab.harmonic import (ContinuousHarmonic, build_U_tables, build_V_tables,
                              u_eval_many,
                              c_harmonicity_residual, continuous_harmonic_for,
                              qsd_fixed_point_residual, tables_rows, u_eval)


def fd_laplacian(ch, x, step=1e-3):
    """Five-point finite-difference Laplacian, the independent harmonicity oracle."""
    x = np.asarray(x, dtype=float)
    total = -2.0 * len(x) * u_eval(ch, x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = step
        total += u_eval(ch, x + e) + u_eval(ch, x - e)
    return total / step ** 2


def test_product_form():
    ch = ContinuousHarmonic(kind="orthant_product", p=2.0)
    assert u_eval(ch, [2.0, 3.0]) == 6.0
    assert u_eval(ch, [2.0, 0.0]) == 0.0


def test_wedge_closed_form():
    ch = ContinuousHarmonic(kind="wedge2d", p=2.0, theta1=0.0)
    x = np.array([np.cos(np.pi / 4.0), np.sin(np.pi / 4.0)])
    assert u_eval(ch, x) == pytest.approx(1.0, abs=1e-15)
    assert u_eval(ch, [1.0, 0.0]) == 0.0
    assert u_eval(ch, [0.0, 1.0]) == pytest.approx(0.0, abs=1e-15)


def test_halfline_form():
    ch = ContinuousHarmonic(kind="halfline", p=1.0)
    assert u_eval(ch, [3.5]) == 3.5
    assert u_eval(ch, [0.0]) == 0.0


@pytest.mark.parametrize("ch,points", [
    (ContinuousHarmonic(kind="orthant_product", p=2.0), [[1.0, 2.0], [3.0, 0.5]]),
    (ContinuousHarmonic(kind="wedge2d", p=2.0959, theta1=0.1),
     [[1.0, 1.0], [0.5, 1.5]]),
])
def test_homogeneity(ch, points):
    for x in points:
        base = u_eval(ch, x)
        for lam in (2.0, 3.0):
            assert u_eval(ch, lam * np.asarray(x)) == pytest.approx(
                lam ** ch.p * base, rel=1e-10)


@pytest.mark.parametrize("ch,x", [
    (ContinuousHarmonic(kind="orthant_product", p=2.0), [1.5, 2.5]),
    (ContinuousHarmonic(kind="wedge2d", p=2.0959, theta1=0.05), [2.0, 1.5]),
    (ContinuousHarmonic(kind="wedge2d", p=1.3, theta1=0.3), [1.0, 2.0]),
])
def test_harmonicity_by_finite_differences(ch, x):
    scale = u_eval(ch, x)
    assert abs(fd_laplacian(ch, x)) <= 1e-6 * max(scale, 1.0)


def test_domain_error_outside():
    ch = ContinuousHarmonic(kind="orthant_product", p=2.0)
    with pytest.raises(ConfigError, match="outside"):
        u_eval(ch, [-1.0, 2.0])
    chw = ContinuousHarmonic(kind="wedge2d", p=2.0, theta1=0.0)
    with pytest.raises(ConfigError, match="outside"):
        u_eval(chw, [1.0, -0.5])


def test_reference_tables_reproduce_product(ctx, tables_nn4):
    # the product form is exactly harmonic for the whitened reference walk,
    # so the solve returns it bit-for-bit: V(y) = (sqrt2 y1)(sqrt2 y2)
    tabs = tables_nn4
    for y in ([1, 1], [3, 5], [10, 2], [20, 20]):
        expected = 2.0 * y[0] * y[1]
        assert tabs.value(tabs.V, y) == pytest.approx(expected, rel=1e-10)
        assert tabs.value(tabs.Vprime, y) == pytest.approx(expected, rel=1e-10)
    assert tabs.convergence_residual <= 1e-6


def test_far_field_ratio_approaches_one(tables_nn4):
    M = tables_nn4.M
    ratios = []
    for k in (5, 10, 20, 30):
        hat = M @ np.array([k, k], dtype=float)
        ratios.append(tables_nn4.value(tables_nn4.V, [k, k]) / (hat[0] * hat[1]))
    assert abs(ratios[-1] - 1.0) < 1e-9
    assert abs(ratios[-1] - 1.0) <= abs(ratios[0] - 1.0) + 1e-12


def test_positivity_adjacent_to_boundary(tables_nn4, diag_ctx):
    assert tables_nn4.value(tables_nn4.V, [1, 1]) > 0.0
    diag_tabs = diag_ctx.harmonic
    assert diag_tabs.value(diag_tabs.V, [1, 1]) > 0.0
    assert diag_tabs.value(diag_tabs.V, [1, 40]) > 0.0


def test_symmetric_law_symmetric_tables(diag_ctx):
    tabs = diag_ctx.harmonic
    for y in ([2, 5], [7, 3], [11, 29]):
        a = tabs.value(tabs.V, y)
        b = tabs.value(tabs.V, y[::-1])
        assert a == pytest.approx(b, rel=1e-12)


def test_discrete_harmonicity_residual(diag_ctx):
    assert diag_ctx.harmonic.convergence_residual <= 1e-6


def test_growth_bound(diag_ctx):
    tabs = diag_ctx.harmonic
    C = tabs.growth_constant
    assert np.isfinite(C) and C > 0.0
    hat = tabs.grid.points() @ tabs.M.T
    bound = C * (1.0 + np.linalg.norm(hat, axis=1) ** tabs.ch.p)
    assert np.all(tabs.Vprime[tabs.grid.mask] <= bound * (1.0 + 1e-12))


def test_solve_departs_from_u_on_small_window(diag_ctx, quadrant):
    # the wedge harmonic function is not exactly discrete-harmonic for the
    # diagonal walk, so the solve has real work to do
    cd = diag_ctx.cramer
    wd = diag_ctx.whitening
    ch = continuous_harmonic_for(wd.cone_image, wd.p)
    solve = build_V_tables(cd.tilted, quadrant, ch, wd.M, L=18)
    assert np.max(np.abs(solve.V[solve.grid.mask] - u_eval_many(
        ch, solve.grid.coords[solve.grid.mask] @ wd.M.T))) > 1e-3


def test_level_set_ratio(tables_nn4):
    # same value of h.x on both sides, so the exponential factor cancels
    ratio_U = tables_nn4.U_at([2, 1]) / tables_nn4.U_at([1, 2])
    ratio_V = (tables_nn4.value(tables_nn4.V, [2, 1])
               / tables_nn4.value(tables_nn4.V, [1, 2]))
    assert ratio_U == pytest.approx(ratio_V, rel=1e-12)


def test_normalizer(tables_nn4):
    assert tables_nn4.kappa > 0.0
    total = tables_nn4.Uprime[tables_nn4.grid.mask].sum()
    assert tables_nn4.kappa * total == pytest.approx(1.0, rel=1e-12)
    assert tables_nn4.tail_bound < 1e-8 * total


def test_default_window_fails_tail_certificate(cramer_nn4, quadrant, ctx):
    wd = ctx.whitening
    ch = continuous_harmonic_for(wd.cone_image, wd.p)
    tabs = build_V_tables(cramer_nn4.tilted, quadrant, ch, wd.M, L=60)
    with pytest.raises(WindowTooSmallError) as err:
        build_U_tables(tabs, cramer_nn4.h)
    assert err.value.suggested_L is not None
    assert err.value.suggested_L > 60


def test_c_harmonicity(ctx, tables_nn4, nn4):
    assert c_harmonicity_residual(tables_nn4, nn4, ctx.cramer.c) <= 1e-6


def test_qsd_one_step_identity(ctx, tables_nn4, nn4):
    assert qsd_fixed_point_residual(tables_nn4, nn4, ctx.cramer.c) <= 1e-6


def test_c_harmonicity_diagonal(diag_ctx, diagonal_law):
    tabs = diag_ctx.harmonic
    assert c_harmonicity_residual(tabs, diagonal_law, diag_ctx.cramer.c) <= 1e-6
    assert qsd_fixed_point_residual(tabs, diagonal_law, diag_ctx.cramer.c) <= 1e-6


def test_rows_export(tables_nn4):
    rows = tables_rows(tables_nn4)
    assert len(rows) == tables_nn4.grid.n_states
    assert rows[0][:2] == [1, 1]
    assert all(len(r) == 6 for r in rows)


def test_needs_driftless_input(nn4, quadrant, ctx):
    wd = ctx.whitening
    ch = continuous_harmonic_for(wd.cone_image, wd.p)
    with pytest.raises(ConfigError, match="driftless"):
        build_V_tables(nn4, quadrant, ch, wd.M, L=20)
