import time

import numpy as np
import pytest
from cases import quadrant_law
from conftest import scipy_csr

from conelab import _lattice, analysis, harmonic
from conelab._lattice import KilledKernel, make_grid
from conelab.analysis import PipelineContext, VerifyParams
from conelab.cramer import solve_cramer_point
from conelab.dp_oracle import dp_evolve
from conelab.errors import ConfigError, NumericsError, WindowTooSmallError
from conelab.harmonic import (HarmonicTables, build_U_tables, build_V_tables, u_eval,
                              u_eval_many)
from conelab.model import ConeSpec, StepLaw, cone_contains
from conelab.whiten import cone_image_and_p, image_degree, whiten_model

QUADRANT_IMAGE = ConeSpec.orthant(2)


def wedge_of_degree(p, theta0):
    """Image wedge whose harmonic function has degree p: opening pi / p."""
    return ConeSpec.wedge2d(np.pi / p, theta0)


def fd_laplacian(image, x, step=1e-3):
    """Five-point finite-difference Laplacian, the independent harmonicity oracle."""
    x = np.asarray(x, dtype=float)
    total = -2.0 * len(x) * u_eval(image, x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = step
        total += u_eval(image, x + e) + u_eval(image, x - e)
    return total / step ** 2


def test_product_form():
    assert u_eval(QUADRANT_IMAGE, [2.0, 3.0]) == 6.0
    assert u_eval(QUADRANT_IMAGE, [2.0, 0.0]) == 0.0


def test_wedge_closed_form():
    image = wedge_of_degree(2.0, 0.0)
    x = np.array([np.cos(np.pi / 4.0), np.sin(np.pi / 4.0)])
    assert u_eval(image, x) == pytest.approx(1.0, abs=1e-15)
    assert u_eval(image, [1.0, 0.0]) == 0.0
    assert u_eval(image, [0.0, 1.0]) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("ch,points", [
    (QUADRANT_IMAGE, [[1.0, 2.0], [3.0, 0.5]]),
    (wedge_of_degree(2.0959, 0.1), [[1.0, 1.0], [0.5, 1.5]]),
])
def test_homogeneity(ch, points):
    # ch: the image cone that carries the harmonic function
    for x in points:
        base = u_eval(ch, x)
        for lam in (2.0, 3.0):
            assert u_eval(ch, lam * np.asarray(x)) == pytest.approx(
                lam ** image_degree(ch) * base, rel=1e-10)


@pytest.mark.parametrize("ch,x", [
    (QUADRANT_IMAGE, [1.5, 2.5]),
    (wedge_of_degree(2.0959, 0.05), [2.0, 1.5]),
    (wedge_of_degree(1.3, 0.3), [1.0, 2.0]),
])
def test_harmonicity_by_finite_differences(ch, x):
    scale = u_eval(ch, x)
    assert abs(fd_laplacian(ch, x)) <= 1e-6 * max(scale, 1.0)


def test_domain_error_outside():
    with pytest.raises(ConfigError, match="outside"):
        u_eval(QUADRANT_IMAGE, [-1.0, 2.0])
    with pytest.raises(ConfigError, match="outside"):
        u_eval(wedge_of_degree(2.0, 0.0), [1.0, -0.5])
    with pytest.raises(ConfigError, match="halfspace"):
        u_eval(ConeSpec.halfspace(np.array([1.0, 0.0])), [1.0, 0.0])


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
    bound = C * (1.0 + np.linalg.norm(hat, axis=1) ** image_degree(tabs.cone_image))
    assert np.all(tabs.Vprime[tabs.grid.mask] <= bound * (1.0 + 1e-12))


def test_solve_departs_from_u_on_small_window(diag_ctx, quadrant):
    # the wedge harmonic function is not exactly discrete-harmonic for the
    # diagonal walk, so the solve has real work to do
    cd = diag_ctx.cramer
    wd = diag_ctx.whitening
    solve = build_V_tables(cd.tilted, quadrant, wd.cone_image, wd.M, L=18)
    assert np.max(np.abs(solve.V[solve.grid.mask] - u_eval_many(
        wd.cone_image, solve.grid.coords[solve.grid.mask] @ wd.M.T))) > 1e-3


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
    tabs = build_V_tables(cramer_nn4.tilted, quadrant, wd.cone_image, wd.M, L=60)
    with pytest.raises(WindowTooSmallError) as err:
        build_U_tables(tabs, cramer_nn4.h)
    assert err.value.suggested_L is not None
    assert err.value.suggested_L > 60


def explicit_shell_sum(tabs, h, shells):
    """Sum of e^(-h.y) (1 + |M y|^p) over the cone points of max-norm r_in + 1 ...
    r_in + shells, point by point: a lower bound on the tail the certificate bounds."""
    M, cone, p, d = tabs.M, tabs.cone, image_degree(tabs.cone_image), tabs.grid.dim
    r_in = int(np.floor(tabs.L / np.max(np.abs(M).sum(axis=1))))
    r_ext = r_in + shells
    lo = 1 if cone.kind == "orthant" else -r_ext
    mesh = np.stack(np.meshgrid(*[np.arange(lo, r_ext + 1)] * d, indexing="ij"),
                    axis=-1).reshape(-1, d)
    mesh = mesh[np.max(np.abs(mesh), axis=1) > r_in]
    mesh = mesh[cone_contains(cone, mesh)]
    return float(np.sum(np.exp(-(mesh @ h))
                        * (1.0 + np.linalg.norm(mesh @ M.T, axis=1) ** p)))


@pytest.fixture(scope="module")
def tail_cases(ctx, diag_ctx, solved, octant_law):
    """(tables, h, shells summed by the oracle) for each cone the certificate covers."""
    wd = ctx.whitening
    nn4_60 = build_V_tables(ctx.cramer.tilted, ctx.cone, wd.cone_image, wd.M, L=60)
    octant = ConeSpec.orthant(3)
    cd = solve_cramer_point(octant_law)
    ow = whiten_model(cd, octant)
    oct_36 = build_V_tables(cd.tilted, octant, ow.cone_image, ow.M, L=36)
    return {"nn4-60": (nn4_60, ctx.cramer.h, 150),
            "nn4-72": (ctx.harmonic, ctx.cramer.h, 150),
            "diagonal-96": (diag_ctx.harmonic, diag_ctx.cramer.h, 150),
            "wedge-40": (solved["wedge"][0], ctx.cramer.h, 150),
            "octant-36": (oct_36, cd.h, 60)}


@pytest.mark.parametrize("case", ["nn4-60", "nn4-72", "diagonal-96", "wedge-40", "octant-36"])
def test_tail_bound_is_a_true_upper_bound(case, tail_cases):
    # the closed form must cover the explicit sum it replaced; on the two
    # shipped walks it stays within 15% of it (nn4 at 72: 1.33e-8 against
    # 1.21e-8), the wedge and the octant get a looser but cheap bound
    tabs, h, shells = tail_cases[case]
    C, tail, _ = harmonic._tail_certificate(tabs, h, 1.0)
    oracle = C * explicit_shell_sum(tabs, h, shells)
    assert 0.0 < oracle <= tail
    if case.startswith(("nn4", "diagonal")):
        assert tail <= 1.15 * oracle


@pytest.mark.parametrize("seed", range(50))
def test_random_law_tail_bound_is_a_true_upper_bound(seed, quadrant):
    # C, the largest V' / (1 + |M y|^p) on the window, multiplies both sides, so
    # V' = 1 on the window stands in for a solve: the closed-form shell bound
    # must cover the explicit sum over 80 shells beyond the window for any law
    cramer, L = quadrant_law(seed)
    wd = whiten_model(cramer, quadrant)
    grid = make_grid(quadrant, L / np.linalg.norm(wd.M, np.inf), cramer.tilted)
    ones = grid.mask.astype(float)
    tabs = HarmonicTables(grid=grid, L=float(L), cone=quadrant, M=wd.M,
                          cone_image=wd.cone_image, V=ones, Vprime=ones,
                          convergence_residual=0.0)
    C, tail, _ = harmonic._tail_certificate(tabs, cramer.h, 1.0)
    assert 0.0 < C * explicit_shell_sum(tabs, cramer.h, 80) <= tail


def test_needs_driftless_input(nn4, quadrant, ctx):
    wd = ctx.whitening
    with pytest.raises(ConfigError, match="driftless"):
        build_V_tables(nn4, quadrant, wd.cone_image, wd.M, L=20)


def spsolve_oracle(tabs, law):
    """V on the window by a sparse direct solve of (I - T) v = b."""
    from scipy import sparse
    from scipy.sparse import linalg as spla
    grid = tabs.grid
    ring = grid.in_cone & ~grid.mask
    u_ring = np.zeros(grid.shape)
    u_ring[ring] = u_eval_many(tabs.cone_image, grid.coords[ring] @ tabs.M.T)
    kernel = KilledKernel(grid, law)
    b = kernel.pull(u_ring)[grid.mask]
    A = sparse.identity(grid.n_states, format="csc") - scipy_csr(kernel.matrix()).tocsc()
    return spla.spsolve(A, b)


@pytest.fixture(scope="module")
def solved(ctx, diag_ctx):
    """Tables and the tilted law they solve for: nn4, diagonal, and a wedge cone."""
    # a 120-degree wedge: u is not discrete-harmonic there, so the solve iterates
    wedge = ConeSpec.wedge2d(2.0 * np.pi / 3.0, 0.1)
    image, _ = cone_image_and_p(wedge, ctx.whitening.M)
    tilted = ctx.cramer.tilted
    return {"nn4": (ctx.harmonic, tilted),
            "diagonal": (diag_ctx.harmonic, diag_ctx.cramer.tilted),
            "wedge": (build_V_tables(tilted, wedge, image, ctx.whitening.M, L=40), tilted)}


@pytest.mark.parametrize("which", ["nn4", "diagonal", "wedge"])
def test_krylov_solve_matches_direct_solve(which, solved):
    tabs, tilted = solved[which]
    mask = tabs.grid.mask
    for table, law in ((tabs.V, tilted), (tabs.Vprime, tilted.reversed())):
        direct = spsolve_oracle(tabs, law)
        assert np.max(np.abs(table[mask] - direct) / direct) <= 1e-10
    assert tabs.convergence_residual <= 1e-12


def shifted(table, z):
    """table[x + z] at every box cell x, zero where x + z leaves the box."""
    out = np.zeros_like(table)
    src = tuple(slice(max(k, 0), n + min(k, 0)) for k, n in zip(z, table.shape))
    dst = tuple(slice(max(-k, 0), n + min(-k, 0)) for k, n in zip(z, table.shape))
    out[dst] = table[src]
    return out


def one_step_mismatch(table, mask, law, c, sign):
    """Max over interior x of |sum_z p_z table(x + sign z) - c table(x)| / (c table(x))."""
    steps = [sign * np.asarray(z) for z in law.support]
    interior = mask & np.logical_and.reduce([shifted(mask, z) for z in steps])
    rhs = sum(prob * shifted(table, z) for z, prob in zip(steps, law.probs))
    lhs = c * table[interior]
    return float(np.max(np.abs(rhs[interior] - lhs) / lhs))


def one_step_tables(which, solved, model):
    """U, U', the box mask and the certificate for one solved case.

    c U(x) = sum_z p_z U(x + z) and c U'(y) = sum_z p_z U'(y - z) for the drifted
    law: V's and V''s mean-value equations for the tilted and the reversed law,
    multiplied through by c e^(+-h.x), so the stage certificate covers them.
    """
    tabs, _ = solved[which]
    mask = tabs.grid.mask
    if tabs.U is not None:             # the pipeline's own U and U'
        return tabs.U, tabs.Uprime, mask, tabs.convergence_residual
    dots = np.where(mask, tabs.grid.coords @ model.cramer.h, 0.0)   # wedge: V and V' only
    U = np.where(mask, np.exp(dots) * tabs.V, 0.0)
    Uprime = np.where(mask, np.exp(-dots) * tabs.Vprime, 0.0)
    return U, Uprime, mask, tabs.convergence_residual


def test_c_harmonicity(solved, ctx, nn4):
    U, _, mask, residual = one_step_tables("nn4", solved, ctx)
    assert one_step_mismatch(U, mask, nn4, ctx.cramer.c, +1) <= 1e-12
    assert residual <= 1e-12


def test_qsd_one_step_identity(solved, ctx, nn4):
    _, Uprime, mask, residual = one_step_tables("nn4", solved, ctx)
    assert one_step_mismatch(Uprime, mask, nn4, ctx.cramer.c, -1) <= 1e-12
    assert residual <= 1e-12


def test_c_harmonicity_diagonal(solved, diag_ctx, diagonal_law):
    U, Uprime, mask, residual = one_step_tables("diagonal", solved, diag_ctx)
    c = diag_ctx.cramer.c
    assert one_step_mismatch(U, mask, diagonal_law, c, +1) <= 1e-12
    assert one_step_mismatch(Uprime, mask, diagonal_law, c, -1) <= 1e-12
    assert residual <= 1e-12


def test_one_step_relations_on_a_wedge(solved, ctx):
    U, Uprime, mask, residual = one_step_tables("wedge", solved, ctx)
    assert one_step_mismatch(U, mask, ctx.law, ctx.cramer.c, +1) <= 1e-12
    assert one_step_mismatch(Uprime, mask, ctx.law, ctx.cramer.c, -1) <= 1e-12
    assert residual <= 1e-12


@pytest.mark.parametrize("model, x0", [("ctx", (1, 1)), ("diag_ctx", (2, 2))],
                         ids=["nn4", "diagonal"])
@pytest.mark.parametrize("k", [20, 40])
def test_h_transform_mass_is_one(request, model, x0, k):
    # the k-step law of the walk conditioned to stay in the cone,
    # c^-k q_k(x0, y) U(y) / U(x0), has mass 1 up to k one-step residuals
    pipeline = request.getfixturevalue(model)
    tabs = pipeline.harmonic
    series = dp_evolve(pipeline.law, pipeline.cone, x0, k, rescale_by=pipeline.cramer.c,
                       retain=[k])
    U = tabs.grid.place(tabs.U, series.grid.lo, series.grid.shape)
    mass = float((series.tables[k] * U).sum()) / tabs.U_at(x0)
    assert abs(mass - 1.0) <= k * tabs.convergence_residual + 1e-12


def test_nn4_solve_returns_u_exactly(tables_nn4):
    # u is discrete-harmonic for the reference walk, so the warm start is
    # already converged and V is u(M y) to the last bit
    grid = tables_nn4.grid
    u = u_eval_many(tables_nn4.cone_image, grid.points() @ tables_nn4.M.T)
    assert np.array_equal(tables_nn4.V[grid.mask], u)
    assert np.array_equal(tables_nn4.Vprime[grid.mask], u)


def test_iteration_cap_raises(diag_ctx, quadrant, monkeypatch):
    monkeypatch.setattr(harmonic, "SOLVE_MAX_ITER", 1)
    tabs = diag_ctx.harmonic
    with pytest.raises(NumericsError, match="not converged"):
        build_V_tables(diag_ctx.cramer.tilted, quadrant, tabs.cone_image, tabs.M, L=96)


# every reversed step of SPLIT from (1, 1) and every step of TRI from (1, 1) leaves
# the quadrant, so V'(1, 1) = 0 and V(1, 1) = 0 exactly, while V > 0 elsewhere
SPLIT = StepLaw(support=np.array([[-2, 1], [1, -2], [-1, 2], [2, 1]]),
                probs=np.array([0.4, 0.4, 0.1, 0.1]))
TRI = StepLaw(support=np.array([[2, -1], [-1, 2], [-1, -1]]), probs=np.array([0.25, 0.25, 0.5]))


@pytest.mark.parametrize("law, L, table", [(SPLIT, 10, "Vprime"), (SPLIT, 83, "Vprime"),
                                           (TRI, 10, "V")],
                         ids=["split-10", "split-83", "tri-10"])
def test_state_that_cannot_reach_the_ring_gets_an_exact_zero(law, L, table, quadrant):
    # the solve used to leave roundoff of either sign there and fail, or pass it
    # with a residual of 1; at L = 83 BiCGSTAB also meets r_hat . r = 0 after 338
    # iterations and restarts from the true residual instead of failing
    cd = solve_cramer_point(law)
    wd = whiten_model(cd, quadrant)
    tabs = build_V_tables(cd.tilted, quadrant, wd.cone_image, wd.M, L=L)
    mask = tabs.grid.mask.copy()
    assert tabs.value(getattr(tabs, table), [1, 1]) == 0.0
    mask[tuple(np.array([1, 1]) - tabs.grid.lo)] = False
    assert np.all(getattr(tabs, table)[mask] > 0.0)
    other = tabs.Vprime if table == "V" else tabs.V
    assert np.all(other[tabs.grid.mask] > 0.0)
    assert tabs.convergence_residual <= 1e-12


def test_octant_walk_in_three_dimensions(octant_law):
    law = octant_law
    cone = ConeSpec.orthant(3)
    cd = solve_cramer_point(law)
    wd = whiten_model(cd, cone)
    assert np.max(np.abs(cd.h - np.log(3.0) / 2.0)) <= 1e-10
    assert cd.c == pytest.approx(np.sqrt(3.0) / 2.0, abs=1e-12)
    assert wd.p == 3.0
    t0 = time.perf_counter()
    tabs = build_V_tables(cd.tilted, cone, wd.cone_image, wd.M, L=36)
    elapsed = time.perf_counter() - t0
    u = u_eval_many(wd.cone_image, tabs.grid.points() @ wd.M.T)
    for table in (tabs.V, tabs.Vprime):
        assert np.max(np.abs(table[tabs.grid.mask] - u) / u) <= 1e-12
    assert tabs.convergence_residual <= 1e-12
    assert elapsed < 1.0


def nn4_family(q):
    """Each + step at q, each - step at 1/2 - q: the tilted law is the simple walk,
    and h_i = ln((1/2 - q) / q) / 2 shrinks with the drift."""
    return StepLaw(support=np.array([[1, 0], [-1, 0], [0, 1], [0, -1]]),
                   probs=np.array([q, 0.5 - q, q, 0.5 - q]))


# with SPLIT, the two random laws whose searches from harmonic_window 10 once gave
# up after 150 shells
FIVE_STEP = StepLaw(support=np.array([[-1, 1], [0, -2], [-2, 0], [1, 2], [-1, -2]]),
                    probs=np.array([5, 20, 16, 8, 16]) / 65)


@pytest.fixture
def builds(monkeypatch):
    """The windows L the pipeline's harmonic stage builds, in order."""
    seen = []

    def recording(*args, **kwargs):
        seen.append(kwargs["L"])
        return build_V_tables(*args, **kwargs)

    monkeypatch.setattr(analysis, "build_V_tables", recording)
    return seen


@pytest.mark.parametrize("law, start, grown", [
    (nn4_family(15 / 64), 72, 575), (FIVE_STEP, 10, 225), (FIVE_STEP, 20, 219),
    (SPLIT, 10, 151), (SPLIT, 20, 143)],
    ids=["q=15/64", "five-step-10", "five-step-20", "split-10", "split-20"])
def test_tail_search_grows_weak_drift_windows(law, start, grown, quadrant, builds):
    # a configured window is a starting size: the tail search is capped by the
    # memory budget, not by a count of shells, so weak drift reaches a verdict
    tabs = PipelineContext(law, quadrant, VerifyParams(harmonic_window=start)).harmonic
    assert tabs.L == grown and builds[0] == start and builds[-1] == grown
    assert tabs.tail_bound < harmonic.TAIL_FRACTION / tabs.kappa
    assert tabs.convergence_residual <= 1e-12


def test_flat_tilt_stops_after_one_build(quadrant, builds):
    # h = 0.004 along e2: no window the budget holds passes, and the message says so
    law = StepLaw(support=np.array([[1, 0], [-1, 0], [0, 1], [0, -1]]),
                  probs=np.array([1 / 8, 3 / 8, 249 / 1000, 251 / 1000]))
    with pytest.raises(WindowTooSmallError, match=r"no window within the 1 GiB budget passes "
                       r"at h = \[0\.549306, 0\.004\]$") as err:
        PipelineContext(law, quadrant).harmonic
    assert err.value.suggested_L is None and builds == [72.0]


def test_suggested_window_fits_the_budget(quadrant, builds, monkeypatch):
    # q = 3/16 grows from 72 to 139, a 100^2 box at 8 (24 + d) bytes a cell: a
    # budget of exactly that still grows to it, one byte less suggests nothing
    law = nn4_family(3 / 16)
    tabs = PipelineContext(law, quadrant).harmonic
    assert tabs.L == 139 and tabs.grid.shape == (100, 100)
    monkeypatch.setattr(_lattice, "MAX_BYTES", 8 * 26 * 100 ** 2)
    assert PipelineContext(law, quadrant).harmonic.L == 139
    monkeypatch.setattr(_lattice, "MAX_BYTES", 8 * 26 * 100 ** 2 - 1)
    builds.clear()
    with pytest.raises(WindowTooSmallError, match="budget") as err:
        PipelineContext(law, quadrant).harmonic
    assert err.value.suggested_L is None and builds == [72.0]


def test_suggested_octant_window_fits_the_budget(octant_law, builds, monkeypatch):
    # from 10 the octant law grows to 91, a 54^3 box at 8 (24 + d) bytes a cell: a
    # budget of exactly that still grows to it, although 54^3 ** (1 / 3) evaluates
    # to 53.999999999999986, and one byte less suggests nothing
    octant, params = ConeSpec.orthant(3), VerifyParams(harmonic_window=10)
    monkeypatch.setattr(_lattice, "MAX_BYTES", 8 * 27 * 54 ** 3)
    tabs = PipelineContext(octant_law, octant, params).harmonic
    assert tabs.L == 91 and tabs.grid.shape == (54, 54, 54) and builds == [10, 91]
    monkeypatch.setattr(_lattice, "MAX_BYTES", 8 * 27 * 54 ** 3 - 1)
    builds.clear()
    with pytest.raises(WindowTooSmallError, match="budget") as err:
        PipelineContext(octant_law, octant, params).harmonic
    assert err.value.suggested_L is None and builds == [10]
