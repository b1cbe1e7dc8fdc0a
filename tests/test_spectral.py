from fractions import Fraction

import numpy as np
import pytest
from cases import padded_box_case
from conftest import mu_as_table, scipy_csr

from conelab import _lattice, spectral
from conelab._lattice import KilledKernel, make_grid
from conelab.cramer import solve_cramer_point
from conelab.errors import ConfigError
from conelab.model import ConeSpec, StepLaw, lattice_classes, span_obstruction
from conelab.spectral import (BASIS, QSD_TOL, qsd_for_model,
                              qsd_power_iteration, truncated_kernel, tv_distance_tables)

ROOT3 = np.sqrt(3.0)
# steps that cycle x1 + x2 mod 3: period 3 on the full lattice
PERIOD_3 = StepLaw(support=np.array([[1, 0], [0, 1], [-1, -1]]),
                   probs=np.array([0.25, 0.25, 0.5]))


def test_small_window_row(nn4, quadrant):
    kernel, grid = truncated_kernel(nn4, quadrant, 4)
    kernel = scipy_csr(kernel)
    i = grid.points().tolist().index([1, 1])
    row = kernel[i].toarray().ravel()
    entries = {tuple(grid.points()[j]): v for j, v in enumerate(row) if v != 0.0}
    assert entries == {(2, 1): pytest.approx(1 / 8), (1, 2): pytest.approx(1 / 8)}
    assert row.sum() == pytest.approx(0.25, abs=1e-15)


def test_row_sums_substochastic(nn4, quadrant):
    kernel, _ = truncated_kernel(nn4, quadrant, 12)
    sums = np.asarray(scipy_csr(kernel).sum(axis=1)).ravel()
    assert np.all(sums <= 1.0 + 1e-15)
    assert np.all(sums >= 0.0)


def test_empty_row_when_all_successors_killed(quadrant):
    law = StepLaw(support=np.array([[-2, 0], [0, -2]]), probs=np.array([0.5, 0.5]))
    kernel, grid = truncated_kernel(law, quadrant, 8)
    i = grid.points().tolist().index([2, 2])
    assert scipy_csr(kernel)[i].nnz == 0


def test_window_size_validated(nn4, quadrant):
    with pytest.raises(ConfigError):
        truncated_kernel(nn4, quadrant, 3)


def test_qsd_window_budget_is_a_config_error(octant_law):
    # the QSD holds BASIS + 24 + 2 |support| floats a box cell, 56 on the octant walk,
    # so the 1 GiB budget holds the octant window up to L = 131 and refuses L = 150
    # before any grid is built
    cramer = solve_cramer_point(octant_law)
    with pytest.raises(ConfigError, match=r"QSD window L = 150 is past L = 131, the "
                       r"largest the 1 GiB budget holds"):
        qsd_for_model(octant_law, cramer, ConeSpec.orthant(3), 150)


def test_qsd_window_fits_the_budget_exactly(nn4, quadrant, monkeypatch):
    # the L = 20 quadrant window's box is 22^2 cells of 8 (BASIS + 24 + 8) bytes:
    # that budget holds it, one byte less refuses it
    cramer = solve_cramer_point(nn4)
    budget = 8 * (BASIS + 32) * 22 ** 2
    monkeypatch.setattr(_lattice, "MAX_BYTES", budget)
    assert qsd_for_model(nn4, cramer, quadrant, 20).converged
    monkeypatch.setattr(_lattice, "MAX_BYTES", budget - 1)
    with pytest.raises(ConfigError, match=r"QSD window L = 20 is past L = 19"):
        qsd_for_model(nn4, cramer, quadrant, 20)


def test_eigenvalue_monotone_and_close_to_c(ctx, qsd_sweep):
    lams = [qsd_sweep[L].lambda_ for L in sorted(qsd_sweep)]
    assert all(a <= b + 1e-12 for a, b in zip(lams, lams[1:]))
    assert abs(qsd_sweep[60].lambda_ - ctx.cramer.c) <= 0.005
    assert all(0.0 < lam < 1.0 for lam in lams)


def test_qsd_is_probability_and_residual_small(ctx):
    result = ctx.qsd
    assert result.converged
    assert result.mu.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(result.mu >= 0.0)
    # one-step evolve-and-renormalize returns the same vector
    assert result.residual <= 1e-8


def test_qsd_matches_normalized_harmonic_table(ctx):
    tabs = ctx.harmonic
    result = ctx.qsd
    mu_t = mu_as_table(result)
    kU = np.zeros(tabs.grid.shape)
    kU[tabs.grid.mask] = tabs.kappa * tabs.Uprime[tabs.grid.mask]
    tv = tv_distance_tables(mu_t, result.grid, kU, tabs.grid)
    assert tv <= 0.01


def test_disconnected_kernel_warns(diagonal_law, quadrant, diag_ctx):
    # diagonal steps keep x1 + x2 mod 2: the window holds two closed classes
    kernel, grid = truncated_kernel(diagonal_law, quadrant, 20)
    result = qsd_power_iteration(kernel, grid, diag_ctx.cramer, 20)
    assert len(result.warnings) == 1
    assert result.warnings[0].startswith(
        "the steps generate a sublattice of index 2: the window holds 2 lattice classes")
    named = [int(v) for v in result.warnings[0].split("[")[-1].rstrip("]").split(",")]
    parity = grid.points().sum(axis=1) % 2
    assert result.mu[parity != sum(named) % 2].sum() <= 1e-8


@pytest.mark.parametrize("walk, L", [
    pytest.param("nn4", 20, id="20"), pytest.param("nn4", 60, id="60"),
    pytest.param("nn4", 120, id="120"),
    pytest.param("octant_law", 8, id="octant-8"),
    pytest.param("octant_law", 12, id="octant-12"),
    pytest.param("octant_law", 28, id="octant-28"),
])
def test_nn4_qsd_matches_closed_form(request, walk, L):
    # the tilted kernel is the simple random walk killed off [1, L]^d, for nn4
    # (d = 2) and the octant walk (d = 3) alike: each has h_i = ln 3 / 2
    law = request.getfixturevalue(walk)
    cramer = solve_cramer_point(law)
    result = qsd_for_model(law, cramer, ConeSpec.orthant(law.dim), L)
    c = cramer.c
    assert abs(result.lambda_ - c * np.cos(np.pi / (L + 1))) / c <= 1e-12
    x = result.grid.points()
    exact = 3.0 ** (-x.sum(axis=1) / 2.0) * np.prod(np.sin(np.pi * x / (L + 1)), axis=1)
    exact /= exact.sum()
    assert 0.5 * np.abs(result.mu - exact).sum() <= 1e-12


@pytest.mark.parametrize("walk, L", [
    pytest.param(walk, L, id=f"{walk}-{L}")
    for walk, L in (("nn4", 20), ("nn4", 60), ("nn4", 120), ("diagonal", 20), ("diagonal", 60),
                    ("period3", 120), ("octant", 28))
])
def test_qsd_root_is_bracketed_by_collatz_wielandt(request, walk, L):
    # mu is a left Perron vector of the kernel on its closed class, so the ratios
    # (mu P)(y) / mu(y) over its support bracket the class's Perron root: a
    # certificate of lambda that needs no residual, and the one the result reports.
    # mu is the second Arnoldi run's vector with no further kernel step, and the
    # bracket is still roundoff-tight; on nn4 and the octant it holds the exact root
    # c cos(pi / (L + 1))
    law = PERIOD_3 if walk == "period3" else request.getfixturevalue(
        {"nn4": "nn4", "diagonal": "diagonal_law", "octant": "octant_law"}[walk])
    cramer = solve_cramer_point(law)
    kernel, grid = truncated_kernel(law, ConeSpec.orthant(law.dim), L)
    result = qsd_power_iteration(kernel, grid, cramer, L)
    on = result.mu > 0.0
    ratios = kernel.rmatvec(result.mu)[on] / result.mu[on]
    low, high = ratios.min(), ratios.max()
    assert result.bracket == (low, high)
    assert high - low <= 1e-13
    assert low <= result.lambda_ <= high
    if walk in ("nn4", "octant"):
        assert low <= cramer.c * np.cos(np.pi / (L + 1)) <= high
    elif walk == "diagonal":
        assert on.sum() == {20: 200, 60: 1800}[L]      # one parity class of the window


@pytest.mark.parametrize("walk", ["nn4", "diagonal_law"])
def test_compressed_rows_only_certify(request, monkeypatch, quadrant, walk):
    # the Arnoldi roots choose the class, so the kernel's rows are read twice a
    # solve: once to clear the cells no step feeds, once for lambda and the bracket
    law = request.getfixturevalue(walk)
    calls, rmatvec = [], _lattice.Csr.rmatvec

    def spy(self, v):
        calls.append(v.size)
        return rmatvec(self, v)

    monkeypatch.setattr(_lattice.Csr, "rmatvec", spy)
    result = qsd_for_model(law, solve_cramer_point(law), quadrant, 20)
    assert len(calls) == 2 and result.converged


@pytest.mark.parametrize("dead", [0, 1])
def test_a_nilpotent_class_is_never_kept(monkeypatch, diagonal_law, quadrant, diag_ctx, dead):
    # a class whose Arnoldi root is 0 loses to a live one, whichever comes first: its
    # root reads 0, not the unit scale that its rebuild divides by
    class_perron, calls = spectral._class_perron, []

    def spy(*args):
        steps, nu, root = class_perron(*args)
        calls.append(root)
        return steps, nu, 0.0 if len(calls) - 1 == dead else root

    monkeypatch.setattr(spectral, "_class_perron", spy)
    result = qsd_for_model(diagonal_law, diag_ctx.cramer, quadrant, 20)
    labels, _ = lattice_classes(diagonal_law.support, result.grid.points())
    assert len(calls) == 2 and calls[dead] > 0.0
    assert np.all(result.mu[labels == dead] == 0.0)
    assert result.mu[labels != dead].sum() == pytest.approx(1.0, abs=1e-12)


def test_diagonal_qsd_sweep(diagonal_law, quadrant, diag_ctx):
    # each window's QSD lies on one parity class, with no mass at all on the
    # other; which class has the larger root depends on L
    lams = []
    for L, odd in ((20, 1), (30, 1), (40, 1), (60, 1), (61, 0), (80, 1)):
        result = qsd_for_model(diagonal_law, diag_ctx.cramer, quadrant, L)
        assert result.converged and result.residual <= 1e-12
        assert np.all(result.mu >= 0.0)
        assert result.mu.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(result.mu[result.grid.points().sum(axis=1) % 2 != odd] == 0.0)
        lams.append(result.lambda_)
    assert lams[-1] < diag_ctx.cramer.c
    assert all(a <= b for a, b in zip(lams, lams[1:]))


def exact_rank(matrix):
    """Rank of an integer matrix, by Gaussian elimination over the rationals."""
    rows = [[Fraction(int(v)) for v in row] for row in matrix]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("steps, probs, converged", [
    ([(1, -2, -1), (-2, 0, -2), (-1, 0, 2), (0, 1, -1), (1, 2, 2), (0, 2, 1)],
     [.3, .2, .1, .1, .2, .1], True),
    ([(0, 1, -1), (0, 2, 1), (1, 0, -2), (1, -1, -2), (-1, 0, 2)], [.2] * 5, False),
], ids=["rate-0.974", "rate-0.99994"])
def test_slow_octant_laws_report_convergence(steps, probs, converged):
    # shift-1 inverse iteration gains only (1 - lambda_1) / (1 - lambda_2) per solve
    # on these laws; the Arnoldi runs exhaust their 27 states instead.  At 0.974 the
    # result must meet the dense root cell by cell; on a defective root 1/5, one 6 x 6
    # Jordan block, no vector is accurate cell by cell (LAPACK's dense one reads a
    # bracket width of 3.5e-4), so the result must say it did not converge, whatever
    # its residual
    law = StepLaw(support=np.array(steps), probs=np.array(probs))
    grid = make_grid(ConeSpec.orthant(3), 3, law)
    kernel = KilledKernel(grid, law).matrix()
    dense = scipy_csr(kernel).toarray()
    result = qsd_power_iteration(kernel, grid, solve_cramer_point(law), 3)
    assert result.converged == converged
    low, high = result.bracket
    assert low <= result.lambda_ <= high
    assert result.iterations <= 2 * grid.n_states    # both runs exhaust the window
    if converged:
        lam = np.linalg.eigvals(dense).real.max()
        assert abs(result.lambda_ - lam) <= 1e-10 * lam
        assert high - low <= QSD_TOL * result.lambda_
        assert result.warnings == []
    else:
        # 5A is a 0/1 matrix.  The exact ranks of (5A - I)^j, (5A + I)^j and (5A)^j
        # give nullities 6, 6 and 15, which fill all 27 states: the spectrum is
        # exactly 1/5 (one Jordan block), -1/5 six times and 0 fifteen times
        five_a = np.rint(5 * dense).astype(np.int64)
        assert np.array_equal(five_a, 5 * dense) and set(np.unique(five_a)) == {0, 1}
        eye = np.eye(len(five_a), dtype=np.int64)
        ranks = {shift: [exact_rank(np.linalg.matrix_power(five_a + shift * eye, j))
                         for j in range(1, top)] for shift, top in ((-1, 7), (1, 7), (0, 6))}
        assert ranks == {-1: [26, 25, 24, 23, 22, 21], 1: [26, 25, 24, 23, 22, 21],
                         0: [20, 15, 14, 13, 12]}
        lam = 0.2
        assert low <= lam <= high
        assert high - low > QSD_TOL * result.lambda_
        assert result.warnings == [
            f"the QSD did not converge: after {result.iterations} kernel steps of Arnoldi "
            f"runs its Collatz-Wielandt bracket [{low:.12g}, {high:.12g}] has "
            f"relative width {(high - low) / result.lambda_:.2e}, above QSD_TOL = {QSD_TOL:g}"]


def dense_perron(law, cone, L):
    """The grid, kernel, dense left Perron law and root of a drifted spanning law on a
    window of 20 to 400 states, if no other computed root lies within 1e-9 of it and it
    is above 1e-3; else None.  Last comes the cosine between the root's left and right
    vectors: roundoff splits a defective root into such a cluster, and the cosine is
    then at roundoff level, where a simple root's is not."""
    grid = make_grid(cone, L, law)
    if span_obstruction(law) is None and np.linalg.norm(law.mean()) > 1e-9 and (
            20 <= grid.n_states <= 400):
        kernel = KilledKernel(grid, law).matrix()
        dense = scipy_csr(kernel).toarray()
        roots, vectors = np.linalg.eig(dense.T)
        k = np.argmax(roots.real)
        lam = roots[k].real
        if lam > 1e-3 and np.sum(np.abs(roots - lam) <= 1e-9 * lam) == 1:
            left = vectors[:, k].real
            right_roots, right = np.linalg.eig(dense)
            right = right[:, np.argmax(right_roots.real)].real
            cosine = abs(left @ right) / (np.linalg.norm(left) * np.linalg.norm(right))
            oracle = np.abs(left)
            return grid, kernel, oracle / oracle.sum(), lam, cosine


@pytest.mark.parametrize("seed", [*range(40), *(
    pytest.param((PERIOD_3, ConeSpec.orthant(2), L), id=f"period3-{L}") for L in (8, 12))])
def test_random_law_qsd_matches_dense_eig(seed):
    # over small positively spanning laws, on orthants, a tilted wedge and
    # half-spaces, and the period-3 law, whose kernel has three roots of the
    # Perron root's modulus, the QSD is the dense kernel's left Perron vector, it
    # lies on one lattice class only, and that class holds the largest root; on a
    # defective root (seed 17: one 4 x 4 Jordan block at 4/21; seed 33: the roots of
    # (17x)^3 = 32, each ninefold) no vector is accurate cell by cell, and the result
    # must say so
    law, cone, L = seed if isinstance(seed, tuple) else padded_box_case(
        seed, keep=lambda law, cone, L: dense_perron(law, cone, L) is not None)
    grid, kernel, oracle, lam, cosine = dense_perron(law, cone, L)
    result = qsd_power_iteration(kernel, grid, solve_cramer_point(law), L)
    labels, _ = lattice_classes(law.support, grid.points())
    chosen = labels == labels[np.argmax(result.mu)]
    assert np.all(result.mu[~chosen] == 0.0)
    if cosine < 1e-10:
        low, high = result.bracket
        assert not result.converged and high - low > QSD_TOL * result.lambda_
        assert result.warnings[-1].startswith("the QSD did not converge")
        return
    assert abs(result.lambda_ - lam) <= 1e-12 * lam
    assert 0.5 * np.abs(result.mu - oracle).sum() <= 1e-10
    assert chosen[np.argmax(oracle)]


@pytest.mark.parametrize("walk, L, period", [("nn4", 20, 2), ("diagonal_law", 20, 2),
                                             ("period3", 12, 3)])
def test_arnoldi_runs_on_one_cyclic_subclass(request, monkeypatch, quadrant, walk, L, period):
    # both runs of each lattice class hold one cyclic subclass of it, 1 / p of its
    # cells: these windows split every class evenly
    law = PERIOD_3 if walk == "period3" else request.getfixturevalue(walk)
    sizes, arnoldi = [], spectral._arnoldi

    def spy(step, start, tol):
        sizes.append(start.size)
        return arnoldi(step, start, tol)

    monkeypatch.setattr(spectral, "_arnoldi", spy)
    result = qsd_for_model(law, solve_cramer_point(law), quadrant, L)
    labels, _ = lattice_classes(law.support, result.grid.points())
    assert sizes == [n // period for n in np.bincount(labels) for _ in range(2)]
    assert result.converged
