import numpy as np
import pytest

from fractions import Fraction

from conelab.cramer import log_mgf, solve_cramer_point, tilt_law
from conelab.dp_oracle import halfspace_1d
from conelab.errors import ConfigError
from conelab.model import StepLaw

ROOT3 = np.sqrt(3.0)


def test_mgf_at_zero(nn4):
    R, grad, hess = log_mgf(nn4, np.zeros(2))
    assert R == 1.0
    assert np.allclose(grad, [-0.25, -0.25], atol=1e-16)
    # Hessian at 0 is the second-moment matrix
    second = (nn4.support * nn4.probs[:, None]).T @ nn4.support
    assert np.allclose(hess, second, atol=1e-16)


def test_mgf_closed_form_at_tilt_point(nn4):
    h = np.array([np.log(3.0) / 2.0] * 2)
    R, grad, _ = log_mgf(nn4, h)
    assert R == pytest.approx(ROOT3 / 2.0, abs=1e-15)
    assert np.linalg.norm(grad) < 1e-15


def test_solve_reference_walk(nn4):
    cd = solve_cramer_point(nn4)
    assert np.max(np.abs(cd.h - np.log(3.0) / 2.0)) < 1e-12
    assert abs(cd.c - ROOT3 / 2.0) < 1e-14
    assert cd.grad_residual <= 1e-12
    assert np.allclose(cd.tilted.probs, 0.25, atol=1e-14)
    assert np.linalg.norm(cd.tilted.mean()) <= 1e-10


def test_solve_diagonal_walk(diagonal_law):
    cd = solve_cramer_point(diagonal_law)
    assert np.max(np.abs(cd.h - np.log(3.0) / 4.0)) < 1e-12
    assert abs(cd.c - (ROOT3 / 4.0 + 0.5)) < 1e-14
    expected = np.array([ROOT3 / 8.0, ROOT3 / 8.0, 0.25, 0.25]) / cd.c
    assert np.allclose(cd.tilted.probs, expected, atol=1e-14)


def test_solve_matches_grid_search(diagonal_law):
    # independent oracle: coarse grid minimization of R over [-2, 2]^2
    best, arg = np.inf, None
    grid = np.linspace(-2.0, 2.0, 161)
    for h1 in grid:
        for h2 in grid:
            R, _, _ = log_mgf(diagonal_law, np.array([h1, h2]))
            if R < best:
                best, arg = R, (h1, h2)
    cd = solve_cramer_point(diagonal_law)
    assert np.max(np.abs(np.array(arg) - cd.h)) <= 0.025 + 1e-12
    assert cd.c <= best + 1e-12


def test_tilted_second_moment_matches_hessian(nn4):
    cd = solve_cramer_point(nn4)
    _, _, hess = log_mgf(nn4, cd.h)
    second = (cd.tilted.support * cd.tilted.probs[:, None]).T @ cd.tilted.support
    assert np.max(np.abs(second - hess / cd.c)) < 1e-12


def test_drift_opposes_tilt(nn4, diagonal_law):
    for law in (nn4, diagonal_law):
        cd = solve_cramer_point(law)
        assert law.mean() @ cd.h < 0.0


def test_newton_residuals_decrease(nn4, diagonal_law):
    for law in (nn4, diagonal_law):
        res = solve_cramer_point(law).newton_residuals
        assert len(res) >= 2
        assert all(b < a for a, b in zip(res, res[1:]))
        assert res[-1] <= 1e-12


def test_zero_drift_rejected():
    law = StepLaw(support=np.array([[1, 0], [-1, 0], [0, 1], [0, -1]]),
                  probs=np.full(4, 0.25))
    with pytest.raises(ConfigError, match="zero drift|origin"):
        solve_cramer_point(law)


def test_identity_tilt(nn4):
    out = tilt_law(nn4, np.zeros(2), 1.0)
    assert np.array_equal(out.support, nn4.support)
    assert np.allclose(out.probs, nn4.probs, atol=1e-16)


def test_tilt_exact_renormalization(nn4):
    cd = solve_cramer_point(nn4)
    out = tilt_law(nn4, cd.h, cd.c)
    assert abs(out.probs.sum() - 1.0) < 1e-15


def test_tilt_rejects_inconsistent_rate(nn4):
    with pytest.raises(ConfigError, match="inconsistent"):
        tilt_law(nn4, np.zeros(2), 0.9)


def test_mgf_dimension_check(nn4):
    with pytest.raises(ConfigError):
        log_mgf(nn4, np.zeros(3))


def _law(steps, probs):
    return StepLaw(support=np.array(steps), probs=np.array([float(Fraction(p)) for p in probs]))


@pytest.mark.parametrize("steps, probs", [
    ([[-1, 1], [1, 2], [-1, 2]], ["1/7", "1/2", "5/14"]),     # Newton ran to c = 3.6e-13
    ([[1, 0], [-1, 0], [0, 1]], ["1/5", "1/2", "3/10"]),      # Newton ran to h2 = -27
])
def test_no_cramer_point_without_positive_span(steps, probs):
    with pytest.raises(ConfigError, match="do not positively span"):
        solve_cramer_point(_law(steps, probs))


def test_halfspace_projection_without_cramer_point(nn4):
    # projected on e1, the steps (-1, 0), (0, 1), (0, -1) never move up
    law = _law([[-1, 0], [0, 1], [0, -1]], ["1/2", "1/4", "1/4"])
    with pytest.raises(ConfigError, match="do not positively span R\\^1"):
        halfspace_1d(law, np.array([1.0, 0.0]), 1, 50)


def test_armijo_test_allows_for_roundoff():
    # near the minimum the decrease in R falls below its ulp; without slack
    # every step was cut to t ~ 3e-8 until the iteration cap
    law = _law([[1, 2], [-2, 1], [1, -2], [-1, 0], [0, 2]],
               ["7/29", "6/29", "3/29", "5/29", "8/29"])
    cd = solve_cramer_point(law)
    assert cd.grad_residual <= 1e-15
    assert len(cd.newton_residuals) <= 8
