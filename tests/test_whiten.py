import numpy as np
import pytest

from conelab.cramer import solve_cramer_point
from conelab.errors import ConfigError, NumericsError
from conelab.model import ConeSpec, StepLaw
from conelab.whiten import (cone_image_and_p, correlation_alpha, tilted_covariance,
                            whitening_matrix)

ROOT3 = np.sqrt(3.0)


def test_reference_covariance(cramer_nn4):
    cov = tilted_covariance(cramer_nn4.tilted)
    assert np.allclose(cov, np.diag([0.5, 0.5]), atol=1e-15)


def test_diagonal_walk_covariance(diagonal_law):
    cd = solve_cramer_point(diagonal_law)
    cov = tilted_covariance(cd.tilted)
    off = (ROOT3 / 4.0 - 0.5) / cd.c
    assert np.allclose(np.diag(cov), 1.0, atol=1e-14)
    assert cov[0, 1] == pytest.approx(off, abs=1e-14)


def test_one_dimensional_unit_variance():
    law = StepLaw(support=np.array([[1], [-1]]), probs=np.array([0.5, 0.5]))
    assert np.allclose(tilted_covariance(law), [[1.0]])


def test_covariance_requires_driftless(nn4):
    with pytest.raises(ConfigError, match="drift"):
        tilted_covariance(nn4)


def test_inverse_root_of_half_identity():
    M = whitening_matrix(np.diag([0.5, 0.5]), mode="general")
    assert np.allclose(M, np.sqrt(2.0) * np.eye(2), atol=1e-14)


def test_identity_already_white():
    assert np.allclose(whitening_matrix(np.eye(2)), np.eye(2), atol=1e-15)
    assert np.allclose(whitening_matrix(np.eye(3)), np.eye(3), atol=1e-15)


def test_example_mode_uncorrelated_reduces_to_scaling():
    M = whitening_matrix(np.diag([0.5, 0.5]), mode="example2d")
    assert np.allclose(M, np.diag([np.sqrt(2.0), np.sqrt(2.0)]), atol=1e-14)


@pytest.mark.parametrize("mode", ["general", "example2d"])
def test_whitening_identity_invariant(diagonal_law, mode):
    cd = solve_cramer_point(diagonal_law)
    cov = tilted_covariance(cd.tilted)
    M = whitening_matrix(cov, mode=mode)
    assert np.max(np.abs(M @ cov @ M.T - np.eye(2))) < 1e-10


def test_exact_second_moment_of_whitened_law(diagonal_law):
    cd = solve_cramer_point(diagonal_law)
    cov = tilted_covariance(cd.tilted)
    M = whitening_matrix(cov)
    hat = cd.tilted.support @ M.T
    second = (hat * cd.tilted.probs[:, None]).T @ hat
    assert np.max(np.abs(second - np.eye(2))) < 1e-10


def test_reference_degree(ctx):
    wd = ctx.whitening
    assert wd.alpha == pytest.approx(0.0, abs=1e-14)
    assert wd.p == pytest.approx(np.pi / np.arccos(-wd.alpha), abs=1e-12)
    assert wd.p == 2.0


def test_diagonal_walk_degree(diag_ctx):
    wd = diag_ctx.whitening
    assert wd.p == pytest.approx(np.pi / np.arccos(-wd.alpha), abs=1e-12)
    assert wd.p == pytest.approx(2.0959, abs=2e-4)


def test_image_opening_mode_independent(diagonal_law, quadrant):
    cd = solve_cramer_point(diagonal_law)
    cov = tilted_covariance(cd.tilted)
    alpha = correlation_alpha(cov)
    openings = []
    for mode in ("general", "example2d"):
        M = whitening_matrix(cov, mode=mode)
        image, p = cone_image_and_p(quadrant, M)
        openings.append(image.beta)
        # independent check: angle between the mapped extreme rays
        v1, v2 = M @ np.array([1.0, 0.0]), M @ np.array([0.0, 1.0])
        direct = np.arccos(v1 @ v2 / np.linalg.norm(v1) / np.linalg.norm(v2))
        assert image.beta == pytest.approx(direct, abs=1e-12)
    assert abs(openings[0] - openings[1]) < 1e-9
    assert openings[0] == pytest.approx(np.arccos(-alpha), abs=1e-9)


def test_halfspace_degree_is_one():
    half = ConeSpec.halfspace(np.array([1.0, 0.0]))
    image, p = cone_image_and_p(half, np.diag([2.0, 1.0]))
    assert p == 1.0
    assert image.kind == "halfspace"


def test_orthant_diagonal_degree_is_dimension():
    image, p = cone_image_and_p(ConeSpec.orthant(3), np.diag([1.0, 2.0, 3.0]))
    assert p == 3.0
    assert image.kind == "orthant"


def test_non_diagonal_orthant_in_3d_has_no_image():
    M = np.eye(3)
    M[0, 1] = 0.3
    assert cone_image_and_p(ConeSpec.orthant(3), M) == (None, None)


def test_wide_image_wedge_rejected():
    # a linear map keeps openings on the same side of pi, so only wedges that
    # already open past pi can produce a degree below 1
    wedge = ConeSpec.wedge2d(1.2 * np.pi)
    with pytest.raises(NumericsError, match="pi or more"):
        cone_image_and_p(wedge, np.eye(2))


def test_whitening_matrix_validation():
    with pytest.raises(ConfigError):
        whitening_matrix(np.array([[1.0, 0.5], [0.4, 1.0]]))
    with pytest.raises(ConfigError):
        whitening_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ConfigError):
        whitening_matrix(np.eye(3), mode="example2d")


def test_whiten_model_bundle(ctx):
    wd = ctx.whitening
    assert np.max(np.abs(wd.M @ wd.cov @ wd.M.T - np.eye(2))) < 1e-10
    assert wd.cone_image.kind == "orthant"
    assert wd.p >= 1.0
