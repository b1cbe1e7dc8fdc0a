"""The positive quadrant written as a wedge must match the orthant pipeline:
same kill set, same DP series, same Perron root, and a V table that differs
only by the fixed normalization of the continuous harmonic function
(r^2 sin(2 theta) = 2 x y versus the product x y)."""

import numpy as np
import pytest

from conelab.dp_oracle import dp_evolve
from conelab.harmonic import build_V_tables
from conelab.model import ConeSpec, cone_contains
from conelab.spectral import qsd_for_model
from conelab.whiten import cone_image_and_p, whiten_model


@pytest.fixture(scope="module")
def wedge():
    return ConeSpec.wedge2d(np.pi / 2.0, 0.0)


def test_same_lattice_membership(quadrant, wedge):
    rng = np.random.default_rng(0)
    pts = rng.integers(-3, 12, size=(500, 2))
    assert np.array_equal(cone_contains(quadrant, pts), cone_contains(wedge, pts))


def test_same_survival_series(nn4, quadrant, wedge, cramer_nn4):
    a = dp_evolve(nn4, quadrant, [1, 1], 60, rescale_by=cramer_nn4.c, L=40)
    b = dp_evolve(nn4, wedge, [1, 1], 60, rescale_by=cramer_nn4.c, L=40)
    assert np.max(np.abs(a.survival - b.survival)) < 1e-15


def test_same_perron_root(nn4, quadrant, wedge, cramer_nn4):
    a = qsd_for_model(nn4, cramer_nn4, quadrant, 20)
    b = qsd_for_model(nn4, cramer_nn4, wedge, 20)
    assert a.lambda_ == pytest.approx(b.lambda_, abs=1e-12)


def test_wedge_harmonic_table_proportional(ctx, cramer_nn4, wedge):
    wd = ctx.whitening
    image, p = cone_image_and_p(wedge, wd.M)
    assert p == pytest.approx(2.0, abs=1e-12)
    tabs = build_V_tables(cramer_nn4.tilted, wedge, image, wd.M, L=24)
    # r^2 sin(2 theta) = 2 x1 x2 in whitened coordinates = 4 y1 y2
    for y in ([1, 1], [2, 5], [7, 3]):
        assert tabs.value(tabs.V, y) == pytest.approx(4.0 * y[0] * y[1], rel=1e-9)
