import importlib
from pathlib import Path

import numpy as np
import pytest

from conelab.analysis import PipelineContext, VerifyParams
from conelab.model import ConeSpec, StepLaw
from conelab.spectral import qsd_for_model

ROOT3 = np.sqrt(3.0)
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="session")
def nn4():
    return StepLaw(support=np.array([[1, 0], [-1, 0], [0, 1], [0, -1]]),
                   probs=np.array([1 / 8, 3 / 8, 1 / 8, 3 / 8]))


@pytest.fixture(scope="session")
def diagonal_law():
    return StepLaw(support=np.array([[1, 1], [-1, -1], [1, -1], [-1, 1]]),
                   probs=np.array([1 / 8, 3 / 8, 1 / 4, 1 / 4]))


@pytest.fixture(scope="session")
def octant_law():
    """Six steps +-e_i with probabilities 1/12 and 3/12: h = (ln 3 / 2)(1, 1, 1),
    c = sqrt(3)/2, p = 3, and u = y1 y2 y3 is discrete-harmonic for the tilt."""
    return StepLaw(support=np.vstack([np.eye(3, dtype=int), -np.eye(3, dtype=int)]),
                   probs=np.array([1 / 12] * 3 + [3 / 12] * 3))


@pytest.fixture(scope="session")
def quadrant():
    return ConeSpec.orthant(2)


@pytest.fixture(scope="session")
def ctx(nn4, quadrant):
    """Shared pipeline on the reference model; artifacts are built lazily."""
    return PipelineContext(nn4, quadrant, VerifyParams())


@pytest.fixture(scope="session")
def cramer_nn4(ctx):
    return ctx.cramer


@pytest.fixture(scope="session")
def tables_nn4(ctx):
    return ctx.harmonic


@pytest.fixture(scope="session")
def series_nn4(ctx):
    return ctx.series


@pytest.fixture(scope="session")
def qsd_sweep(ctx):
    """The reference model's QSD on each window of ``params.qsd_sweep``."""
    return {L: qsd_for_model(ctx.law, ctx.cramer, ctx.cone, L) for L in ctx.params.qsd_sweep}


@pytest.fixture(scope="session")
def diag_ctx(diagonal_law, quadrant):
    params = VerifyParams(harmonic_window=96.0, dp_window=72, bridge_endpoint=(3, 3))
    return PipelineContext(diagonal_law, quadrant, params)


def scipy_csr(matrix):
    """``KilledKernel.matrix()``'s compressed rows as a ``scipy.sparse.csr_matrix``
    over the same arrays: the package runs on numpy alone, and scipy's sparse API
    serves the tests as an oracle."""
    from scipy.sparse import csr_matrix

    return csr_matrix((matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape)


def mu_as_table(result):
    """A QSD result's mu as a box array on its grid, zero off the window."""
    table = np.zeros(result.grid.shape)
    table[result.grid.mask] = result.mu
    return table


def hull_spans(steps):
    """Whether the steps positively span R^d (d >= 2), by an oracle independent of
    ``span_obstruction``: the origin must lie strictly inside their convex hull."""
    from scipy.spatial import ConvexHull, QhullError

    try:
        hull = ConvexHull(np.asarray(steps, dtype=float))
    except QhullError:            # a flat hull has no interior
        return False
    return bool(np.all(hull.equations[:, -1] < -1e-9))


@pytest.fixture()
def perfbench(monkeypatch):
    """The benchmark's ``run`` and ``spans`` modules, imported from ``perfbench/``."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("run"), importlib.import_module("spans")


@pytest.fixture()
def checks(monkeypatch):
    """The benchmark's answer checker, ``perfbench/checks.py``."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("checks")


@pytest.fixture()
def wide(perfbench):
    """The benchmark's ``WIDE`` pipeline overrides (1600 steps, n_hi 1200, L = 120 windows)."""
    return perfbench[0].WIDE


@pytest.fixture(scope="session")
def spans_oracle():
    return hull_spans
