import ast
import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest
from cases import noncollinear_support, padded_box_case
from conftest import scipy_csr

from conelab import _lattice
from conelab._lattice import (KilledKernel, admit, budget_window, make_grid, shift_add,
                              walk_reach)
from conelab.errors import ConfigError
from conelab.model import ConeSpec, StepLaw, cone_contains
from conelab.spectral import tv_distance_tables

SRC = Path(__file__).resolve().parents[1] / "src" / "conelab"

# (law fixture, cone): nn4 and the diagonal law on the quadrant, and nn4 on a
# tilted wedge, whose box is centred on the origin rather than starting at 1 - pad
KERNEL_CASES = {
    "nn4-quadrant": ("nn4", ConeSpec.orthant(2)),
    "diagonal-quadrant": ("diagonal_law", ConeSpec.orthant(2)),
    "nn4-wedge": ("nn4", ConeSpec.wedge2d(0.75 * np.pi, 0.3)),
}


@pytest.fixture(params=list(KERNEL_CASES))
def case(request):
    law, cone = KERNEL_CASES[request.param]
    return request.getfixturevalue(law), cone


@pytest.fixture()
def kernel(case):
    law, cone = case
    return KilledKernel(make_grid(cone, 8, law), law)


def pointwise_leak(grid, law, cone):
    """leak(x) = sum of p_z over steps from x landing in the cone but off the window."""
    expected = np.zeros(grid.shape)
    for x in grid.points():
        for z, p in zip(law.support, law.probs):
            y = x + z
            if cone_contains(cone, y[None, :])[0] and not grid.contains(y):
                expected[tuple(x - grid.lo)] += p
    return expected


def test_shift_add_directions():
    arr = np.zeros((4, 4))
    arr[1, 2] = 1.0
    out = np.zeros_like(arr)
    shift_add(out, arr, np.array([1, -1]), 0.5)
    # out[x] += w * arr[x - z]: mass moves by +z
    assert out[2, 1] == 0.5
    assert out.sum() == 0.5


def test_shift_add_clips_at_box_edge():
    arr = np.ones((3, 3))
    out = np.zeros_like(arr)
    shift_add(out, arr, np.array([2, 0]), 1.0)
    assert out.sum() == 3.0          # only one source row lands inside
    out2 = np.zeros_like(arr)
    shift_add(out2, arr, np.array([5, 0]), 1.0)
    assert out2.sum() == 0.0         # shift exceeds the box entirely


def test_pull_gathers(quadrant):
    step = StepLaw(support=np.array([[1, 0]]), probs=np.array([1.0]))
    grid = make_grid(quadrant, 3, step)
    arr = np.arange(float(np.prod(grid.shape))).reshape(grid.shape)
    out = KilledKernel(grid, step).pull(arr)
    # out[x] = arr[x + z]
    assert out[0, 0] == arr[1, 0]
    assert out[1, 2] == arr[2, 2]
    assert np.all(out[-1] == 0.0)    # no source beyond the edge
    with pytest.raises(ValueError):  # the kernel steps arrays over its own box only
        KilledKernel(grid, step).pull(np.ones((3, 3)))


def test_forward_conserves_on_interior(quadrant, nn4):
    grid = make_grid(quadrant, 12, nn4)
    kernel = KilledKernel(grid, nn4)
    q = np.zeros(grid.shape)
    q[tuple(np.array([6, 6]) - grid.lo)] = 1.0
    out = kernel.forward(q)
    assert out.sum() == pytest.approx(1.0, abs=1e-15)
    # one step from the boundary loses the killed mass
    q2 = np.zeros(grid.shape)
    q2[tuple(np.array([1, 1]) - grid.lo)] = 1.0
    out2 = kernel.forward(q2)
    assert out2.sum() == pytest.approx(0.25, abs=1e-15)


def test_backward_is_adjoint_of_forward(kernel):
    # <T mu, s> = <mu, T* s> for the killed kernel and any pair of states
    rng = np.random.default_rng(1)
    grid = kernel.grid
    mu = np.where(grid.mask, rng.random(grid.shape), 0.0)
    s = np.where(grid.mask, rng.random(grid.shape), 0.0)
    lhs = (kernel.forward(mu) * s).sum()
    rhs = (mu * kernel.backward(s)).sum()
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_matrix_matches_forward(kernel):
    grid = kernel.grid
    rng = np.random.default_rng(2)
    mu = np.where(grid.mask, rng.random(grid.shape), 0.0)
    direct = kernel.forward(mu)
    via_kernel = np.zeros(grid.shape)
    via_kernel[grid.mask] = scipy_csr(kernel.matrix()).T @ mu[grid.mask]
    assert np.max(np.abs(direct - via_kernel)) < 1e-14


@pytest.mark.parametrize("walk, cone", [
    ("nn4", ConeSpec.orthant(2)), ("diagonal_law", ConeSpec.orthant(2)),
    ("nn4", ConeSpec.wedge2d(0.75 * np.pi, 0.3)), ("octant_law", ConeSpec.orthant(3)),
], ids=["nn4", "diagonal", "nn4-wedge", "octant"])
def test_matrix_equals_scipy_csr_of_pointwise_entries(request, walk, cone):
    # entry for entry, dtypes included, the arrays scipy's coo -> csr conversion
    # makes of the kernel's entries enumerated point by point and step by step
    from scipy.sparse import coo_matrix

    law = request.getfixturevalue(walk)
    grid = make_grid(cone, 6, law)
    pts = grid.points()
    index = {tuple(x): i for i, x in enumerate(pts.tolist())}
    entries = [(i, index[tuple(x + z)], p) for z, p in zip(law.support, law.probs)
               for i, x in enumerate(pts) if tuple(x + z) in index]
    rows, cols, vals = map(np.array, zip(*entries))
    n = grid.n_states
    expected = coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    got = KilledKernel(grid, law).matrix()
    assert got.shape == expected.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_leak_and_interior_match_pointwise_rule(kernel, case):
    grid = kernel.grid
    expected = pointwise_leak(grid, *case)
    assert np.array_equal(kernel.leak, expected)
    assert np.array_equal(kernel.interior, grid.mask & (expected == 0.0))
    assert kernel.leak.any() and kernel.interior.any()


def test_leak_zero_strictly_inside(quadrant, nn4):
    grid = make_grid(quadrant, 10, nn4)
    leak = KilledKernel(grid, nn4).leak
    # cone-boundary kills are not leaks; only window-edge cone points leak
    assert leak[tuple(np.array([1, 1]) - grid.lo)] == 0.0
    assert leak[tuple(np.array([5, 5]) - grid.lo)] == 0.0
    edge = tuple(np.array([10, 5]) - grid.lo)
    assert leak[edge] == pytest.approx(1.0 / 8.0)


def test_tv_distance_matches_pointwise_fsum(quadrant, nn4):
    # a box padded for two-lattice steps (lo = -1) against one padded for nn4 (lo = 0)
    rng = np.random.default_rng(3)
    long_steps = StepLaw(support=np.array([[2, 0], [0, -2]]), probs=np.array([0.5, 0.5]))
    grid_a = make_grid(quadrant, 12, long_steps)
    grid_b = make_grid(quadrant, 9, nn4)
    assert grid_a.lo.tolist() == [-1, -1] and grid_b.lo.tolist() == [0, 0]
    table_a = rng.random(grid_a.shape)
    table_b = rng.random(grid_b.shape)
    table_a /= table_a[grid_a.mask].sum()
    table_b /= table_b[grid_b.mask].sum()
    mass = {}
    for pt, v in zip(grid_a.points(), table_a[grid_a.mask]):
        mass[tuple(pt)] = [v, 0.0]
    for pt, v in zip(grid_b.points(), table_b[grid_b.mask]):
        mass.setdefault(tuple(pt), [0.0, 0.0])[1] = v
    expected = 0.5 * math.fsum(abs(a - b) for a, b in mass.values())
    tv = tv_distance_tables(table_a, grid_a, table_b, grid_b)
    assert tv == pytest.approx(expected, abs=1e-15)
    assert tv_distance_tables(table_b, grid_b, table_a, grid_a) == tv


def test_grid_window_uses_whitened_norm(ctx, diag_ctx):
    # the harmonic window is the max-norm box inscribed in {|M y|_inf <= L}: the
    # grid every other stage builds, at the radius L / |M|_inf; the box ends one
    # longest step beyond the window's edge on each side, with no empty row
    for c, edge in ((ctx, 50), (diag_ctx, 92)):      # floor(L / |M|_inf)
        tabs, M = c.harmonic, c.whitening.M
        grid = make_grid(c.cone, tabs.L / np.linalg.norm(M, np.inf), c.cramer.tilted)
        assert np.array_equal(tabs.grid.lo, grid.lo) and tabs.grid.shape == grid.shape
        assert np.array_equal(tabs.grid.mask, grid.mask)
        pts = tabs.grid.points()
        assert np.max(np.abs(pts)) == edge
        assert np.max(np.abs(pts @ M.T)) <= tabs.L
        pad = int(np.max(np.abs(c.cramer.tilted.support)))
        assert tabs.grid.shape == (edge + 2 * pad,) * 2     # 52 and 94


def test_grid_contains_round_trip(quadrant, nn4):
    grid = make_grid(quadrant, 6, nn4)
    pts = grid.points().tolist()
    for pt in ([1, 1], [3, 6], [6, 2]):
        assert grid.contains(np.array(pt))
        assert pt in pts
    assert len(pts) == 36
    # (0, 3) is a box cell off the cone, (7, 3) a cone cell off the window
    assert not grid.contains(np.array([0, 3])) and not grid.in_cone[tuple([0, 3] - grid.lo)]
    assert not grid.contains(np.array([7, 3])) and grid.in_cone[tuple([7, 3] - grid.lo)]
    assert not grid.contains(np.array([99, 1]))
    assert np.array_equal(grid.mask, grid.in_cone & (np.abs(grid.coords).max(axis=-1) <= 6))


def test_admit_checks_the_cone_then_the_window(quadrant, nn4):
    grid = make_grid(quadrant, 6, nn4)
    admitted = admit(quadrant, [[1, 1], [6, 2]], "start", grid, "DP window L = 6")
    assert admitted.dtype.kind == "i" and admitted.tolist() == [[1, 1], [6, 2]]
    assert admit(quadrant, (9, 9), "pipeline.x0").tolist() == [9, 9]    # no grid: the cone only
    # (0, 9) is off both the cone and the window, and the cone is named; each message
    # names the first point refused
    for pts, text in (([[1, 1], [0, 9], [7, 3]], "[0, 9] lies outside the open orthant cone"),
                      ([[1, 1], [7, 3], [0, 9]], "[7, 3] lies outside the DP window L = 6"),
                      ([1, 1, 1], "[1, 1, 1] needs 2 coordinates")):
        with pytest.raises(ConfigError, match="^start " + re.escape(text) + "$"):
            admit(quadrant, pts, "start", grid, "DP window L = 6")


@pytest.mark.parametrize("cone", [ConeSpec.orthant(2), ConeSpec.wedge2d(0.75 * np.pi, 0.3),
                                  ConeSpec.orthant(3)], ids=["quadrant", "wedge", "octant"])
def test_points_in_lexicographic_order(cone):
    # CSV writers rely on it and sort nothing themselves
    law = StepLaw(support=np.vstack([np.eye(cone.dim, dtype=int), -np.eye(cone.dim, dtype=int)]),
                  probs=np.full(2 * cone.dim, 0.5 / cone.dim))
    pts = make_grid(cone, 7.5, law).points()
    assert len(pts) > 10
    assert np.array_equal(pts, pts[np.lexsort(pts.T[::-1])])


@pytest.mark.parametrize("cone, side", [
    (ConeSpec.orthant(2), 100), (ConeSpec.orthant(3), 44),
    (ConeSpec.halfspace([1.0, 2.0]), 101), (ConeSpec.halfspace([1.0, 2.0, 3.0]), 45)],
    ids=["quadrant", "octant", "halfplane", "halfspace-3d"])
def test_budget_window_holds_an_exact_power(cone, side, monkeypatch):
    # a budget of exactly side^d box cells holds make_grid's box of that side, one
    # byte less only a smaller one; 44^3 = 85184 has the float cube root 43.99999999999999
    d, cell_bytes = cone.dim, 8 * (24 + cone.dim)
    law = StepLaw(support=np.vstack([2 * np.eye(d, dtype=int), -np.eye(d, dtype=int)]),
                  probs=np.array([1 / 3] * d + [2 / 3] * d) / d)    # pad 2
    for budget in (cell_bytes * side ** d, cell_bytes * side ** d - 1):
        monkeypatch.setattr(_lattice, "MAX_BYTES", budget)
        L = budget_window(cone, 2, cell_bytes)
        fits, over = (make_grid(cone, w, law).shape[0] for w in (L, L + 1))
        assert fits ** d * cell_bytes <= budget < over ** d * cell_bytes
        assert (fits == side) == (budget % cell_bytes == 0)


@pytest.mark.parametrize("seed", range(20))
def test_walk_reach_is_the_sure_reach_or_freedman_bound(seed):
    # tol = 0 gives |x| + n max|z| exactly; otherwise, per coordinate i and sign, the
    # start plus a = R l / 3 + sqrt((R l / 3)^2 + 2 n v l) plus the drift, with R the
    # largest |z_i - mu_i| and v the variance of z_i, in plain floats
    support, starts = noncollinear_support(seed)
    rng = np.random.default_rng(seed)
    weights = rng.integers(1, 5, len(support))
    law = StepLaw(support=support, probs=weights / weights.sum())
    n = int(rng.integers(1, 400))
    sure = int(np.abs(starts).max()) + n * int(np.abs(support).max())
    assert walk_reach(starts, n, law) == sure and type(walk_reach(starts, n, law)) is int
    for tol in (0.5, 1e-12):
        ell, far = math.log(2 * law.dim / tol), -math.inf
        for i, sign in itertools.product(range(law.dim), (1, -1)):
            mu = float(law.probs @ support[:, i])
            dev = [float(z) - mu for z in support[:, i]]
            r = max(map(abs, dev)) * ell / 3
            v = float(law.probs @ np.square(dev))
            a = r + math.sqrt(r * r + 2 * n * v * ell)
            far = max(far, max(sign * starts[:, i]) + a + n * abs(mu))
        assert walk_reach(starts, n, law, tol) == min(sure, math.ceil(far))


@pytest.mark.parametrize("seed", range(40))
def test_padded_box_holds_every_neighbour(seed):
    law, cone, L = padded_box_case(seed)
    grid = make_grid(cone, L, law)
    kernel = KilledKernel(grid, law)
    off = (grid.points()[:, None, :] + law.support[None, :, :]) - grid.lo
    assert np.all((off >= 0) & (off < np.asarray(grid.shape)))
    assert np.array_equal(grid.in_cone, cone_contains(
        cone, grid.coords.reshape(-1, grid.dim)).reshape(grid.shape))
    expected = pointwise_leak(grid, law, cone)
    assert np.array_equal(kernel.leak, expected)
    assert np.array_equal(kernel.interior, grid.mask & (expected == 0.0))


def reference_step(a, law, sign):
    """The per-axis stencil: one clipped ``shift_add`` of sign * z per step, in order."""
    out = np.zeros(a.shape)
    for z, p in zip(law.support, law.probs):
        shift_add(out, a, sign * z, p)
    return out


@pytest.mark.parametrize("seed", range(40))
def test_flat_step_matches_per_axis_reference(seed):
    # the flat-offset contract, bit for bit: forward, backward and the mask cells
    # of push and pull for any input; every cell of push and pull for an input
    # that is zero off the mask
    law, cone, L = padded_box_case(seed)
    grid = make_grid(cone, L, law)
    kernel = KilledKernel(grid, law)
    a = np.random.default_rng([seed, 1]).standard_normal(grid.shape)   # apart from the case's
    on_mask = np.where(grid.mask, a, 0.0)
    push, pull = reference_step(a, law, 1), reference_step(a, law, -1)
    assert np.array_equal(kernel.push(a)[grid.mask], push[grid.mask])
    assert np.array_equal(kernel.pull(a)[grid.mask], pull[grid.mask])
    assert np.array_equal(kernel.forward(a), np.where(grid.mask, push, 0.0))
    assert np.array_equal(kernel.backward(a), np.where(grid.mask, pull, 0.0))
    assert np.array_equal(kernel.push(on_mask), reference_step(on_mask, law, 1))
    assert np.array_equal(kernel.pull(on_mask), reference_step(on_mask, law, -1))
    # gather reads the same neighbours: column j holds a[x + z_j] on the window
    for j, z in enumerate(law.support):
        shifted = np.zeros(grid.shape)
        shift_add(shifted, a, -z, 1.0)
        assert np.array_equal(kernel.gather(a)[:, j], shifted[grid.mask])


def _box_cone_passes(tree):
    """Functions that call ``cone_contains`` and also read some grid's ``coords``."""
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        nodes = list(ast.walk(fn))
        calls = any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "cone_contains"
                    for n in nodes)
        coords = any(isinstance(n, ast.Attribute) and n.attr == "coords" for n in nodes)
        if calls and coords:
            yield fn.name


def _callers(tree, name):
    """Functions that call ``name``, as a bare function or as a method."""
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and any(
                isinstance(n, ast.Call) and name in (getattr(n.func, "id", None),
                                                     getattr(n.func, "attr", None))
                for n in ast.walk(fn)):
            yield fn.name


def test_one_stencil_in_src():
    # every killed-walk step goes through KilledKernel's flat offsets, and the
    # window's cone membership and lattice points are computed once, by
    # make_grid; the per-axis shift_add only maps a table between two boxes
    # (WindowGrid.place), and one push-and-collect (dp_oracle.exit_profile)
    # serves every exit law.  A second hand-written stencil, interior rule,
    # exit push, box-wide cone pass or point mesh anywhere in the package
    # fails here
    lattice = ast.parse((SRC / "_lattice.py").read_text())
    assert list(_callers(lattice, "shift_add")) == ["place"]
    pushers = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "_lattice.py":
            continue
        text = path.read_text()
        tree = ast.parse(text)
        pushers += [f"{path.stem}.{fn}" for fn in _callers(tree, "push")]
        assert "shift_add(" not in text, path.name
        assert "leak == 0" not in text, path.name
        assert "np.meshgrid" not in text and "np.indices" not in text, path.name
        assert list(_box_cone_passes(tree)) == [], path.name
    assert pushers == ["dp_oracle.exit_profile"]


def _scipy_imports(tree):
    """Every import of scipy or of a scipy name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names if a.name.split(".")[0] == "scipy")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
            yield from (f"{node.module}.{a.name}" for a in node.names)


def test_no_scipy_submodule_in_src():
    # the package runs on numpy alone; scipy is a test-only oracle
    for path in sorted(SRC.glob("*.py")):
        assert list(_scipy_imports(ast.parse(path.read_text()))) == [], path.name

