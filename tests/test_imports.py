"""No command loads scipy, multiprocessing, concurrent.futures or numpy.ma: the
package runs on numpy alone, forks its children without a pool and masks no
array.  No module imports a name it never reads, and no window sum goes through
BLAS, whose rounding follows its thread count.

Each load check runs in a fresh interpreter, since the test session itself has
imported scipy long before.
"""

import ast
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import conelab
from conelab.analysis import SELECTORS
from conelab.cli import main

SRC = str(Path(conelab.__file__).resolve().parent.parent)

SMALL_NN4_YAML = """\
model:
  law:
    steps:
      - {step: [1, 0],  prob: 1/8}
      - {step: [-1, 0], prob: 3/8}
      - {step: [0, 1],  prob: 1/8}
      - {step: [0, -1], prob: 3/8}
  cone: {kind: orthant, dim: 2}
pipeline:
  n_max: 64
  n_hi: 40
  dp_window: 30
  seed: 7
  workers: 2
simulate: {estimator: both, x0: [3, 3], n: 10, n_samples: 300}
output: {dir: out}
"""
# the same walk on a 30-degree wedge, which excludes scan_grid's starts: the driftless
# scan runs from the cone's axis, where every step from (1, 1) leaves the cone
WEDGE_NN4_YAML = SMALL_NN4_YAML.replace(
    "cone: {kind: orthant, dim: 2}",
    "cone: {kind: wedge2d, beta: 0.5235987755982988, theta0: 0.5235987755982988}").replace(
    "pipeline:\n", "pipeline:\n  x0: [3, 3]\n  ratio_start: [4, 4]\n  bridge_endpoint: [4, 4]\n"
    "  harmonic_window: 40\n") + "zchain: {x0: [3, 3]}\n"


def _fresh(code, **variables):
    """Run ``code`` in a new interpreter that imports conelab from this tree, with the
    environment ``variables`` set."""
    env = dict(os.environ, **variables)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


SCIPY_FREE = (["cramer"], ["whiten"], ["dp"], ["simulate"], ["harmonic"], ["qsd"],
              ["zchain"], *(["verify", selector] for selector in SELECTORS),
              ["verify", "all"])


@pytest.fixture(scope="module")
def loaded_after_each_command(tmp_path_factory):
    """(config, argv, exit status, loaded modules) after import and after each command
    on each config, in one interpreter: a module stays listed from the command that
    loads it on.

    The modules listed are those under scipy, multiprocessing, concurrent and
    numpy.ma: scipy is not needed, forked children replace the pool, and numpy.ma,
    which a plain ``np.unique`` imports, costs import time and memory.
    """
    tmp_path = tmp_path_factory.mktemp("imports")
    paths = {}
    for name, text in (("nn4", SMALL_NN4_YAML), ("wedge", WEDGE_NN4_YAML)):
        paths[name] = str(tmp_path / f"{name}.yaml")
        Path(paths[name]).write_text(text)
    out = _fresh(f"""
        import contextlib, io, json, sys
        from conelab.cli import main

        def loaded():
            return sorted(m for m in sys.modules
                          if m.split(".")[0] in ("scipy", "multiprocessing", "concurrent")
                          or m.split(".")[:2] == ["numpy", "ma"])

        print(json.dumps([None, ["import"], None, loaded()]))
        for name, path in {paths!r}.items():
            for argv in {SCIPY_FREE!r}:
                try:
                    with contextlib.redirect_stdout(io.StringIO()):
                        status = main([*argv, "--config", path,
                                       "--out", {str(tmp_path / "out")!r} + "_" + name])
                except SystemExit as exc:
                    status = exc.code
                print(json.dumps([name, argv, status, loaded()]))
    """)
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert [row[:2] for row in rows] == [[None, ["import"]], *(
        [name, list(argv)] for name in paths for argv in SCIPY_FREE)]
    return rows


def test_scipy_free_commands_stay_scipy_free(loaded_after_each_command):
    for config, argv, status, modules in loaded_after_each_command:
        assert not [m for m in modules if m.split(".")[0] == "scipy"], (config, argv)
        # verify may exit 1 (the period-2 rows fail); every other command exits 0
        assert status in ((None,) if argv == ["import"] else
                          (0, 1) if argv[0] == "verify" else (0,)), (config, argv)


def test_no_command_loads_a_process_pool(loaded_after_each_command):
    for config, argv, _, modules in loaded_after_each_command:
        assert not [m for m in modules if m.split(".")[0] in ("multiprocessing", "concurrent")
                    ], (config, argv)


def test_no_command_loads_numpy_ma(loaded_after_each_command):
    for config, argv, _, modules in loaded_after_each_command:
        assert not [m for m in modules if m.split(".")[:2] == ["numpy", "ma"]], (config, argv)


def test_manifest_versions_name_conelab_and_numpy(tmp_path):
    config = tmp_path / "nn4.yaml"
    config.write_text(SMALL_NN4_YAML)
    assert main(["dp", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    (manifest,) = (tmp_path / "out").glob("manifest_dp_*.json")
    versions = json.loads(manifest.read_text())["versions"]
    assert versions == {"conelab": conelab.__version__, "numpy": np.__version__}


MODULES = sorted(p for p in Path(conelab.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_reads_every_name_it_imports(path):
    """An unused import, which no linter here would catch, fails by name and line."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                getattr(node, "module", None) != "__future__":
            for alias in node.names:            # ``import a.b`` binds ``a``
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert {name: line for name, line in imported.items() if name not in read} == {}



def _sites(matches, skip=()):
    """(module, enclosing function, line) of each node in ``src/`` that ``matches``
    accepts, outside every node of a ``skip`` type, modules in name order."""
    sites = []
    for path in sorted(Path(conelab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        # ast.walk goes outside in, so a nested function's name overwrites its parent's
        enclosing = {child: func.name for func in ast.walk(tree)
                     if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                     for child in ast.walk(func)}
        skipped = {part for node in ast.walk(tree) if isinstance(node, skip)
                   for part in ast.walk(node)}
        sites += [(path.stem, enclosing.get(node), node.lineno) for node in ast.walk(tree)
                  if node not in skipped and matches(node)]
    return sites


def test_window_growth_has_one_catch_site():
    """Only ``_lattice.grow_window`` catches WindowTooSmallError: every stage that
    grows a window retries through that one loop, and none keeps a loop of its own."""
    sites = _sites(lambda node: isinstance(node, ast.ExceptHandler) and node.type is not None
                   and "WindowTooSmallError" in ast.unparse(node.type))
    assert [site[:2] for site in sites] == [("_lattice", "grow_window")], sites


def test_only_lattice_sizes_a_window_from_the_budget():
    """Outside ``_lattice``, whose ``budget_window`` turns MAX_BYTES into the largest
    window a box holds, the budget is only formatted into messages."""
    sites = [site for site in _sites(
        lambda node: isinstance(node, ast.Name) and node.id == "MAX_BYTES"
        or isinstance(node, ast.Attribute) and node.attr == "MAX_BYTES", skip=ast.JoinedStr)
        if site[0] != "_lattice"]
    assert sites == [], sites


def test_no_dense_inverse():
    """No module inverts a matrix: every window operator is applied matrix-free, and
    a first threaded inverse in a process can stall for most of a second."""
    sites = _sites(lambda node: isinstance(node, ast.Attribute) and node.attr == "inv"
                   or isinstance(node, ast.ImportFrom) and "inv" in [a.name for a in node.names])
    assert sites == [], sites


OFF_POINT = re.compile(r"(outside|not inside) the (open|[^'\"]*window)")


def test_only_lattice_admits_a_point():
    """Only ``_lattice.admit`` raises a ConfigError that puts a point outside the open
    cone or a window: every stage admits its starts and endpoints through it."""
    sites = _sites(lambda node: isinstance(node, ast.Call)
                   and ast.unparse(node.func) == "ConfigError" and node.args
                   and OFF_POINT.search(ast.unparse(node.args[0])))
    assert {site[:2] for site in sites} == {("_lattice", "admit")}, sites


def test_harmonic_hypotheses_have_one_site():
    """Only ``analysis.PipelineContext.harmonic`` refuses a (law, cone) outside the
    harmonic tables' hypotheses: a selector that needs them reads the tables first,
    and none checks the hypotheses by hand."""
    for refusal in ("no closed-form image cone", "acute-angle condition fails"):
        sites = _sites(lambda node: isinstance(node, ast.Raise)
                       and refusal in ast.unparse(node))
        assert [site[:2] for site in sites] == [("analysis", "harmonic")], (refusal, sites)


# sha256 of the diagonal walk's harmonic tables past OpenBLAS's 10,000-element
# threading cut (harmonic window 120: 13,225 states), and of the octant walk's DP exit
# mass, whose sums spanned as many cells
THREAD_PROBE = """
    import hashlib
    import numpy as np
    from conelab.analysis import PipelineContext, VerifyParams
    from conelab.dp_oracle import dp_evolve
    from conelab.model import ConeSpec, StepLaw

    def sha(*arrays):
        return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()

    diagonal = StepLaw(support=np.array([[1, 1], [-1, -1], [1, -1], [-1, 1]]),
                       probs=np.array([1 / 8, 3 / 8, 1 / 4, 1 / 4]))
    tabs = PipelineContext(diagonal, ConeSpec.orthant(2),
                           VerifyParams(harmonic_window=120.0)).harmonic
    assert tabs.grid.n_states > 10_000
    print(sha(tabs.V, tabs.Vprime, tabs.Uprime), tabs.convergence_residual.hex())
    octant = StepLaw(support=np.vstack([np.eye(3, dtype=int), -np.eye(3, dtype=int)]),
                     probs=np.array([1 / 12] * 3 + [3 / 12] * 3))
    series = dp_evolve(octant, ConeSpec.orthant(3), (1, 1, 1), 80,
                       rescale_by=np.sqrt(3) / 2, L=60)
    print(sha(series.survival, series.exit_mass))
"""


def test_window_sums_do_not_depend_on_the_blas_thread_count():
    """The same bytes under one BLAS thread and two: every window sum goes through
    ``_lattice.dot``, and through BLAS these sums were rounded per thread count."""
    one, two = (_fresh(THREAD_PROBE, OPENBLAS_NUM_THREADS=str(n)) for n in (1, 2))
    assert one == two


BLAS_CALLS = ("np.linalg.norm", "np.dot", "np.vdot", "np.inner")


def _function(module, name):
    tree = ast.parse((Path(conelab.__file__).parent / f"{module}.py").read_text())
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


@pytest.mark.parametrize("module, name", [("harmonic", "_solve_killed_harmonic"),
                                          ("dp_oracle", "_evolve")])
def test_window_sums_go_through_lattice_dot(module, name):
    """No ``@`` and no BLAS reduction: the function sums through ``_lattice.dot``."""
    func = _function(module, name)
    calls = [ast.unparse(node.func) for node in ast.walk(func) if isinstance(node, ast.Call)]
    matmuls = [ast.unparse(node) for node in ast.walk(func)
               if isinstance(node, (ast.BinOp, ast.AugAssign))
               and isinstance(node.op, ast.MatMult)]
    assert matmuls == [] and [c for c in calls if c in BLAS_CALLS] == []
    assert {"_lattice.dot", "_lattice.norm"} & set(calls)


def test_spectral_keeps_no_norm_of_its_own():
    tree = ast.parse((Path(conelab.__file__).parent / "spectral.py").read_text())
    assert "_norm" not in {node.name for node in ast.walk(tree)
                           if isinstance(node, ast.FunctionDef)}
