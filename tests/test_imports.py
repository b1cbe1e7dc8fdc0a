"""No command loads scipy, multiprocessing or concurrent.futures: the package
runs on numpy alone and forks its children without a pool.  No module imports
a name it never reads.

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


def _fresh(code):
    """Run ``code`` in a new interpreter that imports conelab from this tree."""
    env = dict(os.environ)
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
    """(argv, exit status, loaded modules) after import and after each command.

    The modules listed are those under scipy, multiprocessing and
    concurrent: scipy is not needed, and forked children replace the pool.
    """
    tmp_path = tmp_path_factory.mktemp("imports")
    config = tmp_path / "nn4.yaml"
    config.write_text(SMALL_NN4_YAML)
    out = _fresh(f"""
        import contextlib, io, json, sys
        from conelab.cli import main

        def loaded():
            return sorted(m for m in sys.modules
                          if m.split(".")[0] in ("scipy", "multiprocessing", "concurrent"))

        print(json.dumps([["import"], None, loaded()]))
        for argv in {SCIPY_FREE!r}:
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    status = main([*argv, "--config", {str(config)!r},
                                   "--out", {str(tmp_path / "out")!r}])
            except SystemExit as exc:
                status = exc.code
            print(json.dumps([argv, status, loaded()]))
    """)
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert [argv for argv, _, _ in rows] == [["import"], *map(list, SCIPY_FREE)]
    return rows


def test_scipy_free_commands_stay_scipy_free(loaded_after_each_command):
    for argv, status, modules in loaded_after_each_command:
        assert not [m for m in modules if m.split(".")[0] == "scipy"], argv
        # verify may exit 1 (the period-2 rows fail); every other command exits 0
        assert status in ((None,) if argv == ["import"] else
                          (0, 1) if argv[0] == "verify" else (0,)), argv


def test_no_command_loads_a_process_pool(loaded_after_each_command):
    for argv, _, modules in loaded_after_each_command:
        assert modules == [], argv


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
