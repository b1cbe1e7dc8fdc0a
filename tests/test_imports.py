"""Commands that never solve a sparse system do not load scipy's submodules.

Each check runs in a fresh interpreter, since the test session itself has
imported scipy long before.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import scipy

import conelab
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
  n_max: 48
  n_hi: 40
  dp_window: 30
  seed: 7
  workers: 1
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


def test_scipy_free_commands_stay_scipy_free(tmp_path):
    config = tmp_path / "nn4.yaml"
    config.write_text(SMALL_NN4_YAML)
    out = _fresh(f"""
        import contextlib, io, sys
        from conelab.cli import main

        def loaded():
            print(sorted(m for m in ("scipy.sparse", "scipy.linalg") if m in sys.modules))

        loaded()
        for command in ("cramer", "whiten", "dp", "simulate"):
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    status = main([command, "--config", {str(config)!r},
                                   "--out", {str(tmp_path / "out")!r}])
            except SystemExit as exc:
                status = exc.code
            print(command, status)
        loaded()
    """)
    after_import, *statuses, after_commands = out.strip().splitlines()
    assert after_import == "[]"
    assert statuses == ["cramer 0", "whiten 0", "dp 0", "simulate 0"]
    assert after_commands == "[]"


def test_manifest_keeps_scipy_version(tmp_path):
    config = tmp_path / "nn4.yaml"
    config.write_text(SMALL_NN4_YAML)
    assert main(["dp", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    (manifest,) = (tmp_path / "out").glob("manifest_dp_*.json")
    assert json.loads(manifest.read_text())["versions"]["scipy"] == scipy.__version__
