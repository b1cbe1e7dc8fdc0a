"""Forked children: results, error markers, reaping, and commands that use them.

``verify all`` runs the driftless scan in a child and ``simulate`` shares its
Monte Carlo blocks among children.  With the usable core count patched to 1
both run inline, which is the serial reference every forked run must match.
"""

import os
import subprocess
import sys
import textwrap
import time
from collections import Counter
from pathlib import Path

import pytest
import yaml
from test_cli import law_yaml

import conelab
from conelab import _fork, analysis
from conelab.cli import main
from conelab.errors import NumericsError, WindowTooSmallError

ROOT = Path(__file__).resolve().parent.parent
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
pipeline: {n_max: 64, n_hi: 40, dp_window: 30, seed: 7, workers: 3}
simulate: {estimator: both, x0: [3, 3], n: 10, n_samples: 3000}
"""


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Two usable cores, whatever the machine has; returns the list of forked pids."""
    pids = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(_fork, "usable_cores", lambda: 2)
    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def test_usable_cores_reads_the_affinity_mask(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert _fork.usable_cores() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert _fork.usable_cores() == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _fork.usable_cores() == 1


def test_child_result_and_error_markers():
    assert _fork.Child(sum, [1, 2, 3]).result() == 6
    with pytest.raises(WindowTooSmallError, match="^window too small$"):
        _fork.Child(_raise, WindowTooSmallError("window too small", 9)).result()
    with pytest.raises(RuntimeError, match="^forked child raised KeyError: 'k'$"):
        _fork.Child(_raise, KeyError("k")).result()
    with pytest.raises(RuntimeError, match="without a result"):
        _fork.Child(os._exit, 0).result()
    assert_no_child()


def _raise(exc):
    raise exc


def _fail_first(item):
    if item == 0:
        raise NumericsError("first share failed")
    time.sleep(60)


def test_failed_share_kills_and_reaps_the_others():
    start = time.perf_counter()
    with pytest.raises(NumericsError, match="first share failed"):
        _fork.run_each(_fail_first, [0, 1])
    assert time.perf_counter() - start < 30
    assert_no_child()


def _shipped(name, tmp_path):
    """A shipped config with its Monte Carlo sample count capped to keep the test short."""
    data = yaml.safe_load((ROOT / "configs" / f"{name}.yaml").read_text())
    data["simulate"]["n_samples"] = min(data["simulate"]["n_samples"], 40_000)
    path = tmp_path / f"{name}.yaml"
    path.write_text(yaml.safe_dump(data))
    return path


def _run(argv, config, out, capsys):
    status = main([*argv, "--config", str(config), "--out", str(out)])
    captured = capsys.readouterr()
    stdout = captured.out.replace(str(out), "OUT")
    return status, stdout, captured.err


@pytest.mark.parametrize("name", ["nn4", "diagonal"])
def test_forked_and_inline_runs_write_the_same_bytes(name, tmp_path, capsys, monkeypatch,
                                                     forks):
    config = _shipped(name, tmp_path)
    runs = {}
    for cores in (2, 1):
        monkeypatch.setattr(_fork, "usable_cores", lambda: cores)
        out = tmp_path / f"cores{cores}"
        runs[cores] = [_run(argv, config, out, capsys)
                       for argv in (["verify", "all"], ["simulate"])]
        runs[cores].append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        if cores == 2:
            # one scan child, then one child per core for each estimator
            assert len(forks) == 1 + 2 + 2
    assert runs[2] == runs[1]
    assert len(runs[1][-1]) == 5
    assert_no_child()


def test_normal_run_leaves_no_child(tmp_path, capsys, forks):
    config = tmp_path / "nn4.yaml"
    config.write_text(SMALL_NN4_YAML)
    assert _run(["verify", "all"], config, tmp_path / "out", capsys)[0] == 1
    assert _run(["simulate"], config, tmp_path / "out", capsys)[0] == 0
    assert len(forks) == 1 + 2 + 2
    assert_no_child()


def test_caller_error_leaves_no_child(tmp_path, capsys, forks):
    # from (1, 1, 1) every step leaves the octant: the first selector reads the
    # DP series before it would fit p to the scan, and names the start at once
    doomed = tmp_path / "doomed.yaml"
    doomed.write_text(law_yaml([(-2, 1, 1), (-1, -2, 2), (-2, -2, -2), (2, 1, -2)],
                               ["1/10", "4/10", "4/10", "1/10"],
                               cone="{kind: orthant, dim: 3}",
                               pipeline=", n_max: 40, n_hi: 32, dp_window: 12"))
    status, _, err = _run(["verify", "all"], doomed, tmp_path / "out", capsys)
    assert (status, err) == (2, "configuration error: no path from [1, 1, 1] survives "
                                "to n_hi = 32: the start cannot stay in the cone\n")
    assert len(forks) == 1
    assert_no_child()


def test_caller_error_kills_the_running_scan(tmp_path, capsys, monkeypatch, forks):
    # from (1, 1) every step leaves the quadrant; p comes from the image cone,
    # so the caller fails on its own DP series while the scan child still runs
    doomed = tmp_path / "doomed2d.yaml"
    doomed.write_text(law_yaml([(-1, 3), (3, -1), (-1, -1)], ["2/10", "2/10", "6/10"],
                               pipeline=", n_max: 56, n_hi: 48, dp_window: 12"))
    monkeypatch.setattr(analysis, "survival_scan", lambda *args: time.sleep(60))
    start = time.perf_counter()
    forked = _run(["verify", "all"], doomed, tmp_path / "out", capsys)
    assert time.perf_counter() - start < 30
    assert len(forks) == 1
    assert_no_child()
    monkeypatch.setattr(_fork, "usable_cores", lambda: 1)
    assert forked == _run(["verify", "all"], doomed, tmp_path / "out", capsys)
    assert forked[0] == 2
    assert "no path from [1, 1] survives to n_hi = 48" in forked[2]


def test_scan_error_in_the_child_exits_3_as_inline(tmp_path, capsys, monkeypatch, forks):
    def failing_scan(*args):
        raise NumericsError("scan diverged")

    config = tmp_path / "nn4.yaml"
    config.write_text(SMALL_NN4_YAML)
    monkeypatch.setattr(analysis, "survival_scan", failing_scan)
    forked = _run(["verify", "all"], config, tmp_path / "out", capsys)
    assert len(forks) == 1
    assert_no_child()
    monkeypatch.setattr(_fork, "usable_cores", lambda: 1)
    assert forked == _run(["verify", "all"], config, tmp_path / "out", capsys)
    assert forked == (3, "", "numerical error: scan diverged\n")


CHAIN = """\
import sys
import conelab._fork
conelab._fork.usable_cores = lambda: int(sys.argv[1])
from conelab.cli import main
for command in sys.argv[2].split(","):
    main([*command.split(), "--config", sys.argv[3], "--out", sys.argv[4]])
"""


@pytest.mark.parametrize("commands", ["simulate,verify all", "verify all,simulate"])
def test_piped_stdout_is_written_once(commands, tmp_path):
    # stdout to a pipe is block-buffered, so a child forked by the second
    # command holds the first command's lines unflushed; it must not write them
    config = tmp_path / "nn4.yaml"
    config.write_text(SMALL_NN4_YAML)
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    stdout = {}
    for cores in ("2", "1"):
        done = subprocess.run([sys.executable, "-c", textwrap.dedent(CHAIN), cores,
                               commands, str(config), str(tmp_path / "out")],
                              env=env, stdout=subprocess.PIPE, text=True, timeout=120)
        assert done.returncode == 0
        stdout[cores] = done.stdout
    assert stdout["2"] == stdout["1"]
    counts = Counter(stdout["2"].splitlines())
    assert not [line for line, n in counts.items() if n > 1 and not line.startswith("    ")]
    assert sum(line.startswith("wrote ") for line in counts) == 5
