import contextlib
import dataclasses
import hashlib
import io
import json
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from cases import small_law
from test_imports import WEDGE_NN4_YAML

from conelab import _lattice, analysis, harmonic, spectral
from conelab.analysis import PipelineContext
from conelab.cli import CSV_BLOCK, SECTIONS, _write_csv, main, parse_run_config
from conelab.errors import ConfigError

NN4_YAML = """\
model:
  law:
    steps:
      - {step: [1, 0],  prob: 1/8}
      - {step: [-1, 0], prob: 3/8}
      - {step: [0, 1],  prob: 1/8}
      - {step: [0, -1], prob: 3/8}
  cone: {kind: orthant, dim: 2}
pipeline:
  n_max: 96
  n_hi: 72
  dp_window: 40
  harmonic_window: 72
  qsd_window: 20
  qsd_sweep: [12, 20]
  seed: 99
  workers: 2
simulate: {estimator: both, x0: [3, 3], n: 12, n_samples: 20000}
zchain: {x0: [1, 1], n_steps: 40, n_paths: 50}
output: {dir: out}
"""


OCTANT_YAML = """\
model:
  law:
    steps:
      - {step: [1, 0, 0],  prob: 1/12}
      - {step: [-1, 0, 0], prob: 3/12}
      - {step: [0, 1, 0],  prob: 1/12}
      - {step: [0, -1, 0], prob: 3/12}
      - {step: [0, 0, 1],  prob: 1/12}
      - {step: [0, 0, -1], prob: 3/12}
  cone: {kind: orthant, dim: 3}
pipeline:
  n_max: 64
  n_hi: 56
  harmonic_window: 30
  x0: [1, 1, 1]
  ratio_start: [2, 2, 2]
  bridge_endpoint: [2, 2, 2]
simulate: {x0: [3, 3, 3]}
zchain: {x0: [1, 1, 1]}
"""

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def edited_config(tmp_path, family, line, edited):
    """The shipped config of ``family`` with one line edited."""
    text = (CONFIGS / f"{family}.yaml").read_text()
    assert line in text
    path = tmp_path / f"{family}_edited.yaml"
    path.write_text(text.replace(line, edited))
    return path


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "nn4.yaml"
    path.write_text(NN4_YAML)
    return path


def test_rational_probabilities_parse_exactly(config_path):
    config = parse_run_config(config_path)
    assert config.law.probs.tolist() == [0.125, 0.375, 0.125, 0.375]
    assert config.params.seed == 99
    assert config.params.workers == 2


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text(NN4_YAML.replace("n_max: 96", "n_max: 96\n  bogus_key: 1"))
    with pytest.raises(ConfigError, match="bogus_key"):
        parse_run_config(path)


@pytest.mark.parametrize("flag, value", [("--workers", "0"), ("--seed", "-5"),
                                         ("--workers", "-2")])
def test_bad_seed_or_workers_exits_2(config_path, tmp_path, capsys, flag, value):
    status = main(["simulate", "--config", str(config_path), flag, value,
                   "--out", str(tmp_path / "out")])
    assert status == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and flag[2:] in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line, bad", [("workers: 2", "workers: 0"),
                                       ("seed: 99", "seed: -1")])
def test_bad_seed_or_workers_in_yaml_rejected(tmp_path, line, bad):
    path = tmp_path / "bad.yaml"
    path.write_text(NN4_YAML.replace(line, bad))
    with pytest.raises(ConfigError, match=line.split(":")[0]):
        parse_run_config(path)


STEPS = NN4_YAML[NN4_YAML.index("    steps:"):NN4_YAML.index("  cone:")]


@pytest.mark.parametrize("line, bad, named", [
    ("- {step: [1, 0],  prob: 1/8}", "- {step: [1, 0]}",
     "model.law.steps[0]: missing key 'prob'"),
    ("cone: {kind: orthant, dim: 2}", "cone: {kind: wedge2d}",
     "model.cone: missing key 'beta'"),
    ("- {step: [1, 0],  prob: 1/8}", '- {step: [1, "x"], prob: 1/8}',
     "model.law.steps[0].step: cannot read [1, 'x']"),
    ("n_max: 96", "n_max: many", "pipeline.n_max: cannot read 'many'"),
    (STEPS, "    steps: [1, 2]\n", "model.law.steps[0] must be a mapping"),
    ("n_hi: 72", "n_hi: 0", "pipeline.n_hi must be at least 3, got 0"),
    ("n_hi: 72", "n_hi: 500", "pipeline.n_hi must be at most n_max = 96, got 500"),
    ("n_hi: 72", "n_hi: 72\n  x0: [1, 1, 1]", "pipeline.x0 needs 2 coordinates, got 3"),
    ("n_hi: 72", "n_hi: 72\n  ratio_start: [2]",
     "pipeline.ratio_start needs 2 coordinates, got 1"),
    ("n_hi: 72", "n_hi: 72\n  bridge_endpoint: [2, 2, 2]",
     "pipeline.bridge_endpoint needs 2 coordinates, got 3"),
    ("x0: [3, 3]", "x0: [3, 3, 3]", "simulate.x0 needs 2 coordinates, got 3"),
    ("x0: [1, 1], n_steps", "x0: [1, 1, 1], n_steps", "zchain.x0 needs 2 coordinates, got 3"),
    ("n: 12,", "n: -5,", "simulate.n must be at least 0, got -5"),
    ("n_steps: 40", "n_steps: -1", "zchain.n_steps must be at least 1, got -1"),
    ("n_paths: 50", "n_paths: 0", "zchain.n_paths must be at least 2, got 0"),
    # an integer key never truncates a fraction or reads a bool as 0 or 1
    ("- {step: [1, 0],  prob: 1/8}", "- {step: [1.5, 0],  prob: 1/8}",
     "model.law.steps[0].step: cannot read [1.5, 0]"),
    ("- {step: [1, 0],  prob: 1/8}", "- {step: [true, 0],  prob: 1/8}",
     "model.law.steps[0].step: cannot read [True, 0]"),
    ("n_max: 96", "n_max: 400.7", "pipeline.n_max: cannot read 400.7"),
    ("n_hi: 72", "n_hi: 72\n  x0: [1.9, 1]", "pipeline.x0: cannot read [1.9, 1]"),
    ("qsd_sweep: [12, 20]", "qsd_sweep: [12, 20.5]", "pipeline.qsd_sweep: cannot read"),
    ("workers: 2", "workers: 3.9", "pipeline.workers: cannot read 3.9"),
    ("seed: 99", "seed: true", "pipeline.seed: cannot read True"),
    ("dim: 2}", "dim: 2.5}", "model.cone.dim: cannot read 2.5"),
    ("n: 12,", "n: 12.5,", "simulate.n: cannot read 12.5"),
    ("x0: [3, 3]", "x0: [3.5, 3]", "simulate.x0: cannot read [3.5, 3]"),
    ("n_paths: 50", "n_paths: 50.5", "zchain.n_paths: cannot read 50.5"),
    # each cone kind takes only its own keys
    ("cone: {kind: orthant, dim: 2}", "cone: {kind: orthant, dim: 2, beta: 1.0, normal: [1, 0]}",
     "model.cone of kind orthant: unknown key(s) ['beta', 'normal']"),
    ("cone: {kind: orthant, dim: 2}", "cone: {kind: wedge2d, beta: 1.5, dim: 2}",
     "model.cone of kind wedge2d: unknown key(s) ['dim']"),
    ("cone: {kind: orthant, dim: 2}", "cone: {kind: halfspace, normal: [1, 0], dim: 2}",
     "model.cone of kind halfspace: unknown key(s) ['dim']"),
    ("cone: {kind: orthant, dim: 2}", "cone: {kind: halfspace, normal: [1, 0], theta0: 0}",
     "model.cone of kind halfspace: unknown key(s) ['theta0']"),
    # a window or a sample count below 1 is a bad config, not a crash in numpy
    ("dp_window: 40", "dp_window: -5", "pipeline.dp_window must be at least 1, got -5"),
    ("harmonic_window: 72", "harmonic_window: -5",
     "pipeline.harmonic_window must be at least 1, got -5"),
    ("qsd_window: 20", "qsd_window: -5", "pipeline.qsd_window must be at least 1, got -5"),
    ("n_samples: 20000", "n_samples: 0", "simulate.n_samples must be at least 1, got 0"),
    # a float key takes finite numbers only: no infinity, nan, bool or string
    ("harmonic_window: 72", "harmonic_window: .inf",
     "pipeline.harmonic_window: cannot read inf"),
    ("harmonic_window: 72", "harmonic_window: .nan",
     "pipeline.harmonic_window: cannot read nan"),
    ("harmonic_window: 72", "harmonic_window: true",
     "pipeline.harmonic_window: cannot read True"),
    ("harmonic_window: 72", 'harmonic_window: "72"',
     "pipeline.harmonic_window: cannot read '72'"),
    ("cone: {kind: orthant, dim: 2}", "cone: {kind: wedge2d, beta: 1.5, theta0: .inf}",
     "model.cone.theta0: cannot read inf"),
    ("harmonic_window: 72", "harmonic_window: 1" + "0" * 400,
     "pipeline.harmonic_window: cannot read 1000"),
    # nan passes every bound a probability or a normal is held to
    ("- {step: [1, 0],  prob: 1/8}", "- {step: [1, 0],  prob: .nan}",
     "step [1, 0] has probability nan"),
    ("cone: {kind: orthant, dim: 2}", "cone: {kind: halfspace, normal: [.nan, 1]}",
     "normal of matching dimension, got [nan, 1.0]"),
], ids=["no-prob", "wedge-no-beta", "step-not-int", "n_max-not-int", "step-not-mapping",
        "n_hi-zero", "n_hi-above-n_max", "x0-dim", "ratio_start-dim",
        "bridge_endpoint-dim", "simulate-x0-dim", "zchain-x0-dim", "simulate-n-negative",
        "zchain-n_steps-negative", "zchain-n_paths-zero", "step-fraction", "step-bool",
        "n_max-fraction", "x0-fraction", "qsd_sweep-fraction", "workers-fraction",
        "seed-bool", "cone-dim-fraction", "simulate-n-fraction", "simulate-x0-fraction",
        "zchain-n_paths-fraction", "orthant-foreign-keys", "wedge-dim", "halfspace-dim",
        "halfspace-theta0", "dp_window-negative", "harmonic_window-negative",
        "qsd_window-negative", "simulate-n_samples-zero", "harmonic_window-inf",
        "harmonic_window-nan", "harmonic_window-bool", "harmonic_window-string",
        "wedge-theta0-inf", "harmonic_window-beyond-float", "prob-nan",
        "halfspace-normal-nan"])
def test_malformed_config_exits_2(tmp_path, capsys, line, bad, named):
    path = tmp_path / "bad.yaml"
    path.write_text(NN4_YAML.replace(line, bad))
    status = main(["cramer", "--config", str(path), "--out", str(tmp_path / "out")])
    assert status == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and named in err


@pytest.mark.parametrize("value", ["5", "null", "[out]"])
def test_output_dir_that_is_no_path_exits_2(tmp_path, capsys, monkeypatch, value):
    # a number, null or list once reached Path() and exited 4 with a traceback; the key
    # is refused by name whether or not --out overrides it, before anything is written
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "bad.yaml"
    path.write_text(NN4_YAML.replace("output: {dir: out}", f"output: {{dir: {value}}}"))
    for override in ([], ["--out", str(tmp_path / "out")]):
        assert main(["cramer", "--config", str(path), *override]) == 2
        assert "configuration error: output.dir: cannot read" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("name", [f"{section}.{key}" for section, keys in SECTIONS.items()
                                  for key in keys])
def test_unreadable_value_names_its_key(tmp_path, capsys, name):
    # every key of the flat sections refuses a value it cannot read, by name
    section, key = name.split(".")
    data = yaml.safe_load(NN4_YAML)
    data[section][key] = [1.5, 1] if isinstance(SECTIONS[section][key], tuple) else "x"
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(data))
    assert main(["cramer", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and name in err


@pytest.mark.parametrize("line, edited, named", [
    ("- {step: [1, 0],  prob: 1/8}", "- {step: [1, 0],  prob: true}",
     "model.law.steps[0].prob: probability must be a number or 'p/q' string, got True"),
    ("n_max: 400", 'n_max: "400"', "pipeline.n_max: cannot read '400'"),
    ("  x0: [5, 5]", '  x0: "55"', "simulate.x0: cannot read '55'"),
], ids=["prob-bool", "n_max-string", "simulate-x0-string"])
def test_bool_or_string_in_shipped_config_exits_2(tmp_path, capsys, line, edited, named):
    # a bool is no probability, and a quoted number is no integer: neither is
    # read as 1.0, 400 or the start (5, 5)
    text = (CONFIGS / "nn4.yaml").read_text()
    assert text.count(line) == 1
    path = tmp_path / "nn4_edited.yaml"
    path.write_text(text.replace(line, edited))
    status = main(["cramer", "--config", str(path), "--out", str(tmp_path / "out")])
    assert status == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and named in err


@pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.yaml")), ids=lambda p: p.stem)
def test_shipped_configs_parse(config):
    parsed = parse_run_config(config)
    assert parsed.params.n_max == 400
    assert parsed.simulate["x0"] == (5, 5)
    assert parsed.law.probs.sum() == 1.0


def test_missing_config_is_config_error(tmp_path, capsys):
    status = main(["cramer", "--config", str(tmp_path / "nope.yaml")])
    assert status == 2
    assert "configuration error" in capsys.readouterr().err


def test_cramer_command(config_path, tmp_path, capsys):
    status = main(["cramer", "--config", str(config_path),
                   "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert status == 0
    assert "0.549306" in out
    assert "0.866025" in out
    blobs = list((tmp_path / "out").glob("cramer_*.json"))
    assert len(blobs) == 1
    payload = json.loads(blobs[0].read_text())
    assert (payload["sublattice_index"], payload["period"]) == (1, 2)
    assert "aperiodicity" not in payload
    assert abs(payload["c"] - 0.8660254037844386) < 1e-15


def test_collinear_law_exits_2(tmp_path, capsys):
    bad = NN4_YAML.replace("- {step: [1, 0],  prob: 1/8}",
                           "- {step: [1, 1],  prob: 1/8}") \
                  .replace("- {step: [0, 1],  prob: 1/8}",
                           "- {step: [2, 2],  prob: 1/8}") \
                  .replace("- {step: [-1, 0], prob: 3/8}",
                           "- {step: [-1, -1], prob: 3/8}") \
                  .replace("- {step: [0, -1], prob: 3/8}",
                           "- {step: [-2, -2], prob: 3/8}")
    path = tmp_path / "bad.yaml"
    path.write_text(bad)
    status = main(["dp", "--config", str(path), "--out", str(tmp_path / "out")])
    assert status == 2
    assert "collinear" in capsys.readouterr().err


def test_dp_command_csv_contract(config_path, tmp_path, capsys):
    status = main(["dp", "--config", str(config_path),
                   "--out", str(tmp_path / "out")])
    assert status == 0
    csv_files = list((tmp_path / "out").glob("dp_*.csv"))
    assert len(csv_files) == 1
    header = csv_files[0].read_text().splitlines()[0]
    assert header == "n,raw_survival_log,rescaled_b_n"
    # the two octave exponent estimates the Richardson step combines, printed and kept
    (fit_file,) = (tmp_path / "out").glob("dp_fit_*.json")
    fit = json.loads(fit_file.read_text())
    e1, e2 = fit["dyadic_estimates"]
    assert fit["exponent_hat"] == 2.0 * e2 - e1
    assert f"from the octave estimates {e1:.4f}, {e2:.4f}\n" in capsys.readouterr().out


def test_qsd_command_csv_contract(config_path, tmp_path, capsys):
    status = main(["qsd", "--config", str(config_path),
                   "--out", str(tmp_path / "out")])
    assert status == 0
    csv_files = list((tmp_path / "out").glob("qsd_*.csv"))
    header = csv_files[0].read_text().splitlines()[0]
    assert header == "x1,x2,mu"


def test_harmonic_command_csv_contract(config_path, tmp_path, capsys):
    status = main(["harmonic", "--config", str(config_path),
                   "--out", str(tmp_path / "out")])
    assert status == 0
    csv_files = list((tmp_path / "out").glob("harmonic_*.csv"))
    header = csv_files[0].read_text().splitlines()[0]
    assert header == "x1,x2,V,Vprime,U,Uprime"


def test_simulate_command_json_contract(config_path, tmp_path, capsys):
    status = main(["simulate", "--config", str(config_path),
                   "--out", str(tmp_path / "out")])
    assert status == 0
    jl = list((tmp_path / "out").glob("simulate_*.jsonl"))[0]
    records = [json.loads(line) for line in jl.read_text().splitlines()]
    assert {r["estimator"] for r in records} == {"direct", "tilted"}
    for r in records:
        assert set(r) == {"estimator", "value", "std_error", "n_samples",
                          "seed", "workers"}
        assert r["seed"] == 99 and r["workers"] == 2


def test_verify_single_selector_exit_zero(config_path, tmp_path, capsys):
    # exp_moment is robust at this abbreviated horizon; slower ratio limits
    # get their full-horizon treatment in the acceptance suite
    status = main(["verify", "exp_moment", "--config", str(config_path),
                   "--out", str(tmp_path / "out")])
    assert status == 0
    out = capsys.readouterr().out
    assert "[pass] exp_moment.convergent_at_critical" in out


def test_verify_unknown_selector(config_path, tmp_path, capsys):
    status = main(["verify", "plateau", "--config", str(config_path),
                   "--out", str(tmp_path / "out")])
    assert status == 2


def test_selector_on_another_command_exits_2_before_anything_runs(config_path, tmp_path,
                                                                 capsys, monkeypatch):
    monkeypatch.setattr("conelab.cli.parse_run_config", lambda *a, **k: pytest.fail("ran"))
    out = tmp_path / "out"
    assert main(["cramer", "hazard", "--config", str(config_path), "--out", str(out)]) == 2
    assert "cramer takes no selector, got 'hazard'" in capsys.readouterr().err
    assert not out.exists()


def test_verify_without_selector_is_verify_all(config_path, tmp_path, capsys):
    written = []
    for argv in (["verify"], ["verify", "all"]):
        out = tmp_path / "-".join(argv)
        assert main([*argv, "--config", str(config_path), "--out", str(out)]) == 1
        written.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert written[0] == written[1]
    capsys.readouterr()


def test_verify_all_reports_parity_failures(config_path, tmp_path, capsys):
    # this short-horizon config inherits the reference walk's period-2
    # obstruction: the distributional checks cannot pass, so the exit
    # status must be the verification-failure code with the summary intact
    status = main(["verify", "all", "--config", str(config_path),
                   "--out", str(tmp_path / "out")])
    assert status == 1
    summary = list((tmp_path / "out").glob("verify_summary_*.csv"))[0]
    lines = summary.read_text().splitlines()
    assert lines[0] == "check,predicted,measured,deviation,tolerance,pass"
    rows = {line.split(",")[0]: line.split(",")[-1] for line in lines[1:]}
    assert rows["yaglom.tv"] == "False"
    assert rows["exit_law.tv"] == "False"
    assert rows["exp_moment.convergent_at_critical"] == "True"


@pytest.mark.parametrize("selector", ["bridge", "all"])
def test_bridge_zero_at_odd_time_is_a_failing_row(tmp_path, capsys, selector):
    # n_hi = 10 puts the bridge's midpoint times at 3 and 5; the period-2
    # walk cannot sit at x0 at an odd time, so the row fails with its cause
    path = tmp_path / "short.yaml"
    path.write_text(NN4_YAML.replace("n_hi: 72", "n_hi: 10"))
    out = tmp_path / "out"
    assert main(["verify", selector, "--config", str(path), "--out", str(out)]) == 1
    rows = [json.loads(line)
            for line in next(out.glob("verify_*.jsonl")).read_text().splitlines()]
    bridge = next(r for r in rows if r["check"] == "bridge.two_time_ratio")
    assert bridge["pass"] is False
    assert any(note.startswith("structural, not numerical") and "period 2" in note
               for note in bridge["notes"])


@pytest.mark.parametrize("selector", ["bridge", "all"])
def test_bridge_endpoint_without_mass_is_a_failing_row(tmp_path, selector):
    # after an odd number of steps the period-2 walk from (1, 1) cannot sit at
    # the endpoint (2, 2): the row fails with its cause instead of exiting 2
    path = tmp_path / "odd.yaml"
    path.write_text(NN4_YAML.replace("n_hi: 72", "n_hi: 71"))
    out = tmp_path / "out"
    assert main(["verify", selector, "--config", str(path), "--out", str(out)]) == 1
    rows = [json.loads(line)
            for line in next(out.glob("verify_*.jsonl")).read_text().splitlines()]
    bridge = next(r for r in rows if r["check"] == "bridge.two_time_ratio")
    assert bridge["pass"] is False and bridge["measured"] == 0.0
    assert any(note.startswith("structural, not numerical")
               and "endpoint [2, 2] at n = 71" in note and "period 2" in note
               for note in bridge["notes"])


def test_dp_start_past_dp_window_grows_it(tmp_path, capsys):
    # dp_window is a starting size: from (70, 70), past L = 60, the series starts on
    # a window that holds the start
    path = edited_config(tmp_path, "nn4", "x0: [1, 1]", "x0: [70, 70]")
    assert main(["dp", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "survival series from [70, 70]" in out and "grown from the configured 60" in out


def test_start_past_the_harmonic_window_exits_2_naming_it(tmp_path, capsys):
    # the DP window no longer refuses (70, 70), but U reads 0 off the harmonic window,
    # which refuses it by its key
    path = edited_config(tmp_path, "nn4", "x0: [1, 1]", "x0: [70, 70]")
    assert main(["verify", "all", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == ("configuration error: pipeline.x0 [70, 70] lies outside "
                                       "the harmonic window L = 72\n")


@pytest.mark.parametrize("command, line, edited, message", [
    ("harmonic", "harmonic_window: 72", "harmonic_window: 1",
     "pipeline.harmonic_window = 1 holds no cone points; increase it"),
    ("zchain", "harmonic_window: 72", "harmonic_window: 1",
     "pipeline.harmonic_window = 1 holds no cone points; increase it"),
    ("qsd", "qsd_window: 60", "qsd_window: 3",
     "QSD window L = 3 is below L = 4, four step lengths of the walk"),
], ids=["harmonic", "zchain", "qsd"])
def test_a_window_too_small_exits_2_naming_it(tmp_path, capsys, command, line, edited,
                                              message):
    path = edited_config(tmp_path, "nn4", line, edited)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"


def test_bridge_endpoint_off_the_cone_exits_2_before_any_stage(tmp_path, capsys, monkeypatch):
    # the cone half of the endpoint's check needs the config alone
    for stage in ("dp_evolve", "build_V_tables", "survival_scan"):
        monkeypatch.setattr(analysis, stage, lambda *a, **k: pytest.fail("a stage ran"))
    path = edited_config(tmp_path, "nn4", "bridge_endpoint: [2, 2]", "bridge_endpoint: [0, 3]")
    assert main(["verify", "all", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == ("configuration error: pipeline.bridge_endpoint [0, 3] "
                                       "lies outside the open orthant cone\n")


def strict_json(text):
    """``json.loads`` that refuses NaN and Infinity, which JSON does not have."""
    return json.loads(text, parse_constant=lambda name: pytest.fail(f"{name} is not JSON"))


LATE_FIRST_EXIT = {"n_hi: 300": "n_hi: 8", "x0: [1, 1]": "x0: [5, 5]",
                   "ratio_start: [2, 2]": "ratio_start: [6, 6]",
                   "bridge_endpoint: [2, 2]": "bridge_endpoint: [5, 5]"}


@pytest.mark.parametrize("config, edits, status, named", [
    # the ratio start (2, 2) has no exit mass at odd times
    ("diagonal", {"n_hi: 300": "n_hi: 301"}, 1,
     {"start_ratio.exit_pmf": "from ratio_start = [2, 2] no path leaves the cone at n = 301"}),
    # floor(n_hi / 3) = 0 would put a bridge time at 0
    ("nn4", {"n_hi: 300": "n_hi: 1"}, 2, "pipeline.n_hi must be at least 3, got 1"),
    # from (5, 5) no path exits before step 5: the first block (n = 3..4) has no exit mass
    ("nn4", LATE_FIRST_EXIT, 1, {f"exp_moment.{row}": "no path leaves the cone at n = 3..4"
                                 for row in ("convergent_at_critical",
                                             "divergent_above_critical")}),
    # (70, 70) is reachable at n = 300 with the right parity, but lies beyond the
    # L = 60 window, where the tables read 0: a config error, not a structural zero
    ("nn4", {"bridge_endpoint: [2, 2]": "bridge_endpoint: [70, 70]"}, 2,
     "pipeline.bridge_endpoint [70, 70] lies outside the DP window L = 60"),
    # (90, 90) lies inside the L = 120 DP window but beyond the harmonic one, where U
    # reads 0: a config error, not a division by zero or an infinite deviation
    ("nn4", {"dp_window: 60": "dp_window: 120", "ratio_start: [2, 2]": "ratio_start: [90, 90]"},
     2, "pipeline.ratio_start [90, 90] lies outside the harmonic window L = 72"),
    ("nn4", {"dp_window: 60": "dp_window: 120", "x0: [1, 1]": "x0: [90, 90]"},
     2, "pipeline.x0 [90, 90] lies outside the harmonic window L = 72"),
    # points off the open quadrant are config errors that blame the cone: not a
    # structural zero of the period-2 walk, and not the window
    ("nn4", {"bridge_endpoint: [2, 2]": "bridge_endpoint: [0, 3]"}, 2,
     "pipeline.bridge_endpoint [0, 3] lies outside the open orthant cone"),
    ("nn4", {"ratio_start: [2, 2]": "ratio_start: [-1, 2]"}, 2,
     "pipeline.ratio_start [-1, 2] lies outside the open orthant cone"),
    ("nn4", {"x0: [1, 1]": "x0: [0, 1]"}, 2,
     "pipeline.x0 [0, 1] lies outside the open orthant cone"),
], ids=["diagonal-odd-n_hi", "nn4-n_hi-1", "nn4-late-first-exit", "nn4-far-endpoint",
        "nn4-far-ratio-start", "nn4-far-x0", "nn4-endpoint-off-cone", "nn4-ratio-start-off-cone",
        "nn4-x0-off-cone"])
def test_verify_rows_stay_finite_and_fail_without_mass(tmp_path, capsys, config, edits,
                                                       status, named):
    text = (CONFIGS / f"{config}.yaml").read_text()
    for line, edited in edits.items():
        assert line in text
        text = text.replace(line, edited, 1)
    path, out = tmp_path / "edited.yaml", tmp_path / "out"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)   # no division by zero on the way
        assert main(["verify", "all", "--config", str(path), "--out", str(out)]) == status
    if status == 2:
        assert named in capsys.readouterr().err
        return
    for artifact in out.iterdir():
        text = artifact.read_text()
        for line in text.splitlines() if artifact.suffix == ".jsonl" else [text]:
            if artifact.suffix != ".csv":
                strict_json(line)
    rows = {r["check"]: r for r in map(strict_json, next(out.glob("verify_*.jsonl"))
                                       .read_text().splitlines())}
    assert all(np.isfinite([r["predicted"], r["measured"], r["deviation"]]).all()
               for r in rows.values())
    for check, fragment in named.items():
        row = rows[check]
        assert not row["pass"] and row["deviation"] == 1.0 and row["measured"] == 0.0
        assert any(fragment in note for note in row["notes"]), row["notes"]


@pytest.mark.parametrize("beta, status", [("0.5235987755982988", 1), ("0.01", 2)],
                         ids=["wedge-30deg", "wedge-0.01"])
def test_driftless_scan_drops_axis_starts_that_cannot_survive(tmp_path, capsys, beta, status):
    # both wedges exclude scan_grid's starts, so the scan runs from the cone's axis.  On
    # the 30-degree one every step from (1, 1) leaves the cone: that start is dropped,
    # and the note's leak over the smallest survival stays finite.  On the 0.01 one no
    # axis start keeps a step in the cone, and the config is refused by name
    path, out = tmp_path / "wedge.yaml", tmp_path / "out"
    path.write_text(WEDGE_NN4_YAML.replace("beta: 0.5235987755982988", f"beta: {beta}"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)   # no division by zero on the way
        assert main(["verify", "driftless_bound", "--config", str(path),
                     "--out", str(out)]) == status
    if status == 2:
        assert "the driftless scan has no start" in capsys.readouterr().err
        return
    (row,) = map(strict_json, next(out.glob("verify_*.jsonl")).read_text().splitlines())
    assert np.isfinite([row["predicted"], row["measured"], row["deviation"]]).all()
    assert row["notes"][0] == ("the cone excludes scan_grid's starts; scanned from [[2, 2], "
                               "[4, 4], [8, 8], [12, 12], [16, 16], [20, 20], [24, 24]] on "
                               "its axis")
    leak = row["notes"][-1].split(", ")[-1]
    assert leak.endswith(" of the smallest read") and np.isfinite(float(leak.split()[0]))


def test_dp_past_the_budget_exits_3_naming_it(tmp_path, capsys, monkeypatch):
    # six tables retained at n_hi = 72 cost 8 (7 + 2 + 6) = 120 bytes a cell, so a
    # budget of 7^2 cells holds the L = 5 box and no larger: the window leaks and
    # cannot grow (exit 3), and one byte less refuses the start window (exit 2)
    path, out = tmp_path / "small.yaml", str(tmp_path / "out")
    path.write_text(NN4_YAML.replace("dp_window: 40", "dp_window: 5"))
    monkeypatch.setattr(_lattice, "MAX_BYTES", 120 * 7 ** 2)
    for command in (["dp"], ["verify", "hazard"]):
        assert main([*command, "--config", str(path), "--out", out]) == 3
        err = capsys.readouterr().err
        assert "numerical error: DP window L = 5 leaks" in err and "GiB budget" in err
    monkeypatch.setattr(_lattice, "MAX_BYTES", 120 * 7 ** 2 - 1)
    assert main(["dp", "--config", str(path), "--out", out]) == 2
    assert "DP window L = 5 is past L = 4, the largest the" in capsys.readouterr().err
    # survival_tail reads its harmonic prediction before its DP series, so at the
    # first budget the harmonic window's refusal comes first, and no DP runs
    monkeypatch.setattr(_lattice, "MAX_BYTES", 120 * 7 ** 2)
    monkeypatch.setattr(analysis, "dp_evolve", lambda *a, **k: pytest.fail("the DP ran"))
    assert main(["verify", "survival_tail", "--config", str(path), "--out", out]) == 2
    assert "pipeline.harmonic_window = 72 is past 4.24264" in capsys.readouterr().err


@pytest.mark.parametrize("command, message", [
    (["harmonic"], "pipeline.harmonic_window = 72 is past 46.669, the largest the"),
    (["verify", "driftless_bound"], "pipeline.n_max = 400 needs the scan window L = 142, past "
     "L = 62, the largest the 0.000244141 GiB budget holds; n_max = 38 fits"),
    (["qsd"], "QSD window L = 60 is past L = 23, the largest the 0.000244141 GiB budget holds"),
], ids=["harmonic", "driftless_bound", "qsd"])
def test_first_windows_fit_the_budget(tmp_path, capsys, monkeypatch, command, message):
    # at 2^18 bytes the DP refuses L = 60 (44 fits), and so must every other stage
    # refuse a first window past the budget before building it
    monkeypatch.setattr(_lattice, "MAX_BYTES", 2 ** 18)
    assert main([*command, "--config", str(CONFIGS / "nn4.yaml"),
                 "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


def test_exp_moment_weights_only_its_blocks(tmp_path, capsys):
    # e^(0.05 n) overflows from n = 14,196 on; the blocks end at n_hi = 300, so a
    # longer horizon must not form the weights beyond them
    path = tmp_path / "long.yaml"
    path.write_text((CONFIGS / "nn4.yaml").read_text().replace("n_max: 400", "n_max: 14200"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["verify", "exp_moment", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()


def test_exp_moment_stays_finite_on_long_horizons(tmp_path, capsys):
    # at n_hi = 14,300 the weight e^(0.05 n_hi) alone overflows; shifted inside the
    # exponent, the weights give the finite ratio, near 1e151
    path, out = tmp_path / "long.yaml", tmp_path / "out"
    path.write_text((CONFIGS / "nn4.yaml").read_text().replace("n_max: 400", "n_max: 14400")
                    .replace("n_hi: 300", "n_hi: 14300"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["verify", "exp_moment", "--config", str(path), "--out", str(out)]) == 0
    rows = {r["check"]: r for r in map(strict_json, next(out.glob("verify_*.jsonl"))
                                       .read_text().splitlines())}
    row = rows["exp_moment.divergent_above_critical"]
    assert row["pass"] and 1e150 < row["measured"] < 1e152
    capsys.readouterr()


@pytest.mark.parametrize("selector", ["driftless_bound", "all"])
def test_driftless_bound_needs_a_fit_window(tmp_path, capsys, selector):
    # the bound's statistic starts at n = 50; a shorter horizon leaves nothing to fit
    path = tmp_path / "short.yaml"
    path.write_text(NN4_YAML.replace("n_max: 96", "n_max: 48").replace("n_hi: 72", "n_hi: 40"))
    status = main(["verify", selector, "--config", str(path), "--out", str(tmp_path / "out")])
    assert status == 2
    assert "n_max must exceed 50" in capsys.readouterr().err


@pytest.mark.parametrize("command, edits, status", [
    ("dp", {}, 0),
    ("qsd", {}, 0),
    # four streams on a pool of processes: the merge must not follow completion order
    ("simulate", {"workers: 2": "workers: 4", "n_samples: 20000": "n_samples: 4000"}, 0),
    ("zchain", {}, 0),
    ("verify", {}, 1),            # `verify all` fails the two period-2 rows on nn4
], ids=["dp", "qsd", "simulate", "zchain", "verify"])
def test_artifacts_byte_identical(tmp_path, command, edits, status):
    text = NN4_YAML
    for line, edited in edits.items():
        text = text.replace(line, edited)
    config_path = tmp_path / "run.yaml"
    config_path.write_text(text)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main([command, "--config", str(config_path), "--out", str(out_a)]) == status
    assert main([command, "--config", str(config_path), "--out", str(out_b)]) == status
    files_a = sorted(p.name for p in out_a.iterdir())
    files_b = sorted(p.name for p in out_b.iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


# sha256 of every artifact the eight commands write for NN4_YAML (``artifact_digests``)
ARTIFACT_SHA256 = {
    "cramer.json": "2cb9b13ec27c0a86e924e994b307ceb8ff39aa904b8da4cb09a064366cd3397c",
    "dp.csv": "c9dd1429e12f036d983b67bafa1fe85700ad7f14604f96039dbc8bb3595bcfc8",
    "dp_fit.json": "14f65b580dceedd62f914d1f2d4769e7d14fd484caac1b8559a5a06c89a36729",
    "harmonic.csv": "d6da9283d73bbdbd8cd46a9e3c810ce7a5654ba8aa3a047b0a818d4e7465e221",
    "qsd.csv": "c7c4258d55fefefe77b4c9a0071a6110e22a67dfb60c276261ca2e4986befe11",
    "qsd_summary.json": "d9d0c99f429c1221f57f76830e92810280ccda392c087ea2fcafdcfd0d7c3074",
    "simulate.jsonl": "4aa1dd940b3da27c07c6c99019645a02ed8abdeb47d66fd02c755dc3a2790f56",
    "verify.jsonl": "91e99a1d5ecab08a737a240cfc5be4d4c770e974fcad9923b366fa0fdb75d110",
    "verify_summary.csv": "c39eedf50d8b2a68c6f053193cc3955820055d509b1003ed905ebcae74dda02c",
    "whiten.json": "518d548e0fc910af3ad80207286ef8c6579dbfe9c130261e0674deaf6b7c068e",
    "zchain.json": "0b1f1c83378d51a3b1185bda8bcf95a1f63dc44689ae249559c003af53f72b75",
}


# the same for configs/diagonal.yaml, and for the three commands of the benchmark's
# wide workload, on configs/nn4.yaml with its WIDE overrides
DIAGONAL_SHA256 = {
    "cramer.json": "f90a0d60d3a0420bd14eef03b5563900b993da6ef47069ca3bd1165949031c37",
    "dp.csv": "497fcd7096fce25e31001122cd0b2f114bbd10532fd690444b50cfc92d485a9b",
    "dp_fit.json": "a5015677e6ef71cad21fcb8899003567aef9f9aa13964a626f487d74a7a0476a",
    "harmonic.csv": "b5ace6876bec48be29f78161880627c601dce0040ce56e2306a0e5d640c45e3c",
    "qsd.csv": "7597f7107e83f247dba9600d1a22e84d7c070a35c6e3a97b33fa1d9ef891c7fb",
    "qsd_summary.json": "3e0af09880a120d401d45789acdc4ef3c61900533798748e92aae16077f7831a",
    "simulate.jsonl": "3e2aff5e0948b27ebfdb200dfcfe22779d2f0a47421186476cc96a902197a401",
    "verify.jsonl": "84cf3ec4016c9281938b7f1f18be75af5a2236f792598ea245dfb7196fb40d49",
    "verify_summary.csv": "3ecf28e7bd4214e9980daa8e688c2e31d507eacef4d2b470d6d6b0cdbcc2583a",
    "whiten.json": "708ee4dd22865db53f2b5c1cfc8d97f41db4c049a4f87ed74c5bbd1a9b8480ab",
    "zchain.json": "1d22ad99ad58ede90412a80d07ba63e49221c7c787a3313749725b8f8995f277",
}
WIDE_SHA256 = {
    "dp.csv": "ba6b31539f3371cfd772c0ef6eb353d32fb6a1a13ce594601aa0fd44dd34d967",
    "dp_fit.json": "4bef2985d0abbf3bc6ea85206c47aee7cc0c3236bd3193a41c68280707ba4554",
    "qsd.csv": "522d3e97232a13395e0db0ef5ef4c4c3f7f7ea799b963a18d3abc97ca2f6a375",
    "qsd_summary.json": "f324fd7152c721024595c93aed65cbaedb1cd6ad80ee1c726334d63777c3f9c0",
    "verify.jsonl": "dbcb6ac739f99a7820b1972dcb7954d28b1e0101a5e7e2d31bf62d5aea1be293",
    "verify_summary.csv": "611795fd400a38d756089f6a7e7c8930673b769eb79a407a903de9d533a9814a",
}
EIGHT_COMMANDS = ("cramer", "whiten", "harmonic", "dp", "qsd", "zchain", "simulate", "verify")


def artifact_digests(config_path, commands, out, checks, family="nn4", incorrect=()):
    """sha256 of every artifact ``commands`` write, keyed by name without the run id;
    manifests, which carry package versions, are left out.  Only ``verify`` fails, and
    the benchmark's checker (``perfbench/checks.py``) finds an answer incorrect for the
    ``incorrect`` commands only."""
    config = parse_run_config(config_path)
    context = checks.CheckContext(family=family, pipeline=dataclasses.asdict(config.params),
                                  simulate=config.simulate, zchain=config.zchain)
    problems = {}
    for command in commands:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            status = main([command, "--config", str(config_path), "--out", str(out)])
        assert status == (1 if command == "verify" else 0)
        verdict = checks.check(checks.Outcome(command, status, stdout.getvalue(),
                                              stderr.getvalue(), config.params.seed), context)
        if verdict.incorrect:
            problems[command] = verdict.problems
    assert set(problems) == set(incorrect), problems
    return {f"{p.name.rsplit('_', 1)[0]}{p.suffix}": hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.iterdir() if not p.name.startswith("manifest_")}


def test_artifacts_match_recorded_digests(config_path, tmp_path, checks):
    """Every artifact of the eight commands on NN4_YAML has its recorded sha256.

    The digests were taken with numpy 2.4.6, the only library they depend on;
    other numpy versions may round differently.  A change that moves artifact
    bytes on purpose updates the digests here and says which bytes moved, and
    why, in CHANGES.md.  NN4_YAML's 96 steps fit the rate to 0.869, past the
    checker's 0.002 of c, which it sets for the shipped 400 steps; the program's own
    survival_tail and hazard rows fail on this horizon too.
    """
    digests = artifact_digests(config_path, EIGHT_COMMANDS, tmp_path / "out", checks,
                               incorrect={"dp"})
    assert digests == ARTIFACT_SHA256


def test_diagonal_artifacts_match_recorded_digests(tmp_path, checks):
    digests = artifact_digests(CONFIGS / "diagonal.yaml", EIGHT_COMMANDS, tmp_path, checks,
                               family="diagonal")
    assert digests == DIAGONAL_SHA256


def test_wide_artifacts_match_recorded_digests(tmp_path, checks, wide):
    data = yaml.safe_load((CONFIGS / "nn4.yaml").read_text())
    data["pipeline"].update(wide)
    path = tmp_path / "wide.yaml"
    path.write_text(yaml.safe_dump(data))
    digests = artifact_digests(path, ("dp", "qsd", "verify"), tmp_path / "out", checks)
    assert digests == WIDE_SHA256


def per_row_csv(header, columns):
    """The bytes of a table written a row of Python values at a time, each row through
    one template built from the first: ``%.17g`` for a float, ``%s`` for anything else."""
    rows = list(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns)))
    template = ",".join("%.17g" if isinstance(v, float) else "%s" for v in rows[0]) \
        if rows else ""
    return "".join([",".join(header) + "\r\n"] + [template % row + "\r\n" for row in rows]
                   ).encode()


@pytest.mark.parametrize("n_rows", [0, 1, CSV_BLOCK, CSV_BLOCK + 1])
def test_csv_writer_matches_the_per_row_bytes(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    floats = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows)
    floats[:5] = [np.inf, -0.0, np.nan, 1.0, 0.1][:n_rows]
    header = ["i", "x", "label", "flag"]
    columns = [np.arange(n_rows, dtype=np.int16) - 3, floats,
               [f"row{i}" for i in range(n_rows)], (np.arange(n_rows) % 3 == 0).tolist()]
    path = tmp_path / "table.csv"
    _write_csv(path, header, columns)
    assert path.read_bytes() == per_row_csv(header, columns)


def test_csv_writer_memory_stays_flat(tmp_path):
    # the columns exist before tracing starts; the writer holds one block of rows
    peaks = []
    for n_rows in (4 * CSV_BLOCK, 8 * CSV_BLOCK):
        columns = [np.arange(n_rows), np.linspace(0.0, 1.0, n_rows),
                   np.full(n_rows, "label"), np.arange(n_rows) % 2 == 0]
        tracemalloc.start()
        _write_csv(tmp_path / "table.csv", ["i", "x", "label", "flag"], columns)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


def test_seventeen_digit_artifacts(config_path, tmp_path):
    assert main(["dp", "--config", str(config_path),
                 "--out", str(tmp_path / "out")]) == 0
    csv_file = list((tmp_path / "out").glob("dp_*.csv"))[0]
    row = csv_file.read_text().splitlines()[5].split(",")
    # values render with full 17-significant-digit precision
    assert float(row[2]) == float(format(float(row[2]), ".17g"))
    assert any(len(cell.replace("-", "").replace(".", "").lstrip("0")) >= 16
               for cell in row[1:])


def test_numerical_error_exits_3(tmp_path, capsys, monkeypatch):
    # with +-e2 at 249/1000 and 251/1000 the tilt along e2 is about 0.004, so
    # no window within reach certifies the normalizer tail: the harmonic
    # command reports the numerical-error status after one build, not a
    # search through ever larger boxes
    path = tmp_path / "flat.yaml"
    path.write_text(NN4_YAML.replace("[0, 1],  prob: 1/8", "[0, 1],  prob: 249/1000")
                    .replace("[0, -1], prob: 3/8", "[0, -1], prob: 251/1000"))
    boxes = []
    make_grid = harmonic.make_grid

    def recording(*args, **kwargs):
        grid = make_grid(*args, **kwargs)
        boxes.append(grid.shape)
        return grid

    monkeypatch.setattr(harmonic, "make_grid", recording)
    status = main(["harmonic", "--config", str(path), "--out", str(tmp_path / "out")])
    assert status == 3
    err = capsys.readouterr().err
    assert "numerical error" in err and "normalizer tail" in err
    assert "None" not in err
    assert len(boxes) == 1


def test_harmonic_window_grows_like_a_rerun(tmp_path, capsys):
    # harmonic_window is a starting size: from 40 the tail certificate grows
    # nn4's window to 64, and the tables equal a run configured at 64
    contents = []
    for i, window in enumerate(["40", "64"]):
        path = tmp_path / f"run{i}.yaml"
        path.write_text(NN4_YAML.replace("harmonic_window: 72", f"harmonic_window: {window}"))
        out = tmp_path / f"out{i}"
        assert main(["harmonic", "--config", str(path), "--out", str(out)]) == 0
        contents.append(next(out.glob("harmonic_*.csv")).read_bytes())
    assert contents[0] == contents[1]
    out = capsys.readouterr().out
    assert "window L = 64.0, grown from the configured 40 (" in out
    assert "window L = 64.0 (" in out
    # the d = 3 octant walk grows from 30 to 87 without an explicit mesh; the
    # command then spends about as long again writing 125,000 CSV rows
    path = tmp_path / "octant.yaml"
    path.write_text(OCTANT_YAML)
    config = parse_run_config(path)
    start = time.perf_counter()
    assert PipelineContext(config.law, config.cone, config.params).harmonic.L == 87.0
    assert time.perf_counter() - start < 2.0
    assert main(["harmonic", "--config", str(path), "--out", str(tmp_path / "oct")]) == 0
    assert "window L = 87.0, grown from the configured 30 (" in capsys.readouterr().out


def test_driftless_bound_in_three_dimensions(tmp_path):
    # the scan's starts follow the dimension: 26 starts in d = 3
    path = tmp_path / "octant.yaml"
    path.write_text(OCTANT_YAML)
    out = tmp_path / "out"
    status = main(["verify", "driftless_bound", "--config", str(path), "--out", str(out)])
    assert status in (0, 1)
    row = json.loads(next(out.glob("verify_*.jsonl")).read_text())
    assert row["check"] == "driftless_bound.scan_slope"
    assert np.isfinite(row["measured"]) and "over 26 starts" in row["notes"][0]


def test_unexpected_exception_exits_4(config_path, tmp_path, capsys, monkeypatch):
    # a crash is not a verdict: it gets its own status and a traceback
    def broken(ctx):
        raise RuntimeError("selector crashed")

    monkeypatch.setattr(analysis, "_check_hazard", broken)
    status = main(["verify", "hazard", "--config", str(config_path),
                   "--out", str(tmp_path / "out")])
    assert status == 4
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: selector crashed" in err


def test_simulate_start_outside_cone_exits_2(tmp_path, capsys):
    path = tmp_path / "edge.yaml"
    path.write_text(NN4_YAML.replace("x0: [3, 3]", "x0: [0, 3]"))
    status = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
    assert status == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "start [0, 3]" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, line, edited", [
    ("zchain", "zchain:\n  x0: [1, 1]", "zchain:\n  x0: [0, 2]"),
    ("simulate", "x0: [5, 5]", "x0: [5, 0]")], ids=["zchain", "simulate"])
def test_start_off_the_cone_blames_the_cone(tmp_path, capsys, command, line, edited):
    # (0, 2) is a cell of the harmonic box, off its window only because it is off the cone
    text = (CONFIGS / "nn4.yaml").read_text()
    assert line in text
    path = tmp_path / "edited.yaml"
    path.write_text(text.replace(line, edited))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    point = edited.rpartition("x0: ")[2]
    assert f"start {point} lies outside the open orthant cone" in capsys.readouterr().err


def test_seed_override_changes_simulation(config_path, tmp_path):
    outs = []
    for seed in ("99", "100"):
        out = tmp_path / f"seed{seed}"
        assert main(["simulate", "--config", str(config_path), "--seed", seed,
                     "--out", str(out)]) == 0
        jl = list(out.glob("simulate_*.jsonl"))[0]
        outs.append([json.loads(l)["value"] for l in jl.read_text().splitlines()])
    assert outs[0] != outs[1]


@pytest.mark.parametrize("command", ["dp", "verify"])
@pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.yaml")), ids=lambda p: p.stem)
def test_shipped_configs_reach_a_verdict(tmp_path, config, command):
    argv = [command] + (["all"] if command == "verify" else [])
    assert main(argv + ["--config", str(config), "--out", str(tmp_path)]) in (0, 1)


def test_dp_window_grows_like_a_rerun(tmp_path, capsys):
    # the shipped window of 72 leaks at step 284; the grown run must equal a
    # run configured at the grown size
    contents = []
    grown = edited_config(tmp_path, "diagonal", "dp_window: 72", "dp_window: 102")
    for i, path in enumerate([CONFIGS / "diagonal.yaml", grown]):
        out = tmp_path / f"out{i}"
        assert main(["dp", "--config", str(path), "--out", str(out)]) == 0
        contents.append({p.name.rsplit("_", 1)[0]: p.read_bytes() for p in out.iterdir()
                         if not p.name.startswith("manifest")})
    assert sorted(contents[0]) == ["dp", "dp_fit"]
    assert contents[0] == contents[1]
    out = capsys.readouterr().out
    assert "window L = 102, grown from the configured 72" in out
    assert "window L = 102;" in out


def test_exit_law_without_exit_mass_is_a_failing_row(tmp_path):
    path = edited_config(tmp_path, "diagonal", "dp_window: 72", "dp_window: 102")
    assert main(["verify", "all", "--config", str(path), "--out", str(tmp_path)]) == 1
    jl = list(tmp_path.glob("verify_*.jsonl"))[0]
    rows = {r["check"]: r for r in map(json.loads, jl.read_text().splitlines())}
    row = rows["exit_law.tv"]
    assert not row["pass"] and row["deviation"] == 1.0
    assert any(note.startswith("structural") and "period 2" in note
               for note in row["notes"])


def test_qsd_warnings_go_to_stderr(tmp_path, capsys):
    path = edited_config(tmp_path, "diagonal", "qsd_window: 60", "qsd_window: 20")
    assert main(["qsd", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert ("warning: the steps generate a sublattice of index 2: the window holds 2 lattice "
            "classes") in capsys.readouterr().err


def test_unconverged_qsd_warns_on_stderr(config_path, tmp_path, capsys, monkeypatch):
    # two Arnoldi steps a run, each two kernel steps of the period-2 walk, and one
    # kernel step that rebuilds the other parity class: the bracket stays wide
    monkeypatch.setattr(spectral, "MAX_STEPS", 2)
    assert main(["qsd", "--config", str(config_path), "--out", str(tmp_path)]) == 0
    summary = json.loads(next(tmp_path.glob("qsd_summary_*.json")).read_text())
    assert (summary["converged"], summary["iterations"]) == (False, 9)
    low, high = summary["bracket"]
    warning = ("warning: the QSD did not converge: after 9 kernel steps of Arnoldi runs "
               f"its Collatz-Wielandt bracket [{low:.12g}, {high:.12g}] has relative width "
               f"{(high - low) / summary['lambda']:.2e}, above QSD_TOL = 1e-10\n")
    assert capsys.readouterr().err == warning


def law_yaml(steps, probs, cone="{kind: orthant, dim: 2}", pipeline=""):
    """A config with the given law and cone, starts on the diagonal and small Monte
    Carlo runs; other keys default."""
    d = len(steps[0])
    lines = "".join(f"      - {{step: {list(z)}, prob: {p}}}\n" for z, p in zip(steps, probs))
    ones, twos = [1] * d, [2] * d
    return (f"model:\n  law:\n    steps:\n{lines}  cone: {cone}\n"
            f"pipeline: {{x0: {ones}, ratio_start: {twos}, bridge_endpoint: {twos}, "
            f"workers: 1{pipeline}}}\n"
            f"simulate: {{x0: {twos}, n: 12, n_samples: 2000}}\n"
            f"zchain: {{x0: {ones}, n_steps: 20, n_paths: 20}}\n")


# a correlated walk on the octant: its whitening matrix is not diagonal
CORRELATED_3D = law_yaml(
    [(1, 1, 0), (-1, -1, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1),
     (0, 0, -1)], ["1/12", "3/12", "1/12", "2/12", "1/12", "1/12", "1/12", "2/12"],
    cone="{kind: orthant, dim: 3}", pipeline=", n_max: 64, n_hi: 48")


@pytest.mark.parametrize("command", [["harmonic"], ["zchain"], ["verify", "all"]],
                         ids=["harmonic", "zchain", "verify-all"])
def test_no_closed_form_image_exits_2_before_any_solve(tmp_path, capsys, monkeypatch,
                                                       command):
    solves = []
    monkeypatch.setattr(harmonic, "_solve_killed_harmonic", lambda *a: solves.append(a))
    path = tmp_path / "corr3.yaml"
    path.write_text(CORRELATED_3D)
    status = main([*command, "--config", str(path), "--out", str(tmp_path / "out")])
    assert status == 2
    err = capsys.readouterr().err
    assert "no closed-form image cone" in err and "non-diagonal whitening" in err
    assert solves == []


def test_no_closed_form_image_still_fits_p(tmp_path):
    path = tmp_path / "corr3.yaml"
    path.write_text(CORRELATED_3D)
    out = tmp_path / "out"
    assert main(["whiten", "--config", str(path), "--out", str(out)]) == 0
    payload = json.loads(next(out.glob("whiten_*.json")).read_text())
    assert payload["cone_image"] is None and payload["p"] is None
    # the bridge exponent takes p from the driftless scan
    assert main(["verify", "bridge", "--config", str(path), "--out", str(out)]) == 0
    row = json.loads(next(out.glob("verify_*.jsonl")).read_text())
    assert row["measured"] == pytest.approx(1.579, abs=1e-3)
    assert row["predicted"] == pytest.approx(1.587, abs=1e-3)


@pytest.mark.parametrize("normal", ["[1, 0]", "[1, 2]"])
def test_halfspace_harmonic_exits_3_before_any_solve(tmp_path, capsys, monkeypatch, normal):
    solves = []
    monkeypatch.setattr(harmonic, "_solve_killed_harmonic", lambda *a: solves.append(a))
    path = tmp_path / "half.yaml"
    path.write_text(NN4_YAML.replace("cone: {kind: orthant, dim: 2}",
                                     f"cone: {{kind: halfspace, normal: {normal}}}"))
    status = main(["harmonic", "--config", str(path), "--out", str(tmp_path / "out")])
    assert status == 3
    assert "acute-angle condition fails" in capsys.readouterr().err
    assert solves == []


@pytest.mark.parametrize("steps, probs", [
    ([(-1, 1), (1, 2), (-1, 2)], ["1/7", "1/2", "5/14"]),
    ([(1, 0), (-1, 0), (0, 1)], ["1/5", "1/2", "3/10"]),
], ids=["upper-half-plane", "no-down-step"])
def test_law_without_cramer_point_exits_2(tmp_path, capsys, steps, probs):
    path = tmp_path / "law.yaml"
    path.write_text(law_yaml(steps, probs))
    assert main(["cramer", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "do not positively span R^2" in capsys.readouterr().err


def test_cramer_converges_below_roundoff_of_r(tmp_path):
    path = tmp_path / "law.yaml"
    path.write_text(law_yaml([(1, 2), (-2, 1), (1, -2), (-1, 0), (0, 2)],
                             ["7/29", "6/29", "3/29", "5/29", "8/29"]))
    out = tmp_path / "out"
    assert main(["cramer", "--config", str(path), "--out", str(out)]) == 0
    assert json.loads(next(out.glob("cramer_*.json")).read_text())["grad_residual"] < 1e-15


@pytest.mark.parametrize("command", [["dp"], ["verify", "survival_tail"]],
                         ids=["dp", "verify-survival_tail"])
def test_tail_fit_names_n_max(tmp_path, capsys, command):
    path = tmp_path / "short.yaml"
    path.write_text(NN4_YAML.replace("n_max: 96", "n_max: 30").replace("n_hi: 72", "n_hi: 20"))
    status = main([*command, "--config", str(path), "--out", str(tmp_path / "out")])
    assert status == 2
    assert "pipeline.n_max must be at least 32, got 30" in capsys.readouterr().err


def test_start_that_cannot_survive_exits_2(tmp_path, capsys):
    # from (1, 1, 1) every step leaves the octant, so each DP row would read 0 / 0
    path = tmp_path / "doomed.yaml"
    path.write_text(law_yaml([(-2, 1, 1), (-1, -2, 2), (-2, -2, -2), (2, 1, -2)],
                             ["1/10", "4/10", "4/10", "1/10"], cone="{kind: orthant, dim: 3}",
                             pipeline=", n_max: 56, n_hi: 48, dp_window: 12"))
    status = main(["verify", "hazard", "--config", str(path), "--out", str(tmp_path / "out")])
    assert status == 2
    assert "no path from [1, 1, 1] survives to n_hi = 48" in capsys.readouterr().err


def test_start_ratio_names_a_start_that_cannot_survive(tmp_path, capsys):
    # the same doomed start, read by a selector that also needs the harmonic tables,
    # which this law (no closed-form image) cannot have: the start is refused first
    path = tmp_path / "doomed.yaml"
    path.write_text(law_yaml([(-2, 1, 1), (-1, -2, 2), (-2, -2, -2), (2, 1, -2)],
                             ["1/10", "4/10", "4/10", "1/10"], cone="{kind: orthant, dim: 3}",
                             pipeline=", n_max: 40, n_hi: 32, dp_window: 12"))
    out = str(tmp_path / "out")
    assert main(["verify", "start_ratio", "--config", str(path), "--out", out]) == 2
    assert "no path from [1, 1, 1] survives to n_hi = 32" in capsys.readouterr().err


SMALL_RUN = (", n_max: 56, n_hi: 48, dp_window: 12, harmonic_window: 10, qsd_window: 8, "
             "qsd_sweep: [8]")
# in d = 3 the driftless scan (``verify all``, and any row that fits p) and a
# harmonic window grown to the tail certificate cost seconds
COMMANDS = {2: ["whiten", "qsd", "simulate", "verify all"],
            3: ["whiten", "qsd", "simulate", "verify hazard", "verify exp_moment"]}


@pytest.mark.parametrize("seed", [6, 56])
def test_driftless_scan_starts_on_the_axis_of_a_wedge(seed, tmp_path, capsys):
    # these wedges exclude scan_grid's (2, 1) or (1, 2): the scan starts on the axis
    steps, probs, cone = small_law(seed)
    path, out = tmp_path / "run.yaml", tmp_path / "out"
    path.write_text(law_yaml(steps, probs, cone=cone, pipeline=SMALL_RUN))
    status = main(["verify", "driftless_bound", "--config", str(path), "--out", str(out)])
    assert status in (0, 1), capsys.readouterr().err
    (report,) = out.glob("verify_*.jsonl")
    (row,) = map(json.loads, report.read_text().splitlines())
    assert row["notes"][0].startswith("the cone excludes scan_grid's starts; scanned from [[")


@pytest.mark.parametrize("seed, status, message", [
    (0, 2, "configuration error: no closed-form image cone: a non-diagonal whitening matrix "
     "in d = 3 leaves u undefined"),
    (48, 3, "numerical error: acute-angle condition fails: the normalizer sum over the cone "
     "diverges"),
    (56, 3, "numerical error: acute-angle condition fails: the normalizer sum over the cone "
     "diverges")], ids=["seed0", "seed48", "seed56"])
def test_harmonic_hypotheses_fail_before_any_dp(seed, status, message, tmp_path, capsys,
                                                monkeypatch):
    # each exit depends on (law, cone) alone, so no DP series may run before it
    monkeypatch.setattr(analysis, "dp_evolve", lambda *a, **k: pytest.fail("the DP ran"))
    steps, probs, cone = small_law(seed)
    path = tmp_path / "run.yaml"
    path.write_text(law_yaml(steps, probs, cone=cone, pipeline=SMALL_RUN))
    assert main(["verify", "all", "--config", str(path), "--out", str(tmp_path / "out")]) \
        == status
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("selector", ["all", "survival_tail", "start_ratio"])
def test_start_off_the_harmonic_window_fails_before_any_dp(selector, tmp_path, capsys,
                                                           monkeypatch):
    # (70, 70) lies in the cone but off the harmonic window, where U(x0) reads 0;
    # each selector that reads U(x0) reads it before its first DP series (yaglom
    # and exit_law read only U' and reach a verdict from there)
    monkeypatch.setattr(analysis, "dp_evolve", lambda *a, **k: pytest.fail("the DP ran"))
    path = tmp_path / "far.yaml"
    path.write_text((CONFIGS / "nn4.yaml").read_text().replace("x0: [1, 1]\n  ratio",
                                                               "x0: [70, 70]\n  ratio"))
    assert main(["verify", selector, "--config", str(path), "--out", str(tmp_path / "out")]) \
        == 2
    assert "pipeline.x0 [70, 70] lies outside the harmonic window L = 72" in \
        capsys.readouterr().err


@pytest.mark.parametrize("seed", [0, 48, 56])
def test_each_harmonic_selector_fails_as_verify_all(seed, tmp_path, capsys, monkeypatch):
    # every selector that reads the harmonic tables refuses these laws on its own,
    # with the status and message of verify all, and before any DP series
    monkeypatch.setattr(analysis, "dp_evolve", lambda *a, **k: pytest.fail("the DP ran"))
    steps, probs, cone = small_law(seed)
    path, out = tmp_path / "run.yaml", str(tmp_path / "out")
    path.write_text(law_yaml(steps, probs, cone=cone, pipeline=SMALL_RUN))

    def run(selector):
        status = main(["verify", selector, "--config", str(path), "--out", out])
        return status, capsys.readouterr().err

    expected = run("all")
    assert expected[0] in (2, 3)
    for selector in ("survival_tail", "start_ratio", "yaglom", "exit_law"):
        assert run(selector) == expected, selector


@pytest.mark.parametrize("seed", range(30))
def test_random_small_laws_reach_a_status(seed, spans_oracle, tmp_path, capsys):
    # a crash (exit 4) is never a verdict, whatever the law
    steps, probs, cone = small_law(seed)
    path, out = tmp_path / "run.yaml", tmp_path / "out"
    path.write_text(law_yaml(steps, probs, cone=cone, pipeline=SMALL_RUN))
    status = main(["cramer", "--config", str(path), "--out", str(out)])
    assert status in (0, 2, 3)
    assert (status == 0) <= spans_oracle(steps)
    for command in COMMANDS[len(steps[0])] if status == 0 else []:
        status = main([*command.split(), "--config", str(path), "--out", str(out)])
        assert status in (0, 1, 2, 3), capsys.readouterr().err
    for report in out.glob("verify_*.jsonl"):
        for row in map(json.loads, report.read_text().splitlines()):
            assert all(np.isfinite(row[key]) for key in
                       ("predicted", "measured", "deviation", "tolerance")), row
