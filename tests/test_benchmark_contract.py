"""The parts of the package that ``perfbench`` relies on, read from perfbench itself.

Nothing here edits perfbench: the tests import it and check that the entry
points it wraps for ``--trace 1`` exist, that the commands run under its
tracer with every attribute reader, and that every workload's generated
config parses.
"""

from pathlib import Path

import yaml

import conelab.cli
from conelab.analysis import SELECTORS
from conelab.cli import parse_run_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_traced_entry_points_exist(perfbench):
    _, spans = perfbench
    for module, attr, *_ in spans._patches(conelab):
        assert hasattr(module, attr), f"{module.__name__}.{attr}"


def test_workload_configs_parse(perfbench, tmp_path):
    run, _ = perfbench
    for name, workload in run.WORKLOADS.items():
        path, _ = run.write_config(name, workload, tmp_path)
        params = parse_run_config(path).params
        for key, value in (workload.pipeline or {}).items():
            assert getattr(params, key) == (tuple(value) if isinstance(value, list) else value)
    assert run.WORKLOADS["wide-nn4"].pipeline == run.WIDE


# the spans each command opens, with the attributes their readers attach
TRACED = {
    "cramer": {"cli.parse": (), "cli.emit": ("bytes",), "cramer.solve": ("newton_iters",)},
    "harmonic": {"harmonic.build_V": ("n_states", "residual", "box_bytes"),
                 "harmonic.build_U": (), "whiten.whiten_model": ()},
    "dp": {"dp_oracle.evolve": ("cell_steps", "leak_max", "box_bytes"),
           "analysis.fit_tail": ()},
    "qsd": {"spectral.qsd": (), "spectral.kernel": ("csr_bytes", "n_states"),
            "spectral.solve": ("iterations", "converged", "L")},
    "zchain": {"simulate.zchain": ()},
    "simulate": {"simulate.direct": ("path_steps",), "simulate.tilted": ("path_steps",)},
    "verify all": {f"analysis.{selector}": () for selector in SELECTORS},
}
# the exit status each command reaches: on nn4 the period-2 rows yaglom.tv and
# exit_law.tv fail, so verify reports a verification failure
STATUS = {"verify all": 1}


def test_traced_commands_run_every_span_reader(perfbench, tmp_path, capsys):
    # perfbench's --trace 1 wraps the entry points and reads fields of what they
    # return; a renamed field or a changed signature must fail here, not only there
    _, spans = perfbench
    data = yaml.safe_load((CONFIGS / "nn4.yaml").read_text())
    data["pipeline"].update(n_max=96, n_hi=72, dp_window=40, qsd_window=20,
                            qsd_sweep=[12, 20])
    data["simulate"].update(n=12, n_samples=2000)
    data["zchain"].update(n_steps=40, n_paths=50)
    path = tmp_path / "small.yaml"
    path.write_text(yaml.safe_dump(data))
    for command, expected in TRACED.items():
        argv = [*command.split(), "--config", str(path), "--out", str(tmp_path / "out")]
        status = conelab.cli.main(argv)
        with spans.install(spans.Tracer(), conelab) as tracer:
            assert conelab.cli.main(argv) == status == STATUS.get(command, 0), command
        by_name = {s["name"]: s for s in tracer.spans}
        for name, attrs in expected.items():
            assert set(attrs) <= set(by_name[name]["attrs"]), (command, name)
        assert not [s["name"] for s in tracer.spans if "error" in s["attrs"]], command
        spans.layer_metrics(tracer.spans, {})
    capsys.readouterr()
