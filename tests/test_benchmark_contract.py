"""The parts of the package that ``perfbench`` relies on, read from perfbench itself.

Nothing here edits perfbench: the tests import it and check that the entry
points it wraps for ``--trace 1`` exist and that every workload's generated
config parses.
"""

import conelab.cli
from conelab.cli import parse_run_config


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
