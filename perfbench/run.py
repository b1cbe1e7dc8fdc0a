"""Closed-loop benchmark of the ``conelab`` command line.

One client, a researcher who waits for each verdict before typing the next
command, drives ``conelab <command>`` as fresh processes, one at a time, for
``--seconds`` seconds.  Every answer is checked (see ``checks.py``).  With
``--trace 1`` the same commands run in this process, plain and then with the
layer entry points wrapped (see ``spans.py``), and the result holds per-layer
self times and counts instead.

    python3 perfbench/run.py --workload lab-nn4 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all     # every workload, as a table

The last line of standard output is the result object; the line before it
holds the per-command detail, the environment and the verdict rows.
"""

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from importlib.metadata import version
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
# Same entry point as the ``conelab`` console script.
CONELAB = "import sys; from conelab.cli import main; sys.exit(main())"
SETUP = "import sys; from conelab.cli import parse_run_config; parse_run_config(sys.argv[1])"
IMPORT = ("import time; t = time.perf_counter(); import conelab.cli; "
          "print(time.perf_counter() - t)")
SETUP_REPEATS = 3            # at the start; one more follows every pass
DEADLINE_S = 165.0           # every run ends within 180 s

LAB = ("cramer", "whiten", "harmonic", "dp", "qsd", "zchain", "verify all")
WIDE = {"n_max": 1600, "n_hi": 1200, "dp_window": 120, "harmonic_window": 144,
        "qsd_window": 120, "qsd_sweep": [120]}


@dataclass(frozen=True)
class Workload:
    family: str                       # shipped config the session starts from
    commands: tuple
    pipeline: dict = None             # overrides written into the generated config
    verify_failing: frozenset = None  # rows `verify all` must fail, exactly


WORKLOADS = {
    # Process set-up dominates: ~0.6 s import per command, milliseconds of compute.
    "lab-nn4": Workload("nn4", LAB, verify_failing=frozenset({"yaglom.tv", "exit_law.tv"})),
    # Monte Carlo only: 1M direct plus 1M tilted paths; DP, QSD, harmonic idle.
    "mc-nn4": Workload("nn4", ("simulate",)),
    # L = 120 windows and 1600-step evolutions: spectral and dp_oracle dominate.
    "wide-nn4": Workload("nn4", ("dp", "qsd", "verify all"), pipeline=WIDE),
    # Non-diagonal whitening and a wedge image cone; holds the known defects.
    "lab-diagonal": Workload("diagonal", LAB + ("simulate",)),
}

END_TO_END_UNITS = {"setup_s": "s", "session_s": "s", "verdict_gmean_s": "s",
                    "peak_rss_mb": "MB", "verdict_frac": "frac"}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if ".ns_per_" in name:
        return "ns"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith((".residual", ".leak_max")):
        return "ratio"
    return "count"


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def environment():
    env = {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), "numpy": version("numpy"),
           "scipy": version("scipy")}
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        lscpu = ""
    for line in lscpu.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("Model name", "L1d cache", "L2 cache", "L3 cache"):
            env[key.strip()] = value.strip()
    return env


def write_config(name, workload, workdir):
    """The config the program receives: a shipped one, with overrides applied."""
    import yaml

    text = (ROOT / "configs" / f"{workload.family}.yaml").read_bytes()
    data = yaml.safe_load(text)
    if workload.pipeline:
        data["pipeline"].update(workload.pipeline)
        text = yaml.safe_dump(data, sort_keys=False).encode()
    path = workdir / f"{name}.yaml"
    path.write_bytes(text)
    return path, data


def program_seed(sample, seed):
    """Even samples use the shipped seed (answers pinned), odd ones a seed of the run."""
    return checks.DEFAULT_SEED if sample % 2 == 0 else random.Random(seed).randrange(1, 2**31)


def argv_for(cmd, cfg, prog_seed, out):
    return cmd.split() + ["--config", str(cfg), "--seed", str(prog_seed), "--out", str(out)]


def timed_child(args, timeout):
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=timeout)
    return time.perf_counter() - start, proc


def probe_setup(cfg, deadline):
    """Wall time of a fresh process that imports the CLI and parses a config."""
    wall, proc = timed_child(["-c", SETUP, str(cfg)], deadline - time.perf_counter())
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return wall


class Session:
    """Tallies of one run: outcomes per command, checked answers, problems."""

    def __init__(self, workload, ctx):
        self.workload = workload
        self.ctx = ctx
        self.walls = {c: [] for c in workload.commands}      # every attempt
        self.answered_walls = {c: [] for c in workload.commands}
        self.status = {c: [] for c in workload.commands}
        self.setup_walls = []
        self.problems = []
        self.info = {}
        self.incorrect = 0

    def record(self, cmd, wall, outcome):
        verdict = checks.check(outcome, self.ctx)
        self.walls[cmd].append(wall)
        self.status[cmd].append(verdict.status)
        if verdict.status != "failed":
            self.answered_walls[cmd].append(wall)
        if verdict.status != "verdict":
            self.problems.extend(f"{cmd}: {p}" for p in verdict.problems)
        self.incorrect += verdict.incorrect
        self.info[cmd] = verdict.info
        return verdict

    @property
    def attempted(self):
        return sum(len(w) for w in self.walls.values())

    @property
    def failed(self):
        return sum(s.count("failed") for s in self.status.values())

    def verdict_frac(self):
        """Mean over the session's commands of the share of attempts that gave a verdict."""
        fracs = [s.count("verdict") / len(s) for s in self.status.values() if s]
        return sum(fracs) / len(fracs)

    def detail(self):
        return {
            "commands": {c: {"verdicts": self.status[c].count("verdict"),
                             "median_s": statistics.median(self.answered_walls[c])
                             if self.answered_walls[c] else None,
                             "walls_s": self.walls[c], "status": self.status[c]}
                         for c in self.workload.commands},
            "ops_failed_frac": 1.0 - self.verdict_frac(),
            "known_defects": sorted(c for c, s in self.status.items() if "known_defect" in s),
            "answers": self.info,
            "problems": self.problems,
        }


def run_closed_loop(session, cfg, seed, seconds, out, deadline):
    """Commands one at a time in a seeded order, until ``seconds`` have passed.

    The first pass runs every command; after it, commands start while time
    remains, and the last one runs to its end.  A set-up probe follows every
    pass, so that set-up is sampled across the whole run.
    """
    rng = random.Random(seed)
    start = time.perf_counter()
    first = True
    while True:
        order = list(session.workload.commands)
        rng.shuffle(order)
        for cmd in order:
            now = time.perf_counter()
            if now >= deadline:
                raise BenchError("run deadline reached")
            if not first and now - start >= seconds:
                return now - start
            prog_seed = program_seed(len(session.walls[cmd]), seed)
            launched = time.perf_counter()
            try:
                wall, proc = timed_child(["-c", CONELAB, *argv_for(cmd, cfg, prog_seed, out)],
                                         deadline - launched)
            except subprocess.TimeoutExpired as exc:
                wall, proc = time.perf_counter() - launched, subprocess.CompletedProcess(
                    exc.cmd, -9, "", f"timed out after {exc.timeout:.0f} s")
            session.record(cmd, wall, checks.Outcome(cmd.split()[0], proc.returncode,
                                                     proc.stdout, proc.stderr, prog_seed))
        first = False
        session.setup_walls.append(probe_setup(cfg, deadline))


def end_to_end(session):
    """End-to-end metrics over the commands that answered.

    A command answers when it reaches a verdict or exits with its known
    defect's diagnostic; the time until that answer is what the researcher
    waits.  Fixing a known defect therefore keeps the set of timed commands.
    """
    medians = [statistics.median(w) for w in session.answered_walls.values() if w]
    if not medians:
        raise BenchError("no command answered: " + "; ".join(session.problems[:3]))
    return {
        "setup_s": statistics.median(session.setup_walls),
        "session_s": sum(medians),
        "verdict_gmean_s": math.exp(statistics.fmean(math.log(m) for m in medians)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "verdict_frac": session.verdict_frac(),
    }


def run_in_process(main, session, order, cfg, seed, out, sample, tracer=None):
    """One pass of ``order`` through ``main`` in this process.

    Returns the pass's wall time and, per run id, the window L of the QSD a
    command wrote.
    """
    total = 0.0
    qsd_L = {}
    prog_seed = program_seed(sample, seed)
    for i, cmd in enumerate(order):
        stdout, stderr = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.run_id = f"{i}:{cmd}"
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv_for(cmd, cfg, prog_seed, out))
            except Exception:
                code = -1
                traceback.print_exc()
        wall = time.perf_counter() - start
        total += wall
        outcome = checks.Outcome(cmd.split()[0], code, stdout.getvalue(), stderr.getvalue(),
                                 prog_seed)
        if session.record(cmd, wall, outcome).status == "verdict" and cmd == "qsd":
            summary = checks.artifact(checks.written_files(outcome.stdout), "qsd_summary")
            qsd_L[f"{i}:{cmd}"] = checks.read_json(summary)["L"]
    return total, qsd_L


def run_traced(session, cfg, seed, out, workdir, deadline):
    import spans

    imports = []
    for _ in range(3):
        _, proc = timed_child(["-c", IMPORT], deadline - time.perf_counter())
        if proc.returncode != 0:
            raise BenchError(f"import failed: {proc.stderr.strip()[-500:]}")
        imports.append(float(proc.stdout))
    sys.path.insert(0, str(ROOT / "src"))
    import conelab.cli

    order = list(session.workload.commands)
    random.Random(seed).shuffle(order)
    # The first pass pays first-call costs (lazy imports, file cache) and uses
    # the run's own program seed; the plain and traced passes then do the same
    # work at the shipped seed, so their difference is the cost of tracing.
    run_in_process(conelab.cli.main, session, order, cfg, seed, out, sample=1)
    plain_s, _ = run_in_process(conelab.cli.main, session, order, cfg, seed, out, sample=0)
    tracer = spans.Tracer()
    with spans.install(tracer, conelab):
        traced_main = tracer.wrap(conelab.cli.main, "cli.main")
        traced_s, qsd_L = run_in_process(traced_main, session, order, cfg, seed, out,
                                         sample=0, tracer=tracer)
    metrics = spans.layer_metrics(tracer.spans, qsd_L)
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["trace.overhead_s"] = traced_s - plain_s
    (workdir / "spans.json").write_text(json.dumps(tracer.spans))
    detail = {"untraced_s": plain_s, "traced_s": traced_s,
              "qsd_solves": spans.solve_detail(tracer.spans),
              "computed_bytes_note": "byte counts are computed from array shapes, "
                                     "not measured"}
    return metrics, detail


def run_workload(name, seed, seconds, trace_on):
    deadline = time.perf_counter() + DEADLINE_S
    if not (ROOT / "src" / "conelab" / "cli.py").is_file():
        raise BenchError(f"no conelab sources under {ROOT / 'src'}")
    workload = WORKLOADS[name]
    workdir = WORK / name
    shutil.rmtree(workdir, ignore_errors=True)
    out = workdir / "out"
    out.mkdir(parents=True)
    cfg, data = write_config(name, workload, workdir)
    ctx = checks.CheckContext(family=workload.family, pipeline=data["pipeline"],
                              simulate=data["simulate"], zchain=data["zchain"],
                              verify_failing=workload.verify_failing)
    session = Session(workload, ctx)
    detail = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace_on),
              "closed_loop_clients": 1, "environment": environment()}
    if trace_on:
        metrics, extra = run_traced(session, cfg, seed, out, workdir, deadline)
        detail.update(extra)
    else:
        probe_setup(cfg, deadline)  # warms the file cache and writes bytecode
        session.setup_walls = [probe_setup(cfg, deadline) for _ in range(SETUP_REPEATS)]
        detail["measured_s"] = run_closed_loop(session, cfg, seed, seconds, out, deadline)
        metrics = end_to_end(session)
        detail["setup_walls_s"] = session.setup_walls
    detail.update(session.detail())
    units = END_TO_END_UNITS if not trace_on else {m: layer_unit(m) for m in metrics}
    result = {"correct": session.incorrect == 0, "attempted": session.attempted,
              "failed": session.failed,
              "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}}
    return detail, result


def run_all(args):
    """Every workload in a fresh process of its own, printed as a table."""
    ok = True
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: benchmark error: {proc.stderr.strip()[-500:]}")
            ok = False
            continue
        detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
        ok &= result["correct"] and not result["failed"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} ops_failed_frac={detail['ops_failed_frac']:.4g} "
              f"known_defects={detail['known_defects']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:34s} {m['value']:14.6g} {m['unit']}")
        for cmd, c in detail["commands"].items():
            if not args.trace and c["median_s"] is not None:
                note = ", known defect: time to exit 3" if cmd in detail["known_defects"] else ""
                print(f"  {cmd.split()[0] + '_s':34s} {c['median_s']:14.6g} s "
                      f"(median of {len(c['walls_s'])}{note})")
        relerr = detail["answers"].get("qsd", {}).get("qsd_lambda_relerr")
        if relerr is not None:
            print(f"  {'qsd_lambda_relerr':34s} {relerr:14.6g} ratio")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        detail, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
