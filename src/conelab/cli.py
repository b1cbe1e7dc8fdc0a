"""Configuration-driven command line front end.

``conelab <command> --config <path> [--seed N] [--workers N] [--out DIR]``

Commands: ``cramer``, ``whiten``, ``harmonic``, ``dp``, ``simulate``,
``qsd``, ``zchain``, ``verify [selector|all]``; only ``verify`` takes a
selector, and reads none as ``all``.  The ``pipeline``,
``simulate`` and ``zchain`` sections are read through one table
(``SECTIONS``): the pipeline keys and defaults are the fields of
``VerifyParams``, each value is read by the converter of its default's type,
and ``LOWEST`` holds every lower bound.  Each ``_cmd_*`` function prints its
summary and returns ``(status, artifacts)``; ``main`` writes the artifacts
and the run manifest with one ``emit_report`` call.  Artifacts are CSV/JSON
files with deterministic names and 17-significant-digit numbers; rerunning
the same config reproduces them byte for byte.  Exit status: 0 on success
with all requested verifications passing, 1 on verification failure, 2 on a
bad config, 3 on a numerical failure, 4 on an internal error (any other
exception; its traceback goes to stderr).
"""

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .analysis import (SELECTORS, PipelineContext, VerifyParams, fit_tail,
                       verify_all, verify_limits)
from .dp_oracle import hazard_ratio
from .errors import ConfigError, NumericsError
from .model import ConeSpec, StepLaw
from .simulate import is_survival, mc_survival

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICS = 3
EXIT_INTERNAL = 4
CSV_BLOCK = 4096          # CSV rows formatted per write


@dataclass
class RunConfig:
    law: StepLaw
    cone: ConeSpec
    params: VerifyParams
    simulate: dict
    zchain: dict
    out_dir: Path
    config_sha: str


def _parse_prob(value, where):
    if isinstance(value, bool):
        raise ConfigError(f"{where}: probability must be a number or 'p/q' string, "
                          f"got {value!r}")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(Fraction(value))
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"{where}: cannot parse probability {value!r}") from exc
    raise ConfigError(f"{where}: probability must be a number or 'p/q' string")


def _require_keys(section, allowed, where):
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a mapping, got {section!r}")
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")


def _need(section, key, where):
    if key not in section:
        raise ConfigError(f"{where}: missing key {key!r}")
    return section[key]


def _read(convert, value, where):
    """``convert(value)``; a value it cannot take is a ConfigError naming ``where``."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: cannot read {value!r}") from exc


def _int(value):
    """``int(value)``, refusing a bool, a string or a fraction rather than
    converting or truncating it."""
    if isinstance(value, (bool, str)) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _float(value):
    """``float(value)``, refusing a bool, a string or a value that is not finite."""
    if isinstance(value, (bool, str)) or not math.isfinite(value):
        raise ValueError(f"{value!r} is not a finite number")
    return float(value)


def _int_tuple(values):
    if isinstance(values, str):
        raise ValueError(f"{values!r} is not a list of integers")
    return tuple(_int(v) for v in values)


CONE_KEYS = {"orthant": ("dim",), "wedge2d": ("beta", "theta0"), "halfspace": ("normal",)}
# every key of the flat sections, with its default; a given value is read by
# the converter of its default's type
SECTIONS = {
    "pipeline": {f.name: f.default for f in fields(VerifyParams)},
    "simulate": {"estimator": "both", "x0": (5, 5), "n": 60, "n_samples": 1_000_000},
    "zchain": {"x0": (1, 1), "n_steps": 200, "n_paths": 1000},
}
CONVERT = {tuple: _int_tuple, int: _int, float: _float, str: str}
# the least value of each bounded key, checked in this order; seed and workers,
# which --seed and --workers also set, are named without their section
LOWEST = {"workers": 1, "seed": 0, "pipeline.n_hi": 3, "pipeline.dp_window": 1,
          "pipeline.harmonic_window": 1, "pipeline.qsd_window": 1, "simulate.n": 0,
          "simulate.n_samples": 1, "zchain.n_steps": 1, "zchain.n_paths": 2}


def parse_run_config(path, seed=None, workers=None, out_dir=None):
    """Parse and validate the YAML run configuration; overrides win."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    blob = path.read_bytes()
    try:
        data = yaml.safe_load(blob)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    _require_keys(data, {"model", "pipeline", "simulate", "zchain", "output"}, "config")
    model = data.get("model")
    if not isinstance(model, dict):
        raise ConfigError("config needs a 'model' section")
    _require_keys(model, {"law", "cone"}, "model")

    law_sec = model.get("law", {})
    _require_keys(law_sec, {"steps"}, "model.law")
    steps = law_sec.get("steps")
    if not isinstance(steps, list) or not steps:
        raise ConfigError("model.law.steps must be a nonempty list")
    support, probs = [], []
    for i, entry in enumerate(steps):
        where = f"model.law.steps[{i}]"
        _require_keys(entry, {"step", "prob"}, where)
        support.append(_read(_int_tuple, _need(entry, "step", where), f"{where}.step"))
        probs.append(_parse_prob(_need(entry, "prob", where), f"{where}.prob"))
    if len({len(z) for z in support}) != 1:
        raise ConfigError("model.law.steps: every step needs the same dimension")
    law = StepLaw(support=np.array(support, dtype=int), probs=np.array(probs))

    cone_sec = model.get("cone", {})
    _require_keys(cone_sec, ("kind",) + sum(CONE_KEYS.values(), ()), "model.cone")
    kind = cone_sec.get("kind")
    if kind not in CONE_KEYS:
        raise ConfigError(f"model.cone.kind: unknown kind {kind!r}")
    _require_keys(cone_sec, ("kind",) + CONE_KEYS[kind], f"model.cone of kind {kind}")
    if kind == "orthant":
        cone = ConeSpec.orthant(_read(_int, cone_sec.get("dim", law.dim), "model.cone.dim"))
    elif kind == "wedge2d":
        cone = ConeSpec.wedge2d(
            _read(_float, _need(cone_sec, "beta", "model.cone"), "model.cone.beta"),
            _read(_float, cone_sec.get("theta0", 0.0), "model.cone.theta0"))
    else:
        cone = ConeSpec.halfspace(_read(lambda a: np.array(a, dtype=float),
                                        _need(cone_sec, "normal", "model.cone"),
                                        "model.cone.normal"))

    read = {}
    for section, defaults in SECTIONS.items():
        given = data.get(section) or {}
        _require_keys(given, defaults, section)
        read[section] = {key: _read(CONVERT[type(default)], given[key], f"{section}.{key}")
                         if key in given else default for key, default in defaults.items()}
    pipe, sim, zchain = read["pipeline"], read["simulate"], read["zchain"]
    if seed is not None:
        pipe["seed"] = int(seed)
    if workers is not None:
        pipe["workers"] = int(workers)
    for where, low in LOWEST.items():
        section, _, key = where.rpartition(".")
        value = read[section or "pipeline"][key]
        if value < low:
            raise ConfigError(f"{where} must be at least {low}, got {value}")
    if pipe["n_hi"] > pipe["n_max"]:
        raise ConfigError(f"pipeline.n_hi must be at most n_max = {pipe['n_max']}, "
                          f"got {pipe['n_hi']}")
    if sim["estimator"] not in ("direct", "tilted", "both"):
        raise ConfigError("simulate.estimator must be direct, tilted, or both")
    for section, values in read.items():
        for key, x in values.items():
            # every integer tuple but the sweep of window sizes is a lattice point
            if isinstance(x, tuple) and key != "qsd_sweep" and len(x) != law.dim:
                raise ConfigError(f"{section}.{key} needs {law.dim} coordinates, got {len(x)}")

    out = data.get("output", {}) or {}
    _require_keys(out, {"dir"}, "output")
    given = _read(Path, out.get("dir", "out"), "output.dir")
    out_path = Path(out_dir) if out_dir else given

    return RunConfig(
        law=law, cone=cone, params=VerifyParams(**pipe), simulate=sim, zchain=zchain,
        out_dir=out_path, config_sha=hashlib.sha256(blob).hexdigest(),
    )


def _run_id(config, command, extra=""):
    digest = hashlib.sha256()
    digest.update(config.config_sha.encode())
    digest.update(command.encode())
    digest.update(extra.encode())
    digest.update(f"{config.params.seed}/{config.params.workers}".encode())
    return digest.hexdigest()[:12]


def _write_csv(path, header, columns):
    """The bytes ``csv.writer`` writes, for cells that hold no comma, quote or newline.

    ``columns`` holds one 1-D array or list per column.  Floats are written to 17
    significant digits, anything else by ``%s``, and only ``CSV_BLOCK`` rows at a
    time are held as Python values or text.
    """
    columns = [np.asarray(c) for c in columns]
    template = ",".join("%.17g" if c.dtype.kind == "f" else "%s" for c in columns) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(columns[0]), CSV_BLOCK):
            fh.writelines(template % row for row in
                          zip(*[c[start:start + CSV_BLOCK].tolist() for c in columns]))


def _write_json(path, payload):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _manifest(config, command, run_id, files):
    return {
        "command": command,
        "run_id": run_id,
        "config_sha256": config.config_sha,
        "seed": config.params.seed,
        "workers": config.params.workers,
        "artifacts": sorted(files),
        "versions": {"conelab": __version__, "numpy": np.__version__},
    }


def emit_report(config, command, run_id, artifacts):
    """Write artifacts plus the run manifest; returns the file list."""
    config.out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, kind, payload in artifacts:
        path = config.out_dir / f"{name}_{run_id}.{kind}"
        if kind == "csv":
            _write_csv(path, payload[0], payload[1])
        elif kind == "json":
            _write_json(path, payload)
        elif kind == "jsonl":
            path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in payload))
        written.append(path.name)
    manifest_path = config.out_dir / f"manifest_{command}_{run_id}.json"
    _write_json(manifest_path, _manifest(config, command, run_id, written))
    return written + [manifest_path.name]


def _cmd_cramer(config, ctx):
    cd = ctx.cramer
    print(f"tilt point h = ({', '.join(f'{v:.6f}' for v in cd.h)})")
    print(f"survival rate c = {cd.c:.6f}")
    print("tilted law:")
    for z, p in zip(cd.tilted.support, cd.tilted.probs):
        print(f"  step {z.tolist()} prob {p:.6f}")
    payload = {
        "h": cd.h.tolist(), "c": cd.c,
        "grad_residual": cd.grad_residual,
        "tilted": [{"step": z, "prob": p}
                   for z, p in zip(cd.tilted.support.tolist(), cd.tilted.probs.tolist())],
        "drift": ctx.report.drift.tolist(),
        "sublattice_index": ctx.report.sublattice_index,
        "period": ctx.report.period,
    }
    return EXIT_OK, [("cramer", "json", payload)]


def _cmd_whiten(config, ctx):
    wd = ctx.whitening
    image = wd.cone_image
    print(f"tilted covariance:\n{wd.cov}")
    print(f"whitening matrix M:\n{wd.M}")
    print(f"alpha = {wd.alpha}")
    print(f"homogeneity degree p = {wd.p}")
    payload = {
        "cov": wd.cov.tolist(), "M": wd.M.tolist(),
        "alpha": wd.alpha, "p": wd.p,
        "cone_image": None if image is None else {
            "kind": image.kind, "dim": image.dim, "beta": image.beta,
            "theta0": image.theta0},
    }
    return EXIT_OK, [("whiten", "json", payload)]


def _cmd_harmonic(config, ctx):
    tabs = ctx.harmonic
    d = ctx.law.dim
    header = [f"x{i + 1}" for i in range(d)] + ["V", "Vprime", "U", "Uprime"]
    columns = [*tabs.grid.points().T] + [t[tabs.grid.mask] for t in
                                         (tabs.V, tabs.Vprime, tabs.U, tabs.Uprime)]
    start = config.params.harmonic_window
    grown = "" if tabs.L == start else f", grown from the configured {start:g}"
    print(f"window L = {tabs.L}{grown} ({tabs.grid.n_states} lattice points), "
          f"kappa = {tabs.kappa:.9g}, residual = {tabs.convergence_residual:.3e}")
    return EXIT_OK, [("harmonic", "csv", (header, columns))]


def _cmd_dp(config, ctx):
    series = ctx.series
    n = np.arange(series.n_max + 1)
    n_hi = config.params.n_hi
    print(f"survival series from {series.x0.tolist()} to n = {series.n_max} "
          f"(rescaled by c = {series.rescale_by:.9g})")
    grown = "" if series.L == config.params.dp_window else \
        f", grown from the configured {config.params.dp_window}"
    print(f"window L = {series.L}{grown}; largest one-step leak {series.leak_max:.2e}")
    print(f"hazard ratio at n = {n_hi}: {hazard_ratio(series, n_hi):.6f}")
    fit = fit_tail(series)
    octaves = fit.diagnostics["dyadic_estimates"]
    print(f"tail fit: c_hat = {fit.c_hat:.6f}, exponent = {fit.exponent_hat:.4f} "
          f"from the octave estimates {octaves[0]:.4f}, {octaves[1]:.4f}")
    return EXIT_OK, [
        ("dp", "csv", (["n", "raw_survival_log", "rescaled_b_n"],
                       [n, series.raw_survival_log(n), series.survival])),
        ("dp_fit", "json", {"c_hat": fit.c_hat, "exponent_hat": fit.exponent_hat,
                            "constant_hat": fit.constant_hat,
                            "dyadic_estimates": list(octaves),
                            "window": list(fit.window_used)}),
    ]


def _cmd_simulate(config, ctx):
    sim = config.simulate
    records = []
    for name, estimate, model in (("direct", mc_survival, "law"),
                                  ("tilted", is_survival, "cramer")):
        if sim["estimator"] in (name, "both"):
            est = estimate(getattr(ctx, model), ctx.cone, sim["x0"], sim["n"],
                           sim["n_samples"], config.params.seed, config.params.workers)
            records.append({"estimator": name, "value": est.value,
                            "std_error": est.std_error, "n_samples": est.n_samples,
                            "seed": est.seed, "workers": est.workers})
    for rec in records:
        print(f"{rec['estimator']:>7s}: {rec['value']:.6e} +- {rec['std_error']:.2e}")
    return EXIT_OK, [("simulate", "jsonl", records)]


def _cmd_qsd(config, ctx):
    result = ctx.qsd
    low, high = result.bracket
    print(f"window L = {result.L}: lambda = {result.lambda_:.9f} "
          f"(survival rate c = {ctx.cramer.c:.9f}), residual = {result.residual:.2e}, "
          f"Collatz-Wielandt bracket [{low:.12g}, {high:.12g}] of relative width "
          f"{(high - low) / result.lambda_:.2e}, after {result.iterations} kernel steps "
          "of Arnoldi runs")
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    d = ctx.law.dim
    header = [f"x{i + 1}" for i in range(d)] + ["mu"]
    payload = {"L": result.L, "lambda": result.lambda_, "residual": result.residual,
               "bracket": [low, high], "iterations": result.iterations,
               "converged": result.converged}
    return EXIT_OK, [("qsd", "csv", (header, [*result.grid.points().T, result.mu])),
                     ("qsd_summary", "json", payload)]


def _cmd_verify(ctx, selector):
    if selector == "all":
        reports = verify_all(ctx)
    else:
        reports = verify_limits(ctx, selector)
    records = []
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        print(f"[{status}] {r.check}: measured {r.measured:.6g} vs predicted "
              f"{r.predicted:.6g} (deviation {r.deviation:.4g}, "
              f"tolerance {r.tolerance:g})")
        for note in r.notes:
            print(f"    note: {note}")
        records.append({"check": r.check, "predicted": r.predicted,
                        "measured": r.measured, "deviation": r.deviation,
                        "tolerance": r.tolerance, "pass": r.passed,
                        "notes": r.notes})
    header = ["check", "predicted", "measured", "deviation", "tolerance", "pass"]
    columns = [[rec[key] for rec in records] for key in header]
    status = EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY_FAILED
    return status, [("verify", "jsonl", records), ("verify_summary", "csv", (header, columns))]


def _cmd_zchain(config, ctx):
    from .simulate import transience_indicator, z_chain

    z = config.zchain
    run = z_chain(ctx.law, ctx.cramer, ctx.harmonic, z["x0"], z["n_steps"],
                  config.params.seed, n_paths=z["n_paths"])
    diff, se = transience_indicator(run, early=min(20, run.n_steps),
                                    late=run.n_steps)
    print(f"row sums (interior): [{run.row_sum_min:.8f}, {run.row_sum_max:.8f}]")
    print(f"mean |position| gain {diff:.3f} +- {se:.3f} over {run.n_steps} steps; "
          f"{run.n_truncated} paths hit the window edge")
    payload = {"row_sum_min": run.row_sum_min, "row_sum_max": run.row_sum_max,
               "n_truncated": run.n_truncated, "distance_gain": diff,
               "distance_gain_se": se, "n_paths": z["n_paths"],
               "n_steps": z["n_steps"], "seed": config.params.seed}
    return EXIT_OK, [("zchain", "json", payload)]


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="conelab",
        description="killed-random-walk laboratory: tilting, whitening, harmonic "
                    "tables, DP oracles, sampling, QSD, and limit verification",
    )
    parser.add_argument("command",
                        choices=["cramer", "whiten", "harmonic", "dp", "simulate",
                                 "qsd", "zchain", "verify"])
    parser.add_argument("selector", nargs="?",
                        help="verification selector, taken by verify only; "
                             f"one of {', '.join(SELECTORS)} or 'all' (the default)")
    parser.add_argument("--config", required=True, help="path to the YAML run config")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--workers", type=int, default=None,
                        help="Monte Carlo streams; estimates depend on (seed, samples, "
                             "workers), not on the core count, and the streams are "
                             "shared among at most one forked child per usable core")
    parser.add_argument("--out", default=None, help="output directory override")
    args = parser.parse_args(argv)

    try:
        verify = args.command == "verify"
        if args.selector is not None and not verify:
            raise ConfigError(f"{args.command} takes no selector, got {args.selector!r}")
        selector = "all" if args.selector is None else args.selector
        config = parse_run_config(args.config, seed=args.seed, workers=args.workers,
                                  out_dir=args.out)
        ctx = PipelineContext(config.law, config.cone, config.params)
        run_id = _run_id(config, args.command, extra=selector if verify else "")
        if verify:
            status, artifacts = _cmd_verify(ctx, selector)
        else:
            status, artifacts = globals()[f"_cmd_{args.command}"](config, ctx)
        for name in emit_report(config, args.command, run_id, artifacts):
            print(f"wrote {config.out_dir / name}")
        return status
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericsError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICS
    except Exception:
        import traceback  # loaded only after a crash, off the start-up path

        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
