"""Correctness checks on the answers of ``conelab`` commands.

Every check compares an answer against a closed form, an independent exact
computation in this file, or a value pinned at the shipped default seed.
Nothing compares artifact bytes, so a more accurate solver still passes.
"""

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DEFAULT_SEED = 20240718

# Step laws of the shipped configs, written out so the checker never reads
# the program's own parse of them.
LAWS = {
    "nn4": (((1, 0), 1 / 8), ((-1, 0), 3 / 8), ((0, 1), 1 / 8), ((0, -1), 3 / 8)),
    "diagonal": (((1, 1), 1 / 8), ((-1, -1), 3 / 8), ((1, -1), 1 / 4), ((-1, 1), 1 / 4)),
}

# Closed forms.  nn4: R(h) = (e^h1 + e^h2)/8 + 3(e^-h1 + e^-h2)/8 is least at
# e^h_i = sqrt(3).  diagonal: R = e^(h1+h2)/8 + 3e^-(h1+h2)/8 + cosh(h1-h2)/2
# is least at h1 = h2, e^(4 h1) = 3; the tilted correlation is 4 sqrt(3) - 7
# and the image wedge opening arccos(-alpha) gives p = pi / arccos(-alpha).
REFERENCE = {
    "nn4": {"h": (math.log(3) / 2,) * 2, "c": math.sqrt(3) / 2, "p": 2.0},
    "diagonal": {"h": (math.log(3) / 4,) * 2, "c": 0.5 + math.sqrt(3) / 4,
                 "p": math.pi / math.acos(7 - 4 * math.sqrt(3))},
}

# Monte Carlo answers of the shipped simulate sections at the default seed,
# keyed by (family, x0, n, n_samples, workers): (value, std_error) per estimator.
PINNED_MC = {
    ("nn4", (5, 5), 60, 1_000_000, 4): {
        "direct": (7.5e-05, 8.659929272228497e-06),
        "tilted": (7.61017124643933e-05, 4.954937387997875e-07)},
    ("diagonal", (5, 5), 60, 200_000, 4): {
        "direct": (0.00095, 6.888749886590455e-05),
        "tilted": (0.0009335575649409376, 1.0900211239378268e-05)},
}

# Tolerances of the satellite checks, fixed before any measurement.
TOL_CLOSED_FORM = 1e-12      # h and c
TOL_P = 1e-12                # homogeneity degree
TOL_V = 1e-9                 # V = 2 y1 y2, and U, U' against their definitions
TOL_QSD_LAMBDA = 1e-6        # |lambda_L - c cos(pi/(L+1))| / c on nn4
TOL_ROW_SUM = 1e-9           # conditioned-chain row sums
TOL_SURVIVAL = 1e-9          # DP survival against the exact count, relative
TOL_C_HAT = 0.002            # fitted rate, as the program's own TOL_C
MC_SIGMAS = 4.0
EXACT_HORIZON = 30           # steps of the DP series checked exactly

# A command listed here is known to exit 3 with this diagnostic.  It is
# attempted every time and counted as a non-verdict; any other non-verdict
# exit is a failed operation.
KNOWN_DEFECTS = {
    "diagonal": {"dp": "window L = 72 truncates", "verify": "window L = 72 truncates"},
}


@dataclass
class Outcome:
    """One finished command: what the researcher would see."""

    command: str             # first word of the command line
    code: int
    stdout: str
    stderr: str
    seed: int                # program seed passed with --seed


@dataclass
class Verdict:
    status: str              # "verdict", "known_defect" or "failed"
    problems: list = field(default_factory=list)
    info: dict = field(default_factory=dict)
    incorrect: bool = False  # an answer was given but a check on it failed


@dataclass
class CheckContext:
    """What the checker knows about a workload's generated config."""

    family: str                      # key into LAWS / REFERENCE
    pipeline: dict
    simulate: dict
    zchain: dict
    verify_failing: frozenset = None  # exact set of failing rows, or None


def survival_exact(family, x0, n):
    """P(tau > k) for k = 0..n from x0 on the open quadrant, by exact counting.

    The box holds every point reachable in n steps, so nothing is truncated.
    """
    size = max(x0) + n + 2
    q = np.zeros((size, size))
    q[tuple(x0)] = 1.0
    out = np.empty(n + 1)
    out[0] = 1.0
    for k in range(1, n + 1):
        nxt = np.zeros_like(q)
        for (dx, dy), p in LAWS[family]:
            src = q[max(0, -dx):size - max(0, dx), max(0, -dy):size - max(0, dy)]
            nxt[max(0, dx):size - max(0, -dx), max(0, dy):size - max(0, -dy)] += p * src
        nxt[0, :] = 0.0
        nxt[:, 0] = 0.0
        q = nxt
        out[k] = q.sum()
    return out


def written_files(stdout):
    return [Path(line[len("wrote "):]) for line in stdout.splitlines()
            if line.startswith("wrote ")]


def artifact(files, prefix):
    """The artifact whose name is ``<prefix>_<run id>.<ext>``."""
    for path in files:
        stem = path.name.rsplit(".", 1)[0]
        if stem.rsplit("_", 1)[0] == prefix:
            return path
    raise LookupError(f"no {prefix} artifact among {[p.name for p in files]}")


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _check_cramer(files, ctx, info, outcome):
    ref = REFERENCE[ctx.family]
    data = read_json(artifact(files, "cramer"))
    errs = [abs(h - r) for h, r in zip(data["h"], ref["h"])] + [abs(data["c"] - ref["c"])]
    info["cramer_err"] = max(errs)
    if max(errs) > TOL_CLOSED_FORM:
        return [f"h, c = {data['h']}, {data['c']} off the closed form by {max(errs):.3g}"]
    return []


def _check_whiten(files, ctx, info, outcome):
    p = read_json(artifact(files, "whiten"))["p"]
    ref = REFERENCE[ctx.family]["p"]
    if p is None or abs(p - ref) > TOL_P:
        return [f"p = {p} against {ref!r}"]
    return []


def _check_harmonic(files, ctx, info, outcome):
    header, rows = read_csv(artifact(files, "harmonic"))
    col = {name: rows[:, i] for i, name in enumerate(header)}
    x1, x2 = col["x1"], col["x2"]
    problems = []
    if rows.shape[0] == 0 or np.any(rows[:, 2:] <= 0.0):
        problems.append("V, V', U, U' must be positive on the window")
        return problems
    h = REFERENCE[ctx.family]["h"]
    dot = h[0] * x1 + h[1] * x2
    err_u = max(np.max(np.abs(col["U"] - np.exp(dot) * col["V"]) / col["U"]),
                np.max(np.abs(col["Uprime"] - np.exp(-dot) * col["Vprime"]) / col["Uprime"]))
    if err_u > TOL_V:
        problems.append(f"U, U' differ from e^(+-h.x) V, V' by {err_u:.3g}")
    if ctx.family == "nn4":
        err_v = float(np.max(np.abs(col["V"] - 2 * x1 * x2) / (2 * x1 * x2)))
        info["V_relerr"] = err_v
        if err_v > TOL_V:
            problems.append(f"V differs from 2 y1 y2 by {err_v:.3g}")
    info["harmonic_states"] = int(rows.shape[0])
    return problems


def _check_dp(files, ctx, info, outcome):
    header, rows = read_csv(artifact(files, "dp"))
    n_max = int(ctx.pipeline["n_max"])
    c = REFERENCE[ctx.family]["c"]
    problems = []
    if rows.shape[0] != n_max + 1 or np.any(rows[:, 0] != np.arange(n_max + 1)):
        return [f"dp series must hold n = 0..{n_max}"]
    raw = np.exp(rows[:, 1])
    k = min(EXACT_HORIZON, n_max)
    exact = survival_exact(ctx.family, tuple(ctx.pipeline["x0"]), k)
    err = float(np.max(np.abs(raw[:k + 1] - exact) / exact))
    info["dp_exact_relerr"] = err
    if err > TOL_SURVIVAL:
        problems.append(f"P(tau > n), n <= {k}, off the exact count by {err:.3g}")
    if np.any(np.diff(raw) > 1e-12 * raw[:-1]):
        problems.append("raw survival increases")
    if np.max(np.abs(rows[:, 2] * c ** rows[:, 0] - raw) / raw) > TOL_SURVIVAL:
        problems.append("rescaled series inconsistent with the raw one")
    c_hat = read_json(artifact(files, "dp_fit"))["c_hat"]
    if abs(c_hat - c) > TOL_C_HAT:
        problems.append(f"fitted rate {c_hat} further than {TOL_C_HAT} from c")
    return problems


def _check_qsd(files, ctx, info, outcome):
    summary = read_json(artifact(files, "qsd_summary"))
    lam, L = summary["lambda"], summary["L"]
    c = REFERENCE[ctx.family]["c"]
    problems = []
    if not 0.0 < lam < c:
        problems.append(f"lambda_L = {lam} outside (0, c)")
    if ctx.family == "nn4":
        relerr = abs(lam - c * math.cos(math.pi / (L + 1))) / c
        info["qsd_lambda_relerr"] = relerr
        if relerr > TOL_QSD_LAMBDA:
            problems.append(f"lambda_L off c cos(pi/(L+1)) by {relerr:.3g} of c")
    _, rows = read_csv(artifact(files, "qsd"))
    mu = rows[:, -1]
    if np.any(mu < 0.0) or abs(mu.sum() - 1.0) > TOL_ROW_SUM:
        problems.append(f"QSD is not a probability (sum {mu.sum()!r})")
    return problems


def _check_zchain(files, ctx, info, outcome):
    data = read_json(artifact(files, "zchain"))
    dev = max(abs(data["row_sum_min"] - 1.0), abs(data["row_sum_max"] - 1.0))
    info["row_sum_dev"] = dev
    if dev > TOL_ROW_SUM:
        return [f"conditioned-chain row sums deviate from 1 by {dev:.3g}"]
    return []


def _check_verify(files, ctx, info, outcome):
    rows = read_jsonl(artifact(files, "verify"))
    failing = frozenset(r["check"] for r in rows if not r["pass"])
    info["verify_rows"] = {r["check"]: [r["measured"], r["pass"]] for r in rows}
    problems = []
    if outcome.code != (1 if failing else 0):
        problems.append(f"exit {outcome.code} does not match {len(failing)} failing rows")
    if ctx.verify_failing is not None and failing != ctx.verify_failing:
        problems.append(f"failing rows {sorted(failing)}, "
                        f"expected exactly {sorted(ctx.verify_failing)}")
    return problems


def _check_simulate(files, ctx, info, outcome):
    records = {r["estimator"]: r for r in read_jsonl(artifact(files, "simulate"))}
    sim = ctx.simulate
    n_samples = int(sim["n_samples"])
    expected = {"direct", "tilted"} if sim["estimator"] == "both" else {sim["estimator"]}
    if set(records) != expected:
        return [f"estimators {sorted(records)}, expected {sorted(expected)}"]
    seed, x0, n = outcome.seed, tuple(sim["x0"]), int(sim["n"])
    target = survival_exact(ctx.family, x0, n)[-1]
    pinned = PINNED_MC.get((ctx.family, x0, n, n_samples, int(ctx.pipeline["workers"]))) \
        if seed == DEFAULT_SEED else None
    problems = []
    for name, rec in records.items():
        value, se = rec["value"], rec["std_error"]
        info[f"mc_{name}"] = [value, se]
        if rec["seed"] != seed or rec["n_samples"] != n_samples:
            problems.append(f"{name} ran with seed {rec['seed']}, "
                            f"{rec['n_samples']} samples")
        if not se > 0.0 or abs(value - target) > MC_SIGMAS * se:
            problems.append(f"{name} estimate {value!r} +- {se!r} is more than "
                            f"{MC_SIGMAS:g} SE from the exact {target!r}")
        if pinned is not None and (value, se) != pinned[name]:
            problems.append(f"{name} estimate {value!r} +- {se!r} differs from "
                            f"the pinned {pinned[name]!r}")
    return problems


def check(outcome, ctx):
    """Classify one command and check its answer."""
    known = KNOWN_DEFECTS.get(ctx.family, {}).get(outcome.command)
    if outcome.code == 3 and known is not None and known in outcome.stderr:
        return Verdict("known_defect", info={"stderr": outcome.stderr.strip()})
    if outcome.code not in (0, 1):
        return Verdict("failed", [f"exit {outcome.code}: {outcome.stderr.strip()[-300:]}"])
    if outcome.code == 1 and outcome.command != "verify":
        return Verdict("failed", [f"{outcome.command} exited 1"])
    files = written_files(outcome.stdout)
    info = {}
    try:
        problems = globals()[f"_check_{outcome.command}"](files, ctx, info, outcome)
    except (LookupError, OSError, ValueError, TypeError) as exc:
        problems = [f"unreadable answer ({type(exc).__name__}: {exc})"]
    if problems:
        return Verdict("failed", problems, info, incorrect=True)
    return Verdict("verdict", info=info)
