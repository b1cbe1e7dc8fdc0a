"""Span tracing of ``conelab`` layers from outside the package.

The public functions of each layer are wrapped where the pipeline looks them
up (``conelab.analysis.dp_evolve``, ``conelab.cli.mc_survival``, ...).  Each
call records a span: name, start, end, parent span and run id.  Spans stay in
memory and are turned into per-layer self times and counts at the end.
Nothing in the package changes; ``install`` restores every attribute on exit.
"""

import contextlib
import math
import time
from collections import defaultdict

LAYERS = ("cli", "model", "cramer", "whiten", "harmonic", "dp_oracle", "spectral",
          "simulate", "analysis")
SELECTORS = ("survival_tail", "start_ratio", "hazard", "yaglom", "exit_law", "bridge",
             "exp_moment", "driftless_bound")


class Tracer:
    def __init__(self):
        self.spans = []
        self.run_id = None
        self._stack = []

    def wrap(self, fn, name, attrs=None):
        """``fn`` recording a span per call; ``name`` may be a function of the args."""
        def traced(*args, **kwargs):
            rec = {"name": name(*args, **kwargs) if callable(name) else name,
                   "parent": self._stack[-1] if self._stack else None,
                   "run": self.run_id, "attrs": {}}
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec["attrs"]["error"] = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                rec["end"] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                rec["attrs"].update(attrs(result, *args, **kwargs))
            return result
        return traced

    def annotate(self, fn, attrs):
        """``fn`` adding ``attrs(result, ...)`` to the open span, without a span of its own."""
        def probed(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self._stack:
                self.spans[self._stack[-1]]["attrs"].update(attrs(result, *args, **kwargs))
            return result
        return probed


def _box_bytes(grid, *args, **kwargs):
    return {"box_bytes": 8 * math.prod(grid.shape)}


def _csr_bytes(result, *args, **kwargs):
    kernel, grid = result
    return {"csr_bytes": int(kernel.data.nbytes + kernel.indices.nbytes
                             + kernel.indptr.nbytes), "n_states": grid.n_states}


def _emit_bytes(files, config, *args, **kwargs):
    return {"bytes": sum((config.out_dir / name).stat().st_size for name in files)}


def _patches(conelab):
    """(module, attribute, span name or None for an annotation, attrs)."""
    cli, analysis = conelab.cli, conelab.analysis
    return [
        (cli, "parse_run_config", "cli.parse", None),
        (cli, "emit_report", "cli.emit", _emit_bytes),
        (cli, "fit_tail", "analysis.fit_tail", None),
        (cli, "mc_survival", "simulate.direct",
         lambda r, law, cone, x0, n, m, *a, **k: {"path_steps": n * m}),
        (cli, "is_survival", "simulate.tilted",
         lambda r, cd, cone, x0, n, m, *a, **k: {"path_steps": n * m}),
        (conelab.simulate, "z_chain", "simulate.zchain", None),
        (analysis, "build_model", "model.build_model", None),
        (analysis, "solve_cramer_point", "cramer.solve",
         lambda r, *a, **k: {"newton_iters": len(r.newton_residuals) - 1}),
        (analysis, "whiten_model", "whiten.whiten_model", None),
        (analysis, "build_V_tables", "harmonic.build_V",
         lambda r, *a, **k: {"n_states": r.grid.n_states,
                             "residual": r.convergence_residual}),
        (analysis, "build_U_tables", "harmonic.build_U", None),
        (analysis, "dp_evolve", "dp_oracle.evolve",
         lambda r, *a, **k: {"cell_steps": math.prod(r.grid.shape) * r.n_max,
                             "leak_max": r.leak_max}),
        (analysis, "survival_scan", "dp_oracle.scan", None),
        (analysis, "qsd_for_model", "spectral.qsd", None),
        (analysis, "tv_distance_tables", "spectral.tv", None),
        (conelab.spectral, "truncated_kernel", "spectral.kernel", _csr_bytes),
        (conelab.spectral, "qsd_power_iteration", "spectral.solve",
         lambda r, *a, **k: {"iterations": r.iterations, "converged": r.converged,
                             "L": r.L}),
        (analysis, "verify_limits",
         lambda ctx, selector, *a, **k: f"analysis.{selector}", None),
        (conelab.harmonic, "make_grid", None, _box_bytes),
        (conelab.dp_oracle, "make_grid", None, _box_bytes),
    ]


@contextlib.contextmanager
def install(tracer, conelab):
    """Wrap the layer entry points of an imported ``conelab`` for the block."""
    saved = []
    try:
        for module, attr, name, attrs in _patches(conelab):
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, tracer.annotate(fn, attrs) if name is None
                    else tracer.wrap(fn, name, attrs))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def self_times(spans):
    """Each span's duration minus the part covered by its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans, qsd_artifact_L):
    """Per-layer metrics from recorded spans.

    ``qsd_artifact_L`` maps a run id to the window L of the QSD its command
    wrote, so that ``spectral.useful_frac`` counts solves that reach an
    artifact.  Byte counts are computed from array shapes, not measured.
    """
    own = self_times(spans)
    by_name = defaultdict(float)
    by_layer = defaultdict(float)
    for s, t in zip(spans, own):
        by_name[s["name"]] += t
        by_layer[s["name"].split(".")[0]] += t

    def named(name):
        return [s for s in spans if s["name"] == name]

    def attr_values(name, key):
        return [s["attrs"][key] for s in named(name) if key in s["attrs"]]

    m = {f"{layer}.self_s": by_layer[layer] for layer in LAYERS}
    for name in ("cli.parse", "cli.emit", "model.build_model", "cramer.solve",
                 "whiten.whiten_model", "harmonic.build_V", "harmonic.build_U",
                 "dp_oracle.evolve", "dp_oracle.scan", "spectral.kernel",
                 "spectral.solve", "spectral.tv", "simulate.direct", "simulate.tilted",
                 "simulate.zchain", "analysis.fit_tail"):
        m[f"{name}_s"] = by_name[name]
    for sel in SELECTORS:
        m[f"analysis.{sel}_s"] = by_name[f"analysis.{sel}"]
    m["cli.emit_bytes"] = sum(attr_values("cli.emit", "bytes"))
    m["cramer.newton_iters"] = sum(attr_values("cramer.solve", "newton_iters"))
    m["harmonic.n_states"] = max(attr_values("harmonic.build_V", "n_states"), default=0)
    m["harmonic.residual"] = max(attr_values("harmonic.build_V", "residual"), default=0.0)
    m["harmonic.grid_bytes"] = max(attr_values("harmonic.build_V", "box_bytes"), default=0)

    done = [(s, t) for s, t in zip(spans, own)
            if s["name"] == "dp_oracle.evolve" and "cell_steps" in s["attrs"]]
    cell_steps = sum(s["attrs"]["cell_steps"] for s, _ in done)
    m["dp_oracle.cell_steps"] = cell_steps
    m["dp_oracle.ns_per_cell_step"] = \
        1e9 * sum(t for _, t in done) / cell_steps if cell_steps else 0.0
    m["dp_oracle.leak_max"] = max((s["attrs"]["leak_max"] for s, _ in done), default=0.0)
    m["dp_oracle.aborts"] = sum("error" in s["attrs"] for s in named("dp_oracle.evolve"))
    m["dp_oracle.box_bytes"] = max(attr_values("dp_oracle.evolve", "box_bytes"), default=0)
    m["dp_oracle.scan_box_bytes"] = max(attr_values("dp_oracle.scan", "box_bytes"),
                                        default=0)

    solves = named("spectral.solve")
    useful = sum(1 for run, L in qsd_artifact_L.items()
                 if any(s["run"] == run and s["attrs"].get("L") == L for s in solves))
    iterations = [s["attrs"].get("iterations", 0) for s in solves]
    m["spectral.solves"] = len(solves)
    m["spectral.iterations"] = sum(iterations)
    m["spectral.iterations_max"] = max(iterations, default=0)
    m["spectral.unconverged"] = sum(not s["attrs"].get("converged", False) for s in solves)
    m["spectral.useful_frac"] = useful / len(solves) if solves else 0.0
    m["spectral.csr_bytes"] = max(attr_values("spectral.kernel", "csr_bytes"), default=0)

    path_steps = sum(attr_values("simulate.direct", "path_steps")
                     + attr_values("simulate.tilted", "path_steps"))
    m["simulate.path_steps"] = path_steps
    m["simulate.ns_per_path_step"] = \
        1e9 * (by_name["simulate.direct"] + by_name["simulate.tilted"]) / path_steps \
        if path_steps else 0.0
    return m


def solve_detail(spans):
    """Iterations and convergence of every QSD solve, in call order."""
    return [{"run": s["run"], "L": s["attrs"].get("L"),
             "iterations": s["attrs"].get("iterations"),
             "converged": s["attrs"].get("converged"),
             "seconds": s["end"] - s["start"]}
            for s in spans if s["name"] == "spectral.solve"]
