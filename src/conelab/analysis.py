"""Tail-asymptotics fitting and verification of the limit laws.

Every check compares a DP-oracle measurement against an independently
computed prediction (closed forms, harmonic tables, or the QSD), quotienting
out the unknown global constants through ratios and normalizations.  Each
selector declares its rows (``Row``) and the exact-zero operands they read;
one evaluator, ``_evaluate``, applies the structural-zero rule, measures the
rows, and builds every VerificationReport.  The fixed-time rows of a periodic
or sublattice walk say so in a note built from the model's period and index.
A selector that reads the harmonic tables reads them before its first DP
series, so whatever refuses the tables refuses before any DP runs.
"""

from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._lattice import admit, grow_window, walk_reach
from .cramer import solve_cramer_point
from .dp_oracle import (LEAK_TOL, bridge_value, conditional_law, dp_evolve,
                        exit_position_law, exit_profile, exit_time_pmf_rescaled,
                        hazard_ratio, survival_scan)
from .errors import ConfigError, NumericsError
from .harmonic import build_U_tables, build_V_tables
from .model import build_model, check_acute_cone_condition, cone_contains
from .spectral import qsd_for_model, tv_distance_tables
from .whiten import whiten_model

SELECTORS = ("survival_tail", "start_ratio", "hazard", "yaglom", "exit_law",
             "bridge", "exp_moment", "driftless_bound")

# tolerances, sized to the slowest observed O(1/n) corrections at n_hi = 300
# and recorded in every report
TOL_RATIO = 0.02          # ratio-type limits at n_hi
TOL_TV_DP = 0.02          # TV of distributional limits measured off the DP
TOL_BRIDGE = 0.05         # two-time bridge consistency
TOL_SLOPE = 0.05          # log-log flatness slopes


@dataclass
class TailFit:
    c_hat: float
    exponent_hat: float
    constant_hat: float
    window_used: tuple
    diagnostics: dict = field(default_factory=dict)


@dataclass
class VerificationReport:
    check: str
    predicted: float
    measured: float
    deviation: float
    tolerance: float
    passed: bool
    notes: list = field(default_factory=list)


def fit_survival_series(b, rescale_by=1.0):
    """Geometric rate and polynomial order of a survival series b_n.

    The dyadic exponent estimate -log2(b_2n / b_n) is Richardson-extrapolated
    once; the rate comes from the telescoped log slope over the top octave
    with the polynomial factor removed via the fitted exponent.  Same-parity
    endpoints are used throughout so period-two class effects cancel.  Every
    pipeline fit runs up to ``pipeline.n_max``, so a short series names it.
    """
    b = np.asarray(b, dtype=float)
    n_hi = b.shape[0] - 1
    if n_hi - n_hi % 8 < 32:
        raise ConfigError(f"pipeline.n_max must be at least 32, got {n_hi}: the series "
                          "is too short for the tail fit")
    n_hi -= n_hi % 8          # keeps every anchor integral and even
    n1, n2 = n_hi // 4, n_hi // 2
    if np.any(b[[n1, n2, n_hi]] <= 0.0):
        raise ConfigError("survival series vanishes inside the fit window")
    e1 = -np.log2(b[n2] / b[n1])
    e2 = -np.log2(b[n_hi] / b[n2])
    exponent = 2.0 * e2 - e1
    slope = (np.log(b[n_hi]) - np.log(b[n2])) / (n_hi - n2)
    poly_correction = exponent * np.log(n_hi / n2) / (n_hi - n2)
    c_hat = float(rescale_by * np.exp(slope + poly_correction))
    ns = np.arange(n2, n_hi + 1)
    constant = float(np.mean(b[n2:n_hi + 1] * ns ** exponent))
    return TailFit(
        c_hat=c_hat, exponent_hat=float(exponent), constant_hat=constant,
        window_used=(int(n1), int(n_hi)),
        diagnostics={"dyadic_estimates": (float(e1), float(e2))},
    )


def fit_tail(series):
    """Tail fit of a drifted DP series; requires the rescaled evolution."""
    if series.rescale_by == 1.0:
        raise ConfigError("drifted fits need the series rescaled by the survival rate")
    return fit_survival_series(series.survival, rescale_by=series.rescale_by)


# ---------------------------------------------------------------------------
# pipeline context: all artifacts the selectors draw on, built lazily

SCAN_LEVELS = (1, 2, 4, 8, 12, 16, 20)   # diagonal levels of the driftless scan


def scan_grid(d):
    """Starts of the driftless survival scan in dimension d (20 in d = 2).

    Each diagonal level (a, ..., a) follows the d starts that raise one
    coordinate of the previous level to a; (24, ..., 24) closes the list.
    """
    starts = [(1,) * d]
    for lo, hi in zip(SCAN_LEVELS, SCAN_LEVELS[1:]):
        starts += [tuple(hi if j == i else lo for j in range(d)) for i in range(d)]
        starts.append((hi,) * d)
    return tuple(starts) + ((24,) * d,)


SCAN_N_LO = 50           # first time of the driftless bound's statistic
BRIDGE_TIMES = (1.0 / 3.0, 0.5)


@dataclass
class VerifyParams:
    x0: tuple = (1, 1)
    ratio_start: tuple = (2, 2)
    n_max: int = 400
    n_hi: int = 300
    dp_window: int = 60
    harmonic_window: float = 72.0
    qsd_window: int = 60
    qsd_sweep: tuple = (20, 30, 40, 60)
    bridge_endpoint: tuple = (2, 2)
    seed: int = 20240718
    workers: int = 4

    def retained_times(self):
        n = self.n_hi
        times = {n, n - 1, n // 4}
        for t in BRIDGE_TIMES:
            m = int(np.floor(t * n))
            times.update((m, n - m))
        return tuple(sorted(times))


class PipelineContext:
    """Lazily computed artifacts shared by the verification selectors."""

    def __init__(self, law, cone, params=None):
        self.law = law
        self.cone = cone
        self.params = params or VerifyParams()
        self._scan_child = None

    @cached_property
    def report(self):
        return build_model(self.law, self.cone)

    @cached_property
    def cramer(self):
        self.report
        return solve_cramer_point(self.law)

    @cached_property
    def whitening(self):
        return whiten_model(self.cramer, self.cone)

    @cached_property
    def harmonic(self):
        """Harmonic tables, from ``harmonic_window`` up until the tail bound passes.
        Their hypotheses depend on (law, cone) alone and are checked first: u needs a
        closed-form image cone, and the normalizer sum the acute-angle condition."""
        wd, cd, L = self.whitening, self.cramer, self.params.harmonic_window
        if wd.cone_image is None:
            raise ConfigError(f"no closed-form image cone: a non-diagonal whitening "
                              f"matrix in d = {self.law.dim} leaves u undefined")
        if not check_acute_cone_condition(self.cone, cd.h)[0]:
            raise NumericsError("acute-angle condition fails: the normalizer sum over "
                                "the cone diverges")
        return grow_window(lambda L: build_U_tables(build_V_tables(
            cd.tilted, self.cone, wd.cone_image, wd.M, L=float(L)), cd.h), L)

    @cached_property
    def series(self):
        return self._surviving("x0", self.params.n_max, self.params.retained_times())

    @cached_property
    def series_ratio_start(self):
        """Evolved to n_hi only: every row reads it there, and none further."""
        return self._surviving("ratio_start", self.params.n_hi)

    def start(self, key):
        """``pipeline.<key>``, admitted on the cone by that name, and refused when every
        step from it leaves the cone, since its DP series would be 0 from step 1."""
        x0 = admit(self.cone, getattr(self.params, key), f"pipeline.{key}")
        if not self._can_stay(x0[None])[0]:
            raise ConfigError(self._no_survivor(x0))
        return x0

    def _can_stay(self, starts):
        """Whether some step from each of the (N, d) ``starts`` stays in the cone."""
        moved = (starts[:, None] + self.law.support).reshape(-1, self.law.dim)
        return cone_contains(self.cone, moved).reshape(len(starts), -1).any(axis=1)

    def _surviving(self, key, n_max, retain=()):
        """The DP series from ``start(key)`` to ``n_max``, unless no path survives to
        n_hi: every row would read 0/0."""
        series = dp_evolve(self.law, self.cone, self.start(key), n_max,
                           rescale_by=self.cramer.c, L=self.params.dp_window, retain=retain)
        if series.survival[self.params.n_hi] == 0.0:
            raise ConfigError(self._no_survivor(series.x0))
        return series

    def _no_survivor(self, x0):
        return (f"no path from {x0.tolist()} survives to n_hi = {self.params.n_hi}: "
                "the start cannot stay in the cone")

    @cached_property
    def driftless_scan(self):
        """The backward survival scan, collected from ``verify_all``'s child if one runs it."""
        if self._scan_child is not None:
            return self._scan_child.result()
        return survival_scan(self.cramer.tilted, self.cone, self.scan_starts,
                             self.params.n_max)

    @cached_property
    def scan_starts(self):
        """``scan_grid``'s starts when the cone holds them all, else the lattice
        points nearest the cone's axis at their max-norm scales that ``start`` would
        admit: in the open cone, with a step that stays in it (else survival reads 0
        from n = 1)."""
        starts = np.array(scan_grid(self.law.dim))
        if cone_contains(self.cone, starts).all():
            return starts
        cone, scales = self.cone, sorted(set(starts.max(axis=1).tolist()))
        phi = cone.theta0 + cone.beta / 2.0
        axis = cone.normal if cone.kind == "halfspace" else np.array([np.cos(phi), np.sin(phi)])
        starts = np.rint(np.outer(scales, axis / np.abs(axis).max())).astype(int)
        starts = starts[cone_contains(cone, starts) & self._can_stay(starts)]
        if len(starts) == 0:
            raise ConfigError(f"the driftless scan has no start: no lattice point nearest "
                              f"the {cone.kind} cone's axis has a step that stays in the cone")
        return starts

    @cached_property
    def qsd(self):
        return qsd_for_model(self.law, self.cramer, self.cone, self.params.qsd_window)

    @cached_property
    def p(self):
        """Degree of u: the image cone's, or fitted from the driftless scan without one."""
        if self.whitening.p is not None:
            return self.whitening.p
        fit = fit_survival_series(self.driftless_scan[0], rescale_by=1.0)
        return 2.0 * fit.exponent_hat

    @cached_property
    def exponent(self):
        """Polynomial tail order p + d/2."""
        return self.p + self.law.dim / 2.0

    @cached_property
    def parity_notes(self):
        """The notes of the fixed-time TV rows: period or sublattice confinement
        blocks their limits, and an aperiodic full-lattice walk has none."""
        index, period = self.report.sublattice_index, self.report.period
        if index == 1 and period == 1:
            return []
        return [f"law has period {period} and its steps generate a sublattice of "
                f"index {index}: fixed-time conditionals occupy one of "
                f"{index * period} lattice classes while the limit profile spans "
                "all of them"]

    @cached_property
    def u_ratio(self):
        """U(x0) / U(ratio_start), the limit of the plateau and start ratios."""
        starts = {key: self.start(key) for key in ("x0", "ratio_start")}   # before the tables
        tabs = self.harmonic
        for key, x in starts.items():          # U reads 0 off the window
            admit(self.cone, x, f"pipeline.{key}", tabs.grid, f"harmonic window L = {tabs.L:g}")
        return tabs.U_at(starts["x0"]) / tabs.U_at(starts["ratio_start"])

    def exit_pmf(self, start):
        """The rescaled exit pmf at n_hi from "x0" or "ratio_start" as a zero operand."""
        series = self.series if start == "x0" else self.series_ratio_start
        n = self.params.n_hi
        return exit_time_pmf_rescaled(series, n), f"no path leaves the cone at n = {n}", start


# deviation of a measured value m from its prediction p, by the row's kind; a
# structural zero reads 1 on a "tv" row (all mass apart) and 0 on any other
DEVIATIONS = {"relative": lambda m, p: abs(m - p) / abs(p), "signed": lambda m, p: m - p,
              "tv": lambda m, p: m - p, "absolute": lambda m, p: abs(m - p),
              "shortfall": lambda m, p: p - m}


# a verify row as its selector declares it: ``measure()`` returns the measured
# value and runs only when no zero operand is 0; ``kind`` is a key of DEVIATIONS;
# ``notes`` hold on every row, ``reading`` notes only on a measured one
Row = namedtuple("Row", "check predicted tolerance measure kind notes reading",
                 defaults=("relative", (), ()))


def _report(check, predicted, measured, tolerance, kind="relative", notes=(),
            deviation=None):
    """The row's VerificationReport; a row with any non-finite value never passes."""
    if deviation is None:
        deviation = DEVIATIONS[kind](measured, predicted)
    finite = np.all(np.isfinite([predicted, measured, deviation, tolerance]))
    passed = bool(deviation <= tolerance and finite)
    return VerificationReport(
        check=check, predicted=float(predicted), measured=float(measured),
        deviation=float(deviation), tolerance=float(tolerance), passed=passed,
        notes=list(notes),
    )


def _evaluate(ctx, rows, zeros=()):
    """The VerificationReports of a selector's ``rows``, which read the (value,
    event, start) operands ``zeros``.  An exact zero is decided by the walk's
    structure, not by the numerics: no row is measured, each reads 0 (1 for a
    TV) with deviation 1, and one note names the first zero's event.
    """
    for value, event, start in zeros:
        if value == 0.0:
            period = ctx.report.period
            cause = f" (the walk has period {period})" if period > 1 else ""
            note = (f"structural, not numerical: from {start} = "
                    f"{list(getattr(ctx.params, start))} {event}{cause}")
            return [_report(r.check, r.predicted, 1.0 if r.kind == "tv" else 0.0,
                            r.tolerance, notes=[*r.notes, note], deviation=1.0)
                    for r in rows]
    return [_report(r.check, r.predicted, r.measure(), r.tolerance, r.kind,
                    [*r.notes, *r.reading]) for r in rows]


def verify_limits(ctx, selector):
    """Run one verification selector; returns its VerificationReport rows."""
    if selector not in SELECTORS:
        raise ConfigError(f"unknown selector {selector!r}; choose from {SELECTORS}")
    return globals()[f"_check_{selector}"](ctx)


def verify_all(ctx):
    """Every selector in order, once ``bridge_endpoint`` lies on the cone.

    The driftless scan shares nothing with the other stages, so with a second
    usable core a child forked before any stage runs computes it while the
    selectors compute the rest in this process; the first selector that needs
    the scan waits for it.  Errors therefore surface in the serial order, and
    a child whose scan is never needed is killed and reaped on the way out.
    """
    from . import _fork  # imported here, so commands that never fork skip it

    admit(ctx.cone, ctx.params.bridge_endpoint, "pipeline.bridge_endpoint")
    if _fork.usable_cores() > 1 and "driftless_scan" not in vars(ctx):
        ctx._scan_child = _fork.Child(lambda: ctx.driftless_scan)
    try:
        return [rep for selector in SELECTORS for rep in verify_limits(ctx, selector)]
    finally:
        if ctx._scan_child is not None:
            ctx._scan_child.close()
            ctx._scan_child = None


def _check_survival_tail(ctx):
    n_hi = ctx.params.n_hi
    predicted = ctx.u_ratio
    series, s = ctx.series, ctx.exponent
    fit = fit_tail(series)
    # octave slopes of b_n * n^s are s minus the dyadic exponent estimates;
    # their Richardson extrapolation, s minus the fitted exponent, should vanish
    s1, s2 = (s - e for e in fit.diagnostics["dyadic_estimates"])
    return _evaluate(ctx, [
        Row("survival_tail.flatness", 0.0, TOL_SLOPE, lambda: s - fit.exponent_hat,
            "absolute", reading=[f"octave slopes {s1:.4f}, {s2:.4f} of b_n * n^{s:.3f}"]),
        Row("survival_tail.plateau_ratio", predicted, TOL_RATIO, lambda: (
            series.survival[n_hi] / ctx.series_ratio_start.survival[n_hi]))])


def _check_start_ratio(ctx):
    predicted = ctx.u_ratio
    zeros = [ctx.exit_pmf("x0"), ctx.exit_pmf("ratio_start")]
    return _evaluate(ctx, [Row("start_ratio.exit_pmf", predicted, TOL_RATIO,
                               lambda: zeros[0][0] / zeros[1][0])], zeros)


def _check_hazard(ctx):
    zero = ctx.exit_pmf("x0")
    predicted = (1.0 - ctx.cramer.c) / ctx.cramer.c
    return _evaluate(ctx, [Row("hazard.limit", predicted, TOL_RATIO,
                               lambda: hazard_ratio(ctx.series, ctx.params.n_hi))], [zero])


def _check_yaglom(ctx):
    n_lo, n_hi = ctx.params.n_hi // 4, ctx.params.n_hi
    tabs = ctx.harmonic
    mu = tabs.kappa * tabs.Uprime             # zero off the window, as U' is
    tvs = {n: tv_distance_tables(conditional_law(ctx.series, n), ctx.series.grid, mu,
                                 tabs.grid) for n in (n_lo, n_hi)}
    return _evaluate(ctx, [
        Row("yaglom.tv", 0.0, TOL_TV_DP, lambda: tvs[n_hi], "tv", ctx.parity_notes),
        Row("yaglom.tv_improves", 0.0, 0.0, lambda: tvs[n_hi] - tvs[n_lo], "signed",
            reading=[f"TV at {n_lo}: {tvs[n_lo]:.6f}, at {n_hi}: {tvs[n_hi]:.6f}"])])


def _check_exit_law(ctx):
    tabs = ctx.harmonic

    def tv():
        measured_law, _ = exit_position_law(ctx.series, ctx.params.n_hi)
        grid = ctx.series.grid
        uprime = np.where(grid.mask, tabs.grid.place(tabs.Uprime, grid.lo, grid.shape), 0.0)
        profile, _ = exit_profile(grid, ctx.law, uprime, "kappa U'")
        return 0.5 * float(np.abs(measured_law - profile).sum())

    return _evaluate(ctx, [Row("exit_law.tv", 0.0, TOL_TV_DP, tv, "tv", ctx.parity_notes)],
                     [ctx.exit_pmf("x0")])


def _check_bridge(ctx):
    prm = ctx.params
    t1, t2 = BRIDGE_TIMES
    n = prm.n_hi
    z = admit(ctx.cone, prm.bridge_endpoint, "pipeline.bridge_endpoint", ctx.series.grid,
              f"DP window L = {ctx.series.L}")      # the tables read 0 off it, structural or not
    s = ctx.exponent
    w1, w2 = [(np.floor(t * n) * (n - np.floor(t * n))) / n ** 2 for t in (t1, t2)]
    endpoint = ctx.series.grid.value_at(ctx.series.tables[n], z)
    b1, b2 = [bridge_value(ctx.series, n, t, z) for t in (t1, t2)] if endpoint else [0.0, 0.0]
    empty = [int(np.floor(t * n)) for t, b in ((t1, b1), (t2, b2)) if b == 0.0]
    zeros = [(endpoint, f"no path reaches the endpoint {z.tolist()} at n = {n}", "x0"),
             (min(b1, b2), f"no bridge to {z.tolist()} at n = {n} passes through x0 at "
              f"time {' or '.join(map(str, empty))}", "x0")]
    return _evaluate(ctx, [Row(
        "bridge.two_time_ratio", (w1 / w2) ** (-s), TOL_BRIDGE, lambda: b1 / b2,
        notes=[f"time fractions {t1:.4f} and {t2:.4f}, endpoint {z.tolist()}"])], zeros)


def _check_exp_moment(ctx):
    n_hi = ctx.params.n_hi
    # the dyadic blocks n = n_hi/4 + 1 .. n_hi/2 and n_hi/2 + 1 .. n_hi; at
    # delta = -ln(c) the rescaled exit terms are the summand itself
    n = np.arange(n_hi // 4 + 1, n_hi + 1)
    half = n_hi // 2 - n_hi // 4
    terms = exit_time_pmf_rescaled(ctx.series, n)
    block1, block2 = terms[:half].sum(), terms[half:].sum()
    zeros = [(block, f"no path leaves the cone at n = {first}..{last}", "x0")
             for block, first, last in ((block1, n[0], n[half - 1]), (block2, n[half], n_hi))]

    def div_ratio():
        # the shift, 0 unless e^(0.05 n_hi) would overflow, cancels in the ratio
        grown = terms * np.exp(0.05 * n - max(0.0, 0.05 * n_hi - 700.0))
        return grown[half:].sum() / grown[:half].sum()

    return _evaluate(ctx, [
        Row("exp_moment.convergent_at_critical", 1.0, 0.0, lambda: block2 / block1,
            "signed", reading=["dyadic block-sum ratio; below 1 means the series at "
                               "the critical rate converges"]),
        Row("exp_moment.divergent_above_critical", 1.0, 0.0, div_ratio, "shortfall",
            reading=["dyadic block-sum ratio; above 1 means geometric growth once the "
                     "rate exceeds the critical value"])], zeros)


def _check_driftless_bound(ctx):
    prm = ctx.params
    if prm.n_max <= SCAN_N_LO:
        raise ConfigError(f"pipeline.n_max must exceed {SCAN_N_LO} for the driftless "
                          f"bound, got {prm.n_max}")
    scan, pts = ctx.driftless_scan, ctx.scan_starts
    M, p = ctx.whitening.M, ctx.p
    denom = 1.0 + np.linalg.norm(pts @ M.T, axis=1) ** p
    ns = np.arange(SCAN_N_LO, prm.n_max + 1)
    stat = (scan[:, ns] * ns ** (p / 2.0)) / denom[:, None]
    top = stat.max(axis=0)
    lo = max(SCAN_N_LO, prm.n_max // 10)
    sel = ns >= lo
    x = np.log(ns[sel].astype(float))
    y = np.log(top[sel])
    slope = float(np.polyfit(x, y, 1)[0])
    L = walk_reach(pts, prm.n_max, ctx.cramer.tilted, LEAK_TOL)
    axis = [] if np.array_equal(pts, scan_grid(ctx.law.dim)) else [
        f"the cone excludes scan_grid's starts; scanned from {pts.tolist()} on its axis"]
    return _evaluate(ctx, [Row(
        "driftless_bound.scan_slope", 0.0, TOL_SLOPE, lambda: slope, "absolute", axis,
        reading=[f"scan statistic max over {len(pts)} starts in "
                 f"[{float(top.min()):.4f}, {float(top.max()):.4f}]",
                 f"scan window L = {L} lowers each survival by at most {LEAK_TOL:g}, "
                 f"{LEAK_TOL / scan[:, ns].min():.2e} of the smallest read"])])
