"""Scenario documents: parsing, validation, execution and serialization.

A scenario is a JSON document with a discriminated ``model`` object, a
time horizon and a sample count. Everything is deterministic: no seeds,
no clocks, and CSV output is byte-identical across runs.

Each model kind has one entry in ``_KINDS``: how to parse its model
object, its path, the metric rows read off the path, and (where the paper
gives one) its asymptotic state; :func:`simulate_scenario` computes the
path alone, and :func:`run_scenario` skips it for a kind whose rows are
closed forms of the model. The wire format lives in the parsers alone:
the reader records every value it accepts, defaults included, and that
record is what :func:`scenario_to_dict` writes back.
"""

from __future__ import annotations

import copy
import json
import math
import operator
from typing import Any, Callable, NamedTuple, Sequence

from . import lazy_submodule, monopoly
from .errors import (
    CalibrationInfeasibleError,
    MarketDynError,
    ParameterError,
    ScenarioValidationError,
)
from .trajectory import Trajectory, argmax_channel, time_grid

competition = lazy_submodule("competition")
feedback = lazy_submodule("feedback")
games = lazy_submodule("games")


class ValidationIssue(NamedTuple):
    code: str       # unknown_kind | missing_field | bad_type | invariant
    path: str
    expected: str
    found: str

    def __str__(self):
        return f"[{self.code}] at {self.path}: expected {self.expected}, found {self.found}"


class Scenario(NamedTuple):
    """A validated model plus run settings.

    ``model_doc`` is the model object as parsed, with defaults filled in
    and derived values resolved; :func:`scenario_to_dict` writes it back.
    """

    kind: str
    model: Any
    horizon: float
    samples: int
    outputs: tuple[str, ...] | None = None
    time_unit: str = "year"
    name: str | None = None
    model_doc: dict | None = None


class RunReport(NamedTuple):
    """Model-appropriate metrics and the ledger notes shown with them."""

    metrics: tuple[tuple[str, object], ...]
    discrepancies: tuple[str, ...]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


class _Reader:
    """Cursor over a JSON object collecting field-level issues.

    Every value it accepts is recorded in ``doc`` (defaults too, unless
    the default is None); sub-readers and list entries nest their own.
    """

    def __init__(self, data, path: str, issues: list[ValidationIssue]):
        self.data = data
        self.path = path
        self.issues = issues
        self.doc: dict = {}

    def sub(self, key: str) -> "_Reader":
        r = _Reader(self.data.get(key) if isinstance(self.data, dict) else None,
                    f"{self.path}.{key}", self.issues)
        self.doc[key] = r.doc
        return r

    def entries(self, key: str, what: str):
        """Readers over the ``what`` objects of a list field (absent or null: none).

        Entries that are not objects are reported and skipped.
        """
        items = self.data.get(key)
        if items is None:
            items = []
        if not isinstance(items, list):
            self._issue("bad_type", key, f"a list of {what}s", repr(items))
            return
        docs = self.doc[key] = []
        for idx, item in enumerate(items):
            path = f"{self.path}.{key}[{idx}]"
            if not isinstance(item, dict):
                self.issues.append(ValidationIssue("bad_type", path, f"a {what} object",
                                                   repr(item)))
                continue
            sub = _Reader(item, path, self.issues)
            docs.append(sub.doc)
            yield sub

    def has(self, key: str) -> bool:
        return isinstance(self.data, dict) and key in self.data

    def _issue(self, code: str, key: str, expected: str, found: str) -> None:
        self.issues.append(ValidationIssue(code, f"{self.path}.{key}", expected, found))

    def _present(self, key: str, required: bool, expected: str) -> bool:
        if not self.has(key) and required:
            self._issue("missing_field", key, expected, "nothing")
        return self.has(key)

    def _record(self, key: str, value):
        if value is not None:
            self.doc[key] = value
        return value

    def number(self, key: str, required: bool = True, default: float = 0.0,
               minimum: float | None = None) -> float:
        if not self._present(key, required, "a number"):
            return self._record(key, default)
        value = self.data[key]
        if not _is_number(value):
            self._issue("bad_type", key, "a number", repr(value))
            return default
        if not _is_finite(value):
            self._issue("bad_type", key, "a finite number", repr(value))
            return default
        value = float(value)
        if minimum is not None and value < minimum:
            self._issue("invariant", key, f"a number >= {minimum:g}", repr(value))
            return default
        return self._record(key, value)

    def integer(self, key: str, required: bool = True, default: int = 0,
                minimum: int | None = None) -> int:
        if not self._present(key, required, "an integer"):
            return self._record(key, default)
        value = self.data[key]
        if isinstance(value, bool) or not isinstance(value, int):
            self._issue("bad_type", key, "an integer", repr(value))
            return default
        if minimum is not None and value < minimum:
            self._issue("invariant", key, f"an integer >= {minimum}", repr(value))
            return default
        return self._record(key, value)

    def string(self, key: str, required: bool = True, default: str = "") -> str:
        if not self._present(key, required, "a string"):
            return self._record(key, default)
        value = self.data[key]
        if not isinstance(value, str):
            self._issue("bad_type", key, "a string", repr(value))
            return default
        return self._record(key, value)

    def number_list(self, key: str, required: bool = True,
                    minimum: float | None = None) -> tuple[float, ...] | None:
        """The number list under ``key``; None when it is absent or rejected."""
        if not self._present(key, required, "a list of numbers"):
            return None
        value = self.data[key]
        if not isinstance(value, list) or not all(_is_number(v) for v in value):
            self._issue("bad_type", key, "a list of numbers", repr(value))
            return None
        if not all(_is_finite(v) for v in value):
            self._issue("bad_type", key, "a list of finite numbers", repr(value))
            return None
        if minimum is not None and any(v < minimum for v in value):
            self._issue("invariant", key, f"numbers >= {minimum:g}", repr(value))
            return None
        return tuple(self._record(key, [float(v) for v in value]))

    def matrix(self, key: str, required: bool = True) -> list[list[float]] | None:
        """The matrix under ``key``; None when it is absent or rejected."""
        if not self._present(key, required, "a matrix"):
            return None
        value = self.data[key]
        if not (isinstance(value, list)
                and all(isinstance(row, list) and all(_is_number(v) for v in row)
                        for row in value)):
            self._issue("bad_type", key, "a matrix of numbers", repr(value))
            return None
        if not all(_is_finite(v) for row in value for v in row):
            self._issue("bad_type", key, "a matrix of finite numbers", repr(value))
            return None
        return self._record(key, [[float(v) for v in row] for row in value])

    def invariant(self, message: str, found: str) -> None:
        self.issues.append(ValidationIssue("invariant", self.path, message, found))


# ---------------------------------------------------------------------------
# Schedules, kernels, churn specs
# ---------------------------------------------------------------------------

def _parse_schedule(r: _Reader) -> monopoly.RateSchedule | None:
    if not isinstance(r.data, dict):
        r.issues.append(ValidationIssue("bad_type", r.path, "a schedule object", repr(r.data)))
        return None
    kind = r.string("kind")
    try:
        if kind == "constant":
            return monopoly.ConstantRate(r.number("a", minimum=0.0))
        if kind == "linear":
            return monopoly.LinearRate(r.number("a0", minimum=0.0), r.number("a1", minimum=0.0))
        if kind == "exp_decay":
            return monopoly.ExpDecayRate(r.number("a0", minimum=0.0), r.number("beta", minimum=0.0))
        if kind == "cutoff":
            return monopoly.CutoffRate(r.number("a", minimum=0.0), r.number("T", minimum=0.0))
        if kind == "tabulated":
            pts = r.matrix("points")
            if pts is None:
                return None
            if any(len(p) != 2 for p in pts):
                r.invariant("points as [time, rate] pairs", repr(pts))
                return None
            return monopoly.TabulatedRate(tuple((p[0], p[1]) for p in pts))
    except ParameterError as exc:
        r.invariant(str(exc), "the values above")
        return None
    r.issues.append(ValidationIssue(
        "unknown_kind", f"{r.path}.kind",
        "one of constant|linear|exp_decay|cutoff|tabulated", repr(kind)))
    return None


def _parse_kernel(r: _Reader) -> feedback.FeedbackKernel | None:
    if not isinstance(r.data, dict):
        r.issues.append(ValidationIssue("bad_type", r.path, "a kernel object", repr(r.data)))
        return None
    kind = r.string("kind")
    if kind not in feedback.KERNEL_KINDS:
        r.issues.append(ValidationIssue(
            "unknown_kind", f"{r.path}.kind",
            "one of " + "|".join(feedback.KERNEL_KINDS), repr(kind)))
        return None
    try:
        return feedback.kernel(kind, **{key: r.number(key, required=False, default=None)
                                        for key in ("ratio", "n", "u1")})
    except ParameterError as exc:
        r.invariant(str(exc), "the values above")
        return None


def _parse_sinusoids(r: _Reader, key: str) -> tuple[competition.Sinusoid, ...]:
    terms = []
    for sub in r.entries(key, "sinusoid"):
        try:
            terms.append(competition.Sinusoid(
                amplitude=sub.number("amplitude", minimum=0.0),
                period=sub.number("period", minimum=0.0),
                phase=sub.number("phase", required=False, default=0.0)))
        except ParameterError as exc:
            sub.invariant(str(exc), "the values above")
    return tuple(terms)


def _churn_matrix(r: _Reader, key: str) -> competition.ChurnMatrix | None:
    """The churn matrix under ``key``; None when the reader rejected it."""
    rows = r.matrix(key)
    return None if rows is None else competition.ChurnMatrix.from_rows(rows)


def _parse_stimulated_spec(r: _Reader) -> competition.StimulatedChurnSpec | None:
    churn = _churn_matrix(r, "a")
    b, eps = r.number_list("b"), r.number_list("eps")
    if churn is None or b is None or eps is None:
        return None
    spec = competition.StimulatedChurnSpec(churn=churn, b=b, eps=tuple(int(v) for v in eps))
    r.doc["eps"] = list(spec.eps)
    return spec


def _parse_churn(r: _Reader):
    if not isinstance(r.data, dict):
        r.issues.append(ValidationIssue("bad_type", r.path, "a churn object", repr(r.data)))
        return None
    kind = r.string("kind")
    try:
        if kind == "spontaneous":
            return _churn_matrix(r, "a")
        if kind == "stimulated":
            return _parse_stimulated_spec(r)
        if kind == "periodic":
            a0 = _churn_matrix(r, "a0")
            mods = [competition.PairModulation(
                i=sub.integer("i", minimum=0), j=sub.integer("j", minimum=0),
                terms=_parse_sinusoids(sub, "terms")) for sub in r.entries("eps", "modulation")]
            return None if a0 is None else competition.PeriodicChurnSpec(a0=a0, eps=tuple(mods))
    except ParameterError as exc:
        r.invariant(str(exc), "the values above")
        return None
    r.issues.append(ValidationIssue(
        "unknown_kind", f"{r.path}.kind",
        "one of spontaneous|stimulated|periodic", repr(kind)))
    return None


# ---------------------------------------------------------------------------
# Shared metric helpers
# ---------------------------------------------------------------------------

def _crossing_time(times: Sequence[float], values: Sequence[float],
                   level: float) -> float | None:
    """First grid crossing of a level, linearly interpolated."""
    for (t0, v0), (t1, v1) in zip(zip(times, values), zip(times[1:], values[1:])):
        if (v0 - level) * (v1 - level) <= 0.0 and v0 != v1:
            if min(v0, v1) <= level <= max(v0, v1):
                return t0 + (level - v0) * (t1 - t0) / (v1 - v0)
    if values and values[0] == level:
        return times[0]
    return None


def _latencies(traj: Trajectory) -> list[tuple[str, float]]:
    """T10 and T50 where the share u first crosses 10% and 50% on the grid."""
    u = traj.channel("u")
    return [(label, t) for label, level in (("T10", 0.1), ("T50", 0.5))
            if (t := _crossing_time(traj.times, u, level)) is not None]


def _shares(values: Sequence[float], suffix: str = "") -> list[tuple[str, float]]:
    """One ``u{i}{suffix}`` row per supplier."""
    return [(f"u{i + 1}{suffix}", v) for i, v in enumerate(values)]


def _spontaneous_equilibrium(churn: competition.ChurnMatrix) -> list[tuple[str, object]]:
    return _shares(competition.spontaneous_equilibrium(churn))


def _stimulated_equilibrium(spec: competition.StimulatedChurnSpec, u0=None,
                            suffix: str = "") -> list[tuple[str, object]]:
    fp = competition.stimulated_fixed_point(spec, u0=u0)
    return [("classification", fp.classification)] + _shares(fp.u, suffix)


# ---------------------------------------------------------------------------
# Model kinds: parse, path, metrics and equilibrium side by side
# ---------------------------------------------------------------------------

def _parse_simple(r):
    return monopoly.SimpleAdoption(
        a=r.number("a"), u0=r.number("u0", required=False, default=0.0),
        N=r.number("N", required=False, default=1.0))


def _simple_metrics(model, traj):
    lat = monopoly.simple_latency(model)
    return [("a", model.a), ("T50", lat.t50), ("T10", lat.t10)]


def _parse_scheduled(r):
    sched = _parse_schedule(r.sub("schedule"))
    if sched is None:
        return None
    return (sched, r.number("u0", required=False, default=0.0),
            r.number("N", required=False, default=1.0))


def _reach(traj: Trajectory) -> list[tuple[str, float]]:
    """The share at the horizon, then T10 and T50."""
    return [("u_end", traj.channel("u")[-1])] + _latencies(traj)


def _scheduled_metrics(model, traj):
    schedule, u0, _ = model
    metrics = _reach(traj)
    if isinstance(schedule, monopoly.ExpDecayRate):
        metrics.append(("u_asymptote", schedule.asymptotic_share(u0)))
    return metrics


def _parse_segmented(r):
    items = r.data.get("segments")
    if not isinstance(items, list) or not items:
        r.issues.append(ValidationIssue(
            "missing_field", f"{r.path}.segments", "a nonempty list", repr(items)))
        return None
    segs = []
    for sub in r.entries("segments", "segment"):
        sched = _parse_schedule(sub.sub("schedule"))
        if sched is None:
            return None
        segs.append(monopoly.Segment(n=sub.number("n", minimum=0.0), schedule=sched))
    if len(segs) < len(items):
        return None
    total = math.fsum(s.n for s in segs)
    if abs(total - 1.0) > 1e-12:
        r.invariant("segment sizes summing to 1", f"{total!r}")
        return None
    return tuple(segs), r.number("N", required=False, default=1.0)


def _parse_hesitation(r):
    variant = r.data.get("variant", "absorbing_hesitation")
    if variant in (1, "1", "absorbing"):
        variant = "absorbing_hesitation"
    if variant in (2, "2", "returning"):
        variant = "returning_hesitation"
    r.doc["variant"] = variant
    return (monopoly.HesitationParams(a=r.number("a"), b=r.number("b"), c=r.number("c"),
                                      variant=variant),
            r.number("N", required=False, default=1.0))


def _hesitation_metrics(model, traj):
    metrics = _latencies(traj)
    if model[0].variant == "returning_hesitation":
        lam1, lam2, rate = model[0].eigenvalues()
        metrics += [("lambda1", lam1), ("lambda2", lam2), ("r", rate)]
    return metrics


def _parse_birth_death(r):
    return (monopoly.BirthDeathParams(a=r.number("a"), d=r.number("d"),
                                      f=r.number("f"), g=r.number("g")),
            r.number("N", required=False, default=1.0))


def _birth_death_metrics(model, traj):
    _, t_peak, u_peak = argmax_channel(traj, "u")
    return [("u_peak", u_peak), ("t_peak", t_peak)]


def _initial_share(r: _Reader) -> float | None:
    """The initial share u0 (default 0); None, with an issue, outside [0, 1)."""
    u0 = r.number("u0", required=False, default=0.0)
    if not 0.0 <= u0 < 1.0:
        r._issue("invariant", "u0", "a share in [0, 1)", repr(u0))
        return None
    return u0


def _parse_feedback(r):
    kern = _parse_kernel(r.sub("kernel"))
    u0 = _initial_share(r)
    if kern is None or u0 is None:
        return None
    if r.has("rate") == r.has("T50"):
        r.invariant("exactly one of rate or T50", "both" if r.has("rate") else "neither")
        return None
    if r.has("T50"):
        rate = r.doc["rate"] = feedback.calibrate_rate(kern, r.number("T50"), u0)
        r.doc.pop("T50", None)
    else:
        rate = r.number("rate")
    if kern.needs_positive_start and u0 == 0.0:
        r.invariant("u0 > 0 for a kernel with no innovators", repr(u0))
        return None
    return feedback.FeedbackModel(kernel=kern, rate=rate, u0=u0,
                                  N=r.number("N", required=False, default=1.0))


def _feedback_metrics(model, traj):
    metrics, catalog = [("rate", model.rate)], []
    # The latency times run from u0 up to half the market, which growth must reach.
    if model.u0 < 0.5 <= model.kernel.limit:
        m = feedback.latency_metrics(model)
        metrics += [("T50", m.t50), ("T10", m.t10), ("T60_minus_T50", m.t60_minus_t50)]
        infl = m.u_infl, m.t_infl, m.gradient_at_infl
        if m.t10_over_t50_catalog is not None:
            catalog = [("T10_over_T50", m.t10 / m.t50),
                       ("T10_over_T50_catalog_variant", m.t10_over_t50_catalog)]
    else:
        p = feedback.inflection(model)
        infl = (p.u, p.t, p.gradient) if p else (None, None, None)
    if infl[0] is not None:
        metrics += zip(("u_inflection", "t_inflection", "gradient_at_inflection"), infl)
    return metrics + catalog


def _feedback_equilibrium(model):
    return [(f"u={format_value(p.u)}", p.kind)
            for p in feedback.classify_equilibria(model.kernel)]


def _parse_innovators(r):
    return r.number_list("m")


def _parse_bass_competition(r):
    churn = None
    if r.has("churn"):
        churn = _parse_churn(r.sub("churn"))
        if churn is None:
            return None
    m, rates, u0 = r.number_list("m"), r.number_list("r"), r.number_list("u0")
    if m is None or rates is None or u0 is None:
        return None
    return competition.BassCompetition(m=m, r=rates, u0=u0), churn


def _bass_competition_metrics(model, traj):
    market, churn = model
    metrics = _shares([traj.channel(f"u{i + 1}")[-1] for i in range(market.n)], "_end")
    if churn is None:
        try:
            metrics += _shares(competition.fixed_point_no_churn(market), "_fixed_point")
        except MarketDynError:
            pass
    return metrics


def _bass_competition_equilibrium(model):
    market, churn = model
    if churn is None:
        return _shares(competition.fixed_point_no_churn(market))
    if isinstance(churn, competition.ChurnMatrix):
        return _spontaneous_equilibrium(churn)
    if isinstance(churn, competition.StimulatedChurnSpec):
        return _stimulated_equilibrium(churn)
    return None


def _parse_spontaneous(r):
    m = r.number_list("m", minimum=0.0)
    churn = _churn_matrix(r, "a")
    return None if m is None or churn is None else (m, churn)


def _spontaneous_metrics(model, traj):
    m, churn = model
    metrics = _shares(competition.spontaneous_equilibrium(churn), "_equilibrium")
    if churn.n == 2 and churn.a[0][1] == 0.0:
        metrics.append(("T_m_supplier2",
                        competition.two_supplier_peak_time(m[0], m[1], churn.a[1][0])))
    return metrics


def _parse_periodic(r):
    a12 = r.number("a12_0", minimum=0.0)
    a21 = r.number("a21_0", minimum=0.0)
    mods = []
    for i, j, key in ((0, 1, "eps12"), (1, 0, "eps21")):
        terms = _parse_sinusoids(r, key)
        if terms:
            mods.append(competition.PairModulation(i, j, terms))
    spec = competition.PeriodicChurnSpec(
        a0=competition.ChurnMatrix.from_rows([[0.0, a12], [a21, 0.0]]), eps=tuple(mods))
    return spec, r.number("u1_0", minimum=0.0)


def _periodic_equilibrium(model):
    mean = competition.periodic_mean_share(model[0])
    return [("u1_mean", mean), ("u2_mean", 1.0 - mean)]


def _parse_stimulated(r):
    spec = _parse_stimulated_spec(r)
    u0 = r.number_list("u0") if r.has("u0") else None
    if spec is None:
        return None
    return spec, (1.0 / spec.n,) * spec.n if u0 is None else u0  # absent: uniform


def _parse_bpq(r):
    case_kind = r.string("case")
    n = r.number("N", required=False, default=1.0)
    entry = games.CASES.get(case_kind)
    if entry is None:
        r.issues.append(ValidationIssue(
            "unknown_kind", f"{r.path}.case", "one of case1..case6", repr(case_kind)))
        return None
    values = {key: _rate(r, key) for key in entry.rates}
    if None in values.values():
        return None
    values.update((key, r.number(key)) for key in entry.fields)
    values.update((key, r.number(key, required=False, default=0.0)) for key in entry.optional)
    return entry.model(N=n, **values)


def _rate(r, key):
    """A schedule object, or a number (absent: 0) as shorthand for a constant rate."""
    if not _is_number(r.data.get(key, 0.0)):
        return _parse_schedule(r.sub(key))
    r.doc[key] = {"kind": "constant", "a": r.number(key, required=False)}
    return monopoly.ConstantRate(r.doc[key]["a"])


def _bpq_metrics(case, traj):
    peak = games.peak_metrics(case, traj)
    return ([("T_m", peak.T_m), ("P_m", peak.P_m), ("C_inf", peak.C_inf)]
            + games.case_entry(case).rows(case))


def _parse_complementary(r):
    return games.ComplementarySpec(
        g=r.number("g"), b=r.number("b"), a_c=r.number("a_c"), b_c=r.number("b_c"),
        tau=r.number("tau", required=False, default=0.0),
        N=r.number("N", required=False, default=1.0),
        N_c=r.number("N_c", required=False, default=None))


def _complementary_metrics(spec, traj):
    _, t_m, p_m = argmax_channel(traj, "P")
    _, t_c, p_c = argmax_channel(traj, "P_c")
    return [("T_m", t_m), ("P_m", p_m), ("T_m_companion", t_c), ("P_m_companion", p_c)]


class _Kind(NamedTuple):
    parse: Callable        # reader -> model, or None with the issues recorded
    path: Callable         # (model, grid) -> trajectory; all that `simulate` runs
    metrics: Callable      # (model, trajectory) -> [(metric, value)] on traj.times
    equilibrium: Callable | None = None   # model -> [(quantity, value)]; None: no analysis
    notes: Callable | None = None         # model -> ledger notes shown with the metrics
    # model -> None, raising where the path would fail; set where the metrics
    # read no path and the path adds no note: `metrics` then runs it in place
    # of the path and passes None for the trajectory.
    path_check: Callable | None = None


# Entries look library functions up through their module at call time, so a
# wrapper set on a module sees each call and the model modules load on first use.
_KINDS = {
    "simple": _Kind(_parse_simple, lambda m, grid: monopoly.simple_path(m, grid),
                    _simple_metrics, path_check=lambda model: None),
    "scheduled": _Kind(_parse_scheduled,
                       lambda m, grid: monopoly.scheduled_path(m[0], m[1], grid, N=m[2]),
                       _scheduled_metrics),
    "segmented": _Kind(_parse_segmented, lambda m, grid: monopoly.segmented_path(*m, grid),
                       lambda m, traj: _reach(traj)),
    "hesitation": _Kind(_parse_hesitation,
                        lambda m, grid: monopoly.hesitation_path(m[0], grid, N=m[1]),
                        _hesitation_metrics),
    "birth_death": _Kind(_parse_birth_death,
                         lambda m, grid: monopoly.birth_death_path(m[0], grid, N=m[1]),
                         _birth_death_metrics),
    "feedback": _Kind(_parse_feedback, lambda m, grid: feedback.feedback_path(m, grid),
                      _feedback_metrics, _feedback_equilibrium,
                      lambda model: feedback.discrepancy_notes(model.kernel),
                      path_check=lambda model: feedback.check_path(model)),
    "innovators_only": _Kind(
        _parse_innovators, lambda m, grid: competition.innovators_only_path(m, grid),
        lambda m, traj: _shares([mi / math.fsum(m) for mi in m], "_asymptote")),
    "bass_competition": _Kind(
        _parse_bass_competition,
        lambda m, grid: competition.competitive_path_numeric(*m, grid),
        _bass_competition_metrics, _bass_competition_equilibrium),
    "spontaneous_churn": _Kind(
        _parse_spontaneous, lambda m, grid: competition.spontaneous_path(*m, grid),
        _spontaneous_metrics, lambda model: _spontaneous_equilibrium(model[1])),
    "periodic_churn": _Kind(
        _parse_periodic, lambda m, grid: competition.periodic_two_supplier_path(*m, grid),
        lambda m, traj: [("mean_share_u1", competition.periodic_mean_share(m[0]))],
        _periodic_equilibrium),
    "stimulated_churn": _Kind(  # a developed market: no innovation, unit imitation
        _parse_stimulated,
        lambda m, grid: competition.competitive_path_numeric(competition.BassCompetition(
            m=(0.0,) * m[0].n, r=(1.0,) * m[0].n, u0=m[1]), m[0], grid),
        lambda m, traj: _stimulated_equilibrium(*m, "_fixed_point"),
        lambda model: _stimulated_equilibrium(*model)),
    "bpq": _Kind(_parse_bpq, lambda m, grid: games.bpq_path(m, grid), _bpq_metrics),
    "complementary": _Kind(_parse_complementary,
                           lambda m, grid: games.complementary_path(m, grid),
                           _complementary_metrics),
}

MODEL_KINDS = tuple(_KINDS)


# ---------------------------------------------------------------------------
# Parse / serialize
# ---------------------------------------------------------------------------

def parse_scenario(data: dict) -> Scenario:
    issues: list[ValidationIssue] = []
    root = _Reader(data, "$", issues)
    if not isinstance(data, dict):
        raise ScenarioValidationError([ValidationIssue(
            "bad_type", "$", "a scenario object", repr(data))])
    horizon = root.number("horizon", default=None, minimum=0.0)
    if horizon is not None and horizon <= 0:
        root.invariant("horizon > 0", repr(horizon))
    samples = root.integer("samples", required=False, default=1000, minimum=2)
    outputs = None
    if root.has("outputs"):
        raw = data["outputs"]
        if not isinstance(raw, list) or not all(isinstance(v, str) for v in raw):
            issues.append(ValidationIssue(
                "bad_type", "$.outputs", "a list of channel names", repr(raw)))
        else:
            outputs = tuple(raw)
    time_unit = root.string("time_unit", required=False, default="year")
    name = root.string("name", required=False, default=None)

    model_reader = root.sub("model")
    model = None
    kind = ""
    if not isinstance(model_reader.data, dict):
        issues.append(ValidationIssue(
            "missing_field" if model_reader.data is None else "bad_type",
            "$.model", "a model object", repr(model_reader.data)))
    else:
        kind = model_reader.string("kind")
        if kind and kind not in _KINDS:
            issues.append(ValidationIssue(
                "unknown_kind", "$.model.kind",
                "one of " + "|".join(MODEL_KINDS), repr(kind)))
        elif kind:
            try:
                model = _KINDS[kind].parse(model_reader)
            except MarketDynError as exc:
                model_reader.invariant(str(exc), "the values above")
    if issues:
        raise ScenarioValidationError(issues)
    assert model is not None
    return Scenario(kind=kind, model=model, horizon=horizon, samples=samples,
                    outputs=outputs, time_unit=time_unit, name=name,
                    model_doc=model_reader.doc)


def scenario_to_dict(s: Scenario) -> dict:
    """The scenario as a document that parses back to an equal scenario."""
    out: dict[str, Any] = {
        "model": copy.deepcopy(s.model_doc),
        "horizon": s.horizon,
        "samples": s.samples,
        "time_unit": s.time_unit,
    }
    if s.outputs is not None:
        out["outputs"] = list(s.outputs)
    if s.name is not None:
        out["name"] = s.name
    return out


def scenario_to_text(s: Scenario) -> str:
    return json.dumps(scenario_to_dict(s), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

def _sample_grid(s: Scenario) -> tuple[float, ...]:
    grid = time_grid(0.0, s.horizon, s.samples)
    if not all(map(operator.lt, grid, grid[1:])):  # the step underflows
        raise ScenarioValidationError([ValidationIssue(
            "invariant", "$.horizon", f"a horizon long enough for {s.samples} distinct "
            "sample times", repr(s.horizon))])
    return grid


def simulate_scenario(s: Scenario) -> Trajectory:
    """The scenario's trajectory on its sample grid; no metric is computed."""
    return _KINDS[s.kind].path(s.model, _sample_grid(s))


def run_scenario(s: Scenario) -> RunReport:
    """Execute a scenario: model-appropriate metrics, built on the trajectory
    where the metrics or the exit status depend on it."""
    kind = _KINDS[s.kind]
    grid = _sample_grid(s)
    if kind.path_check is None:
        traj = kind.path(s.model, grid)
    else:
        kind.path_check(s.model)
        traj = None
    notes = kind.notes(s.model) if kind.notes else ()
    return RunReport(tuple(kind.metrics(s.model, traj)),
                     notes if traj is None else notes + traj.notes)


def equilibrium(s: Scenario) -> list[tuple[str, object]]:
    """Asymptotic market state as (quantity, value) rows."""
    analyse = _KINDS[s.kind].equilibrium
    rows = analyse(s.model) if analyse else None
    if rows is None:
        raise ParameterError(f"no equilibrium analysis for model kind {s.kind!r}")
    return rows

# ---------------------------------------------------------------------------
# CSV / metrics serialization
# ---------------------------------------------------------------------------

def format_value(v: float) -> str:
    """Locale-independent 9-significant-digit rendering."""
    return format(float(v), ".9g")


def render_csv(traj: Trajectory, outputs: Sequence[str] | None = None,
               delimiter: str = ",") -> str:
    """Header row plus one line per sample; LF endings; deterministic bytes."""
    labels = list(outputs) if outputs else list(traj.labels)
    for label in labels:
        if label not in traj.labels:
            raise ParameterError(f"unknown output channel {label!r}; "
                                 f"have {', '.join(traj.labels)}")
    # "%.9g" % x is format_value(x). The time column and the chosen channels'
    # columns are slice-assigned into one flat row-major list that one
    # template renders.
    width = len(labels) + 1
    row = delimiter.replace("%", "%%").join(["%.9g"] * width) + "\n"
    cells = [0.0] * (width * len(traj.times))
    cells[::width] = traj.times
    for col, label in enumerate(labels, 1):
        cells[col::width] = traj.channel(label)
    return delimiter.join(["t"] + labels) + "\n" + row * len(traj.times) % tuple(cells)


def render_table(header: str, rows, delimiter: str = ",") -> str:
    """A ``header,value`` line, then one line per (name, value) row."""
    lines = [header + delimiter + "value"]
    for name, value in rows:
        rendered = value if isinstance(value, str) else format_value(value)
        lines.append(f"{name}{delimiter}{rendered}")
    return "\n".join(lines) + "\n"


def render_metrics(report: RunReport, delimiter: str = ",") -> str:
    notes = "".join(f"note{delimiter}\"{note}\"\n" for note in report.discrepancies)
    return render_table("metric", report.metrics, delimiter) + notes


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

def calibrate(doc: dict) -> list[tuple[str, float]]:
    """Resolve model parameters from strategic targets.

    Supported target sets: T50 for the no-feedback and feedback-kernel
    markets; (T_m, ratio) for the externally driven game; (T_m, P_Tm)
    for the player-stimulated game, which recovers (b, beta).
    """
    issues: list[ValidationIssue] = []
    root = _Reader(doc, "$", issues)
    model_r = root.sub("model")
    targets_r = root.sub("targets")
    if not isinstance(model_r.data, dict):
        issues.append(ValidationIssue("missing_field", "$.model", "a model object",
                                      repr(model_r.data)))
    if not isinstance(targets_r.data, dict):
        issues.append(ValidationIssue("missing_field", "$.targets", "a targets object",
                                      repr(targets_r.data)))
    if issues:
        raise ScenarioValidationError(issues)

    kind = model_r.string("kind")
    case = model_r.string("case") if kind == "bpq" else None
    if kind in ("simple", "feedback"):  # simple adoption is the "none" kernel
        kern = (feedback.kernel("none") if kind == "simple"
                else _parse_kernel(model_r.sub("kernel")))
        u0 = _initial_share(model_r)
        t50 = targets_r.number("T50", minimum=0.0)
        if issues or kern is None:
            raise ScenarioValidationError(issues)
        try:
            rate = feedback.calibrate_rate(kern, t50, u0)
            if kind == "simple":
                monopoly.SimpleAdoption(rate)  # the rate simulate would take
            results = [("a" if kind == "simple" else "rate", rate)]
        except (ParameterError, MarketDynError) as exc:
            raise CalibrationInfeasibleError(str(exc)) from exc
    elif case == "case1":
        t_m = targets_r.number("T_m", minimum=0.0)
        ratio = targets_r.number("ratio", minimum=0.0)
        if issues:
            raise ScenarioValidationError(issues)
        if ratio <= 0 or t_m <= 0:
            raise CalibrationInfeasibleError("T_m and ratio must be positive")
        results = [("a_plus_c", games.calibrate_case1(t_m, ratio))]
    elif case == "case2":
        n = model_r.number("N")
        p0 = model_r.number("P0")
        q0 = model_r.number("Q0", required=False, default=0.0)
        t_m = targets_r.number("T_m", minimum=0.0)
        p_tm = targets_r.number("P_Tm", minimum=0.0)
        if issues:
            raise ScenarioValidationError(issues)
        b, beta = games.calibrate_case2(n, p0, q0, t_m, p_tm)
        results = [("b", b), ("beta", beta)]
    elif kind == "bpq":  # a case that is missing or not a string is reported as such
        raise ScenarioValidationError(issues or [ValidationIssue(
            "unknown_kind", "$.model.case", "one of case1|case2", repr(case))])
    else:
        raise ScenarioValidationError([ValidationIssue(
            "unknown_kind", "$.model.kind",
            "one of simple|feedback|bpq(case1|case2)", repr(kind))])
    for name, value in results:
        if not math.isfinite(value):
            raise CalibrationInfeasibleError(f"calibrated {name} = {value!r} is not finite")
    return results
