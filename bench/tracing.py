"""Outside-in tracing of marketdyn's layers.

The program is not modified: the tracer replaces the layers' public
functions with wrappers, in every marketdyn module namespace that holds
them (so names imported with ``from ... import`` are covered too), and
puts the originals back afterwards. Each wrapper records a span (name,
start, end, parent, op id). Self time is a span's duration minus the
time its child spans cover. The numerics wrappers also count the calls
of the function argument they are given: right-hand sides of
``sample_ivp``, integrands of ``quadrature`` and the function whose root
``solve_root`` looks for.

``trajectory.from_channels`` is deliberately not wrapped: it is part of
assembling every family's result, so its cost stays in the family self
times. Spans inside the program are a later change.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

#: Layer name -> (module, public functions) wrapped from outside.
LAYERS = {
    "cli": ("cli", ("main",)),
    "scenario.parse": ("scenario", ("parse_scenario",)),
    "scenario.run": ("scenario", ("run_scenario", "calibrate")),
    "scenario.render": ("scenario", ("render_csv", "render_metrics")),
    "monopoly": ("monopoly", ("simple_path", "simple_latency", "scheduled_path",
                              "segmented_path", "hesitation_path", "birth_death_path")),
    "feedback": ("feedback", ("feedback_path", "cutoff_path", "latency_metrics",
                              "calibrate_rate", "classify_equilibria")),
    "competition": ("competition", ("innovators_only_path", "spontaneous_path",
                                    "two_supplier_spontaneous_path",
                                    "periodic_two_supplier_path", "competitive_path_numeric",
                                    "spontaneous_equilibrium", "fixed_point_no_churn",
                                    "stimulated_fixed_point", "two_supplier_peak_time")),
    "games": ("games", ("bpq_path", "peak_metrics", "refined_peak", "sir_relations",
                        "complementary_path", "case1_peak", "calibrate_case1", "case4_peak")),
    "tables": ("tables", ("render_latency_u0", "render_latency_kernels")),
    "numerics.sample_ivp": ("numerics", ("sample_ivp",)),
    "numerics.mat_exp_apply": ("numerics", ("mat_exp_apply",)),
    "numerics.quadrature": ("numerics", ("quadrature",)),
    "numerics.solve_root": ("numerics", ("solve_root",)),
}

#: Span name -> (counter of its function argument, position of that argument).
ARGUMENT_COUNTERS = {
    "numerics.sample_ivp": ("rhs_evals", 0),
    "numerics.quadrature": ("integrand_evals", 0),
    "numerics.solve_root": ("g_evals", 0),
}

NOT_WRAPPED = ("trajectory.from_channels is imported by name into the model modules "
               "and is not wrapped; its cost lands in the family self times")


class Tracer:
    """Span recorder plus the wrappers that feed it.

    Not thread-safe: it traces one operation at a time on one thread.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.keep_spans = True
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []
        self._next_id = 0
        self.op_id = 0
        self._patches = self._build_patches()

    def _build_patches(self) -> list[tuple]:
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "marketdyn"
                                           or name.startswith("marketdyn."))}
        patches = []
        for layer, (module_name, functions) in LAYERS.items():
            module = modules[f"marketdyn.{module_name}"]
            for fname in functions:
                original = getattr(module, fname)
                wrapper = self._wrap(layer, original)
                for mod in modules.values():
                    for attr, value in vars(mod).items():
                        if value is original:
                            patches.append((mod, attr, original, wrapper))
        numerics = modules["marketdyn.numerics"]
        matmul = numerics.SquareMatrix.matmul
        counts = self.counts

        def counted_matmul(a, b):
            counts["numerics.matmul.calls"] += 1
            return matmul(a, b)

        patches.append((numerics.SquareMatrix, "matmul", matmul, counted_matmul))
        return patches

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn):
        counts = self.counts
        counter = ARGUMENT_COUNTERS.get(name)
        rendering = name == "scenario.render"
        calls_key = f"{name}.calls"

        def wrapper(*args, **kwargs):
            counts[calls_key] += 1
            if counter is not None:
                key, pos = counter
                inner = args[pos]

                def counted(*a):
                    counts[key] += 1
                    return inner(*a)

                args = args[:pos] + (counted,) + args[pos + 1:]
                if name == "numerics.sample_ivp":
                    grid = args[2] if len(args) > 2 else kwargs["grid"]
                    counts["samples"] += len(grid) - 1
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if rendering:
                counts["render.bytes"] += len(result.encode("utf-8"))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _open(self, name: str) -> list:
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        span = [self._next_id, parent, name, time.perf_counter_ns(), 0]
        self._stack.append(span)
        return span

    def _close(self, span: list) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        duration = end - span[3]
        self.self_ns[span[2]] += duration - span[4]
        if self._stack:
            self._stack[-1][4] += duration
        if self.keep_spans:
            self.spans.append((self.op_id, span[0], span[1], span[2], span[3], end))

    def snapshot(self) -> tuple[Counter, Counter]:
        """Copies of the self times and counts accumulated so far."""
        return Counter(self.self_ns), Counter(self.counts)


def layer_metrics(self_ns: Counter, counts: Counter) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one pass: name -> (value, unit)."""

    def ms(name: str) -> float:
        return self_ns.get(name, 0) / 1e6

    def calls(name: str) -> int:
        return counts.get(f"{name}.calls", 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, tuple[float, str]] = {
        "cli.self_ms": (ms("cli"), "ms"),
        "scenario.parse.self_ms": (ms("scenario.parse"), "ms"),
        "scenario.run.self_ms": (ms("scenario.run"), "ms"),
        "scenario.render.self_ms": (ms("scenario.render"), "ms"),
        "scenario.render.bytes": (counts.get("render.bytes", 0), "bytes"),
    }
    for family in ("monopoly", "feedback", "competition", "games", "tables"):
        out[f"{family}.self_ms"] = (ms(family), "ms")
        out[f"{family}.calls"] = (calls(family), "count")
    ivp = "numerics.sample_ivp"
    out[f"{ivp}.calls"] = (calls(ivp), "count")
    out[f"{ivp}.self_ms"] = (ms(ivp), "ms")
    out[f"{ivp}.rhs_evals"] = (counts.get("rhs_evals", 0), "count")
    out[f"{ivp}.rhs_evals_per_sample"] = (
        ratio(counts.get("rhs_evals", 0), counts.get("samples", 0)), "count")
    mexp = "numerics.mat_exp_apply"
    out[f"{mexp}.calls"] = (calls(mexp), "count")
    out[f"{mexp}.self_ms"] = (ms(mexp), "ms")
    out["numerics.matmul.calls"] = (counts.get("numerics.matmul.calls", 0), "count")
    quad = "numerics.quadrature"
    out[f"{quad}.calls"] = (calls(quad), "count")
    out[f"{quad}.self_ms"] = (ms(quad), "ms")
    out[f"{quad}.integrand_evals"] = (counts.get("integrand_evals", 0), "count")
    out[f"{quad}.evals_per_call"] = (ratio(counts.get("integrand_evals", 0), calls(quad)),
                                     "count")
    root = "numerics.solve_root"
    out[f"{root}.calls"] = (calls(root), "count")
    out[f"{root}.self_ms"] = (ms(root), "ms")
    out[f"{root}.g_evals"] = (counts.get("g_evals", 0), "count")
    out[f"{root}.evals_per_root"] = (ratio(counts.get("g_evals", 0), calls(root)), "count")
    return out


def self_time_shares(self_ns: Counter) -> dict[str, float]:
    """Share of all traced self time per span name, largest first."""
    total = sum(self_ns.values()) or 1
    return {name: ns / total for name, ns in self_ns.most_common()}
