"""Seeded workload generator for the marketdyn benchmark.

A workload is a pool of operations. One operation is one call of the
marketdyn command line (``simulate``, ``metrics``, ``equilibrium``,
``calibrate`` or ``tables``) on one generated JSON document, writing to
its own output file. The generated documents are the program's only
input, and the same workload name and seed always give the same bytes.

The properties the costs depend on are varied inside each family: the
sample count (rendering, per-sample matrix exponentials and per-sample
inversions scale with it, while RK4's fixed 10,000 steps do not), the
horizon (the norm of Q t sets the number of squarings), the supplier
count and the rate magnitudes. Sizes come from a fixed ladder per
family, dealt in a seeded order, and rates are drawn from each kind's
documented domain. Every seed therefore gives a pool of the same shape
with different values, so runs with different seeds stay comparable.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("closed_form_catalog", "ode_fallback_mix", "inversion_mix")

#: Exit codes of the command line (see ``marketdyn.cli``).
EXIT_OK = 0
EXIT_VALIDATION = 2


@dataclass(frozen=True)
class Op:
    """One command-line call on one generated document."""

    name: str
    family: str
    command: str
    doc: object = None
    text: str | None = None
    which: str | None = None
    expected_exit: int = EXIT_OK
    known_defect: str | None = None

    def document_text(self) -> str | None:
        if self.text is not None:
            return self.text
        if self.doc is None:
            return None
        return json.dumps(self.doc, sort_keys=True) + "\n"

    def argv(self, inputs: Path, out: Path) -> list[str]:
        if self.command == "tables":
            return ["tables", self.which, "--out", str(out)]
        return [self.command, str(inputs / f"{self.name}.json"), "--out", str(out)]


@dataclass
class Workload:
    name: str
    seed: int
    ops: list[Op] = field(default_factory=list)
    #: Scenario documents of the ``metrics --jobs`` batch call.
    batch: list[dict] = field(default_factory=list)
    #: Closed-form scenario of the cold-start subprocess.
    cold: dict = field(default_factory=dict)

    def write(self, directory: Path) -> None:
        """Write every input document under ``directory``."""
        inputs = directory / "in"
        inputs.mkdir(parents=True, exist_ok=True)
        (directory / "out").mkdir(exist_ok=True)
        for op in self.ops:
            text = op.document_text()
            if text is not None:
                (inputs / f"{op.name}.json").write_text(text, encoding="utf-8")
        (directory / "batch.json").write_text(
            json.dumps(self.batch, sort_keys=True) + "\n", encoding="utf-8")
        (directory / "cold.json").write_text(
            json.dumps(self.cold, sort_keys=True) + "\n", encoding="utf-8")


class _Draw:
    """Seeded draws rounded to six significant digits, so documents stay short."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def real(self, lo: float, hi: float) -> float:
        return float(f"{self.rng.uniform(lo, hi):.6g}")

    def log(self, lo: float, hi: float) -> float:
        return float(f"{math.exp(self.rng.uniform(math.log(lo), math.log(hi))):.6g}")

    def pick(self, values):
        return self.rng.choice(values)

    def deal(self, ladder, count: int) -> list:
        """``count`` entries spread evenly over the ladder, in seeded order.

        Sample counts get a +-10% jitter, so that costs form a continuum
        rather than clusters that a percentile could jump between.
        """
        out = [ladder[int((i + 0.5) * len(ladder) / count)] for i in range(count)]
        out = [self.jitter(size) for size in out]
        self.rng.shuffle(out)
        return out

    def jitter(self, size):
        if isinstance(size, tuple):
            return (size[0], self.jitter(size[1]))
        return max(2, round(size * self.rng.uniform(0.9, 1.1)))

    def matrix(self, n: int, lo: float, hi: float) -> list[list[float]]:
        return [[0.0 if i == j else self.real(lo, hi) for j in range(n)] for i in range(n)]


def _scenario(model: dict, horizon: float, samples: int) -> dict:
    return {"model": model, "horizon": horizon, "samples": samples}


class _Builder:
    def __init__(self, workload: str, seed: int):
        self.w = Workload(workload, seed)
        self.d = _Draw(random.Random(f"{workload}:{seed}"))
        #: Copies of each family, so that workloads of cheap ops hold a hundred
        #: or more distinct documents.
        self.copies = 1

    def add(self, family: str, command: str, doc=None, *, expected_exit: int = EXIT_OK,
            text: str | None = None, which: str | None = None,
            known_defect: str | None = None) -> None:
        name = f"{len(self.w.ops):03d}-{command}-{family.replace('/', '-')}"
        self.w.ops.append(Op(name, family, command, doc, text, which,
                             expected_exit, known_defect))

    def many(self, count: int, family: str, command: str, make, sizes) -> None:
        for size in self.d.deal(sizes, count * self.copies):
            self.add(family, command, make(size))


# ---------------------------------------------------------------------------
# Document makers; each takes the dealt size (a sample count or a
# (supplier count, sample count) pair) and draws everything else.
# ---------------------------------------------------------------------------

def _simple(d: _Draw, samples: int) -> dict:
    a = d.log(0.05, 1.0)
    return _scenario({"kind": "simple", "a": a, "u0": d.real(0.0, 0.3),
                      "N": d.pick([1.0, 1e3, 1e6])},
                     float(f"{d.real(2.0, 8.0) / a:.6g}"), samples)


def _schedule(d: _Draw, kind: str) -> dict:
    if kind == "constant":
        return {"kind": "constant", "a": d.log(0.05, 1.0)}
    if kind == "linear":
        return {"kind": "linear", "a0": d.log(0.01, 0.5), "a1": d.log(0.005, 0.1)}
    if kind == "exp_decay":
        return {"kind": "exp_decay", "a0": d.log(0.1, 1.0), "beta": d.log(0.02, 0.5)}
    if kind == "cutoff":
        return {"kind": "cutoff", "a": d.log(0.05, 1.0), "T": d.real(2.0, 15.0)}
    if kind == "tabulated":
        t, points = 0.0, []
        for _ in range(5):
            points.append([float(f"{t:.6g}"), d.real(0.0, 0.8)])
            t += d.real(1.0, 6.0)
        return {"kind": "tabulated", "points": points}
    raise ValueError(kind)


def _scheduled(kind: str):
    def make(d: _Draw, samples: int) -> dict:
        return _scenario({"kind": "scheduled", "schedule": _schedule(d, kind),
                          "u0": d.real(0.0, 0.2), "N": d.pick([1.0, 1e4])},
                         d.real(10.0, 30.0), samples)
    return make


def _segmented(d: _Draw, samples: int) -> dict:
    # Binary fractions, so the sizes sum to exactly 1.
    sizes = d.pick([[0.25, 0.75], [0.5, 0.5], [0.5, 0.25, 0.25], [0.125, 0.375, 0.5]])
    segments = [{"n": n, "schedule": _schedule(
        d, d.pick(["constant", "linear", "exp_decay", "cutoff"]))} for n in sizes]
    return _scenario({"kind": "segmented", "segments": segments,
                      "N": d.pick([1.0, 1e3])}, d.real(10.0, 30.0), samples)


def _hesitation(variant: str):
    def make(d: _Draw, samples: int) -> dict:
        return _scenario({"kind": "hesitation", "variant": variant,
                          "a": d.log(0.05, 1.0), "b": d.log(0.05, 1.0),
                          "c": d.log(0.05, 1.0), "N": d.pick([1.0, 1e3])},
                         d.real(10.0, 40.0), samples)
    return make


def _birth_death(d: _Draw, samples: int) -> dict:
    # a >= 0.5 > d + g keeps the documented a + f > d + g.
    return _scenario({"kind": "birth_death", "a": d.real(0.5, 1.0), "d": d.real(0.0, 0.2),
                      "f": d.real(0.0, 0.2), "g": d.real(0.0, 0.2),
                      "N": d.pick([1.0, 1e3])}, d.real(5.0, 30.0), samples)


def _kernel(d: _Draw, kind: str) -> dict:
    if kind == "bass":
        return {"kind": "bass", "ratio": d.log(0.5, 20.0)}
    if kind == "power0.5":
        return {"kind": "power", "n": 0.5}
    if kind == "power_fractional":
        return {"kind": "power", "n": d.real(0.3, 0.8)}
    if kind == "inverse_u_cutoff":
        return {"kind": "inverse_u_cutoff", "u1": d.real(0.7, 0.95)}
    return {"kind": kind}


def _feedback_u0(d: _Draw, kind: str) -> float:
    # A positive start everywhere keeps the reference ODE away from the
    # u = 0 singularity of the 1/u kernels.
    if kind in ("none", "bass", "sqrt", "one_minus_u"):
        return d.real(0.0, 0.05)
    if kind.startswith("power"):
        # A narrow start keeps the costly inversions alike from seed to seed.
        return d.real(0.01, 0.02)
    return d.real(0.005, 0.05)


def _feedback(kind: str, horizon_t50=(1.5, 2.5)):
    # The horizon is a multiple of T50, so every seed reaches the same
    # stage of the S-curve (inversion costs grow toward saturation).
    def make(d: _Draw, samples: int) -> dict:
        t50 = d.real(2.0, 10.0)
        return _scenario({"kind": "feedback", "kernel": _kernel(d, kind), "T50": t50,
                          "u0": _feedback_u0(d, kind), "N": d.pick([1.0, 1e6])},
                         float(f"{t50 * d.real(*horizon_t50):.6g}"), samples)
    return make


def _power(n: float, samples: int) -> dict:
    return _scenario({"kind": "feedback", "kernel": {"kind": "power", "n": n}, "T50": 5.0,
                      "u0": 0.01, "N": 1.0}, 7.5, samples)


def _innovators(d: _Draw, size) -> dict:
    n, samples = size
    return _scenario({"kind": "innovators_only", "m": [d.log(0.05, 0.5) for _ in range(n)]},
                     d.real(5.0, 30.0), samples)


def _case1(d: _Draw, samples: int) -> dict:
    return _scenario({"kind": "bpq", "case": "case1", "a": d.log(0.2, 2.0),
                      "b": d.log(0.1, 1.0), "c": d.real(0.0, 0.3),
                      "N": d.pick([1e3, 1e5])}, d.real(10.0, 30.0), samples)


def _spontaneous(d: _Draw, size) -> dict:
    n, samples = size
    return _scenario({"kind": "spontaneous_churn", "m": [d.log(0.05, 0.5) for _ in range(n)],
                      "a": d.matrix(n, 0.05, 0.6)}, d.real(10.0, 40.0), samples)


def _no_churn_market(d: _Draw, size) -> dict:
    n, samples = size
    return _scenario({"kind": "bass_competition", "m": [d.log(0.01, 0.2) for _ in range(n)],
                      "r": [d.log(0.1, 1.0) for _ in range(n)], "u0": [0.0] * n},
                     d.real(10.0, 40.0), samples)


def _churn(d: _Draw, kind: str, n: int) -> dict:
    if kind == "spontaneous":
        return {"kind": "spontaneous", "a": d.matrix(n, 0.02, 0.3)}
    if kind == "stimulated":
        return {"kind": "stimulated", "a": d.matrix(n, 0.02, 0.3),
                "b": [d.real(0.0, 2.0) for _ in range(n)], "eps": [1] * n}
    if kind == "periodic":
        a0 = d.matrix(n, 0.05, 0.4)
        i, j = d.pick([(0, 1), (1, 0)])
        term = {"amplitude": float(f"{0.9 * a0[i][j]:.6g}"), "period": d.real(1.0, 5.0),
                "phase": d.real(0.0, 6.283)}
        return {"kind": "periodic", "a0": a0, "eps": [{"i": i, "j": j, "terms": [term]}]}
    raise ValueError(kind)


def _churn_market(kind: str):
    def make(d: _Draw, size) -> dict:
        n, samples = size
        return _scenario({"kind": "bass_competition", "m": [d.log(0.02, 0.3) for _ in range(n)],
                          "r": [d.log(0.1, 1.0) for _ in range(n)], "u0": [0.0] * n,
                          "churn": _churn(d, kind, n)}, d.real(10.0, 40.0), samples)
    return make


def _periodic(d: _Draw, samples: int) -> dict:
    a12, a21 = d.real(0.1, 0.6), d.real(0.1, 0.6)
    return _scenario({"kind": "periodic_churn", "a12_0": a12, "a21_0": a21,
                      "eps12": [{"amplitude": float(f"{0.8 * a12:.6g}"),
                                 "period": d.real(1.0, 4.0), "phase": d.real(0.0, 6.283)}],
                      "eps21": [{"amplitude": float(f"{0.5 * a21:.6g}"),
                                 "period": d.real(2.0, 8.0)}],
                      "u1_0": d.real(0.0, 1.0)}, d.real(5.0, 20.0), samples)


def _stimulated(purely: bool):
    def make(d: _Draw, size) -> dict:
        n, samples = size
        weights = [d.real(0.5, 1.5) for _ in range(n)]
        total = math.fsum(weights)
        u0 = [float(f"{w / total:.6g}") for w in weights[:-1]]
        u0.append(1.0 - math.fsum(u0))
        eps = [0] * n if purely else [1] * n
        return _scenario({"kind": "stimulated_churn", "a": d.matrix(n, 0.05, 0.5),
                          "b": [d.real(0.2, 2.0) for _ in range(n)], "eps": eps,
                          "u0": u0}, d.real(10.0, 40.0), samples)
    return make


def _case3(d: _Draw, samples: int) -> dict:
    n = 1000.0
    return _scenario({"kind": "bpq", "case": "case3", "a": d.log(0.02, 0.3),
                      "beta": float(f"{d.real(0.5, 3.0) / n:.6g}"), "b": d.real(0.2, 1.0),
                      "N": n}, d.real(15.0, 40.0), samples)


def _case6(d: _Draw, samples: int) -> dict:
    n = 1000.0
    return _scenario({"kind": "bpq", "case": "case6", "a": d.log(0.1, 1.0),
                      "b": d.real(0.1, 0.5), "gamma": float(f"{d.real(0.2, 1.0) / n:.6g}"),
                      "N": n}, d.real(15.0, 40.0), samples)


def _case2(d: _Draw, samples: int) -> dict:
    # The horizon scales with the quit time 1/b, so every seed's ladder
    # t(Q) covers the same part of the epidemic curve.
    n, b = 1000.0, d.real(0.2, 0.8)
    return _scenario({"kind": "bpq", "case": "case2", "b": b,
                      "beta": float(f"{d.real(1.5, 5.0) * b / n:.6g}"), "N": n,
                      "P0": d.real(1.0, 20.0)}, float(f"{d.real(8.0, 15.0) / b:.6g}"), samples)


def _case5(d: _Draw, samples: int) -> dict:
    n = 1000.0
    return _scenario({"kind": "bpq", "case": "case5", "a": d.log(0.1, 1.0),
                      "gamma": float(f"{d.real(0.5, 3.0) / n:.6g}"), "N": n,
                      "Q0": d.real(1.0, 20.0)}, d.real(10.0, 30.0), samples)


def _complementary(d: _Draw, samples: int) -> dict:
    return _scenario({"kind": "complementary", "g": float(f"{d.real(0.3, 1.0) / 1e3:.6g}"),
                      "b": d.real(0.2, 1.0), "a_c": d.real(0.2, 1.0), "b_c": d.real(0.3, 1.5),
                      "tau": d.real(0.0, 2.0), "N": 1000.0}, d.real(10.0, 30.0), samples)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _malformed(b: _Builder, defect_doc: dict) -> None:
    """Documents the CLI must reject with exit 2.

    The non-finite one hits a known defect: ``json`` accepts Infinity and
    the parser does not check finiteness, so ``cli.main`` raises a
    ValueError instead of returning 2. It stays in the pool so the defect
    shows in ``op_fail_ratio`` until it is fixed.
    """
    sim = _simple(b.d, 100)
    b.add("malformed/unknown_kind", "simulate",
          {**sim, "model": {"kind": "no_such_model", "a": 0.1}}, expected_exit=EXIT_VALIDATION)
    b.add("malformed/bad_type", "metrics",
          {**sim, "model": {**sim["model"], "a": "fast"}}, expected_exit=EXIT_VALIDATION)
    b.add("malformed/non_finite", "simulate",
          text=json.dumps(defect_doc, sort_keys=True, allow_nan=True) + "\n",
          expected_exit=EXIT_VALIDATION, known_defect="non-finite JSON number")


def _closed_form_catalog(b: _Builder) -> None:
    d = b.d
    b.copies = 2
    render = [100, 150, 250, 400, 600, 1000, 1500, 2000]
    b.many(4, "simple", "simulate", lambda s: _simple(d, s), render)
    b.many(2, "simple", "metrics", lambda s: _simple(d, s), render)
    for kind in ("constant", "linear", "exp_decay", "cutoff"):
        b.many(2, f"scheduled/{kind}", "simulate", lambda s, k=kind: _scheduled(k)(d, s), render)
    b.many(3, "segmented", "simulate", lambda s: _segmented(d, s), render)
    for variant in ("absorbing_hesitation", "returning_hesitation"):
        b.many(2, f"hesitation/{variant}", "simulate",
               lambda s, v=variant: _hesitation(v)(d, s), render)
    b.many(3, "birth_death", "simulate", lambda s: _birth_death(d, s), render)
    for kind in ("none", "bass", "linear", "sqrt", "one_minus_u"):
        b.many(2, f"feedback/{kind}", "simulate", lambda s, k=kind: _feedback(k)(d, s), render)
        b.many(1, f"feedback/{kind}", "metrics",
               lambda s, k=kind: _feedback(k)(d, s), render)
    b.many(3, "innovators_only", "simulate", lambda s: _innovators(d, s),
           [(2, 300), (3, 1000), (5, 2000)])
    b.many(3, "bpq/case1", "simulate", lambda s: _case1(d, s), render)
    b.many(2, "bpq/case1", "metrics", lambda s: _case1(d, s), render)
    b.many(2, "spontaneous_churn", "equilibrium", lambda s: _spontaneous(d, s),
           [(2, 100), (4, 100)])
    b.many(2, "bass_competition/no_churn", "equilibrium", lambda s: _no_churn_market(d, s),
           [(2, 100), (3, 100)])
    b.many(1, "bass_competition/spontaneous", "equilibrium",
           lambda s: _churn_market("spontaneous")(d, s), [(3, 100)])
    b.many(1, "periodic_churn", "equilibrium", lambda s: _periodic(d, s), [100])
    b.add("tables/latency_u0", "tables", which="latency_u0")
    b.add("tables/latency_kernels", "tables", which="latency_kernels")
    for _ in range(2 * b.copies):
        b.add("calibrate/simple", "calibrate",
              {"model": {"kind": "simple", "u0": d.real(0.0, 0.3)},
               "targets": {"T50": d.real(1.0, 10.0)}})
        b.add("calibrate/case1", "calibrate",
              {"model": {"kind": "bpq", "case": "case1"},
               "targets": {"T_m": d.real(0.5, 5.0), "ratio": d.real(1.2, 5.0)}})
    defect = _simple(d, 100)
    defect["horizon"] = math.inf
    _malformed(b, defect)
    b.w.batch = _scenarios(b.w.ops, ("simulate", "metrics"))


def _ode_fallback_mix(b: _Builder) -> None:
    d = b.d
    for kind in ("spontaneous", "stimulated", "periodic"):
        b.many(2, f"bass_competition/{kind}", "simulate",
               lambda s, k=kind: _churn_market(k)(d, s), [(2, 400), (3, 200)])
    b.many(10, "spontaneous_churn", "simulate", lambda s: _spontaneous(d, s),
           [(2, 100), (2, 200), (2, 300), (3, 80), (3, 150), (3, 250), (4, 60), (4, 120),
            (5, 50), (5, 100)])
    b.many(2, "stimulated_churn", "simulate", lambda s: _stimulated(False)(d, s),
           [(2, 1000), (3, 300)])
    b.many(1, "stimulated_churn", "metrics", lambda s: _stimulated(False)(d, s), [(2, 300)])
    b.many(2, "stimulated_churn/winner_take_all", "equilibrium",
           lambda s: _stimulated(True)(d, s), [(2, 100), (3, 100)])
    b.many(2, "periodic_churn", "simulate", lambda s: _periodic(d, s), [300, 1000])
    for case, make in (("case3", _case3), ("case6", _case6)):
        b.many(2, f"bpq/{case}", "metrics", lambda s, m=make: m(d, s), [200, 1000])
        b.many(1, f"bpq/{case}", "simulate", lambda s, m=make: m(d, s), [500])
    defect = _spontaneous(d, (2, 100))
    defect["model"]["m"][1] = math.inf
    _malformed(b, defect)
    # Two RK4 markets: a batch call of about a second.
    b.w.batch = _scenarios(b.w.ops, ("simulate",), ("bass_competition/spontaneous",))


def _inversion_mix(b: _Builder) -> None:
    d = b.d
    b.copies = 3
    inversion = [80, 120, 180, 250, 350, 450]
    for kind in ("quadratic", "inverse_u", "inverse_u_cutoff", "trend_linear_zero"):
        b.many(2, f"feedback/{kind}", "simulate", lambda s, k=kind: _feedback(k)(d, s),
               inversion)
        b.many(1, f"feedback/{kind}", "metrics",
               lambda s, k=kind: _feedback(k)(d, s), inversion)
    # About 40 ms per sample: the power kernel inverts t(u) by root finding
    # over an adaptive quadrature, so its sample counts stay small. Its cost
    # per sample swings by a factor of three with u0 and T50, so the integer
    # exponents, the top sixth of the pool, use fixed documents on a ladder
    # of sample counts: op_ms_p90 falls in the middle of that ladder, where
    # a drawn tail would move it from seed to seed.
    for n in (2.0, 3.0):
        for command in ("simulate", "metrics"):
            for samples in range(6, 11):
                b.add(f"feedback/power{n:g}", command, _power(n, samples))
    b.many(2, "feedback/power0.5", "simulate",
           lambda s: _feedback("power0.5", horizon_t50=(1.45, 1.55))(d, s), [6, 8, 10])
    b.many(1, "feedback/power0.5", "metrics", lambda s: _feedback("power0.5")(d, s), [6])
    for case, make in (("case2", _case2), ("case5", _case5)):
        b.many(2, f"bpq/{case}", "simulate", lambda s, m=make: m(d, s), [100, 400])
        b.many(1, f"bpq/{case}", "metrics", lambda s, m=make: m(d, s), [200])
    b.many(2, "complementary", "simulate", lambda s: _complementary(d, s), [100, 400])
    b.many(1, "complementary", "metrics", lambda s: _complementary(d, s), [200])
    b.many(2, "scheduled/tabulated", "simulate", lambda s: _scheduled("tabulated")(d, s),
           [100, 400])
    for _ in range(2 * b.copies):
        n = 1000.0
        b.add("calibrate/case2", "calibrate",
              {"model": {"kind": "bpq", "case": "case2", "N": n, "P0": d.real(1.0, 10.0)},
               "targets": {"T_m": d.real(5.0, 20.0), "P_Tm": d.real(0.1 * n, 0.5 * n)}})
        b.add("calibrate/power", "calibrate",
              {"model": {"kind": "feedback", "kernel": _kernel(d, "power_fractional"),
                         "u0": d.real(0.005, 0.05)},
               "targets": {"T50": d.real(2.0, 10.0)}})
    # Known defect: the u^n kernel with non-integer n > 1 loses accuracy
    # near saturation and the CLI exits 3 on this valid document.
    b.add("feedback/power_near_saturation", "simulate",
          _scenario({"kind": "feedback", "kernel": {"kind": "power", "n": 1.5},
                     "T50": 5.0, "u0": 0.01}, d.real(15.0, 25.0), 6),
          known_defect="power kernel, non-integer n > 1, near saturation")
    defect = _feedback("quadratic")(d, 100)
    defect["horizon"] = math.inf
    _malformed(b, defect)
    # No power-kernel scenario: at about 45 ms per sample it would make up
    # most of the batch's time.
    b.w.batch = _scenarios(b.w.ops, ("simulate",),
                           ("feedback/quadratic", "bpq/case2", "complementary",
                            "scheduled/tabulated"))


def _scenarios(ops: list[Op], commands, families=None) -> list[dict]:
    """Documents of every op of these commands (and families) expected to succeed.

    Whole families, not a first op each, so that the batch holds the same
    mix of sizes for every seed.
    """
    return [op.doc for op in ops
            if op.command in commands and (families is None or op.family in families)
            and op.expected_exit == EXIT_OK and op.known_defect is None]


_MAKERS = {
    "closed_form_catalog": _closed_form_catalog,
    "ode_fallback_mix": _ode_fallback_mix,
    "inversion_mix": _inversion_mix,
}


def generate(workload: str, seed: int) -> Workload:
    """The pool of operations of a workload for a seed."""
    if workload not in _MAKERS:
        raise ValueError(f"unknown workload {workload!r}; choose one of {', '.join(WORKLOADS)}")
    b = _Builder(workload, seed)
    _MAKERS[workload](b)
    b.w.cold = _simple(b.d, 1000)
    return b.w
