"""Scenario documents, CSV emission, CLI subcommands and exit codes."""

import json
import math
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import reference
from marketdyn import cli, competition, feedback, games, monopoly, numerics, scenario, tables
from marketdyn.errors import (
    CalibrationInfeasibleError,
    DomainError,
    ScenarioValidationError,
)
from marketdyn.trajectory import Trajectory, time_grid

SIMPLE_DOC = {"model": {"kind": "simple", "a": 0.1386, "N": 1000.0},
              "horizon": 25.0, "samples": 5}


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "marketdyn", *args],
                          capture_output=True)


# ---------------------------------------------------------------------------
# parsing and validation
# ---------------------------------------------------------------------------

def test_minimal_document_parses():
    s = scenario.parse_scenario(SIMPLE_DOC)
    assert s.kind == "simple"
    assert s.model.a == 0.1386
    assert s.samples == 5
    # T50 derivable from the parsed model.
    assert math.log(2.0) / s.model.a == pytest.approx(5.0, abs=2e-3)


def test_negative_rate_names_the_field():
    with pytest.raises(ScenarioValidationError) as exc:
        scenario.parse_scenario({"model": {"kind": "simple", "a": -1.0},
                                 "horizon": 5.0})
    issues = exc.value.issues
    assert any(i.code == "invariant" and i.path.startswith("$.model") for i in issues)


def test_unknown_kind_code():
    with pytest.raises(ScenarioValidationError) as exc:
        scenario.parse_scenario({"model": {"kind": "mystery"}, "horizon": 5.0})
    assert any(i.code == "unknown_kind" and i.path == "$.model.kind"
               for i in exc.value.issues)


def test_missing_field_code():
    with pytest.raises(ScenarioValidationError) as exc:
        scenario.parse_scenario({"model": {"kind": "simple"}, "horizon": 5.0})
    assert any(i.code == "missing_field" and i.path == "$.model.a"
               for i in exc.value.issues)


def test_bad_type_code():
    with pytest.raises(ScenarioValidationError) as exc:
        scenario.parse_scenario({"model": {"kind": "simple", "a": "fast"},
                                 "horizon": 5.0})
    assert any(i.code == "bad_type" for i in exc.value.issues)


def test_feedback_document_resolves_rate_from_t50():
    doc = {"model": {"kind": "feedback", "kernel": {"kind": "bass", "ratio": 3.0},
                     "T50": 5.0}, "horizon": 25.0}
    s = scenario.parse_scenario(doc)
    # a + gamma = ln(2 + ratio) / T50 with gamma = ratio * a.
    assert s.model.rate * (1 + 3.0) == pytest.approx(math.log(5.0) / 5.0, rel=1e-12)
    assert reference.u_of_t(s.model, 5.0) == pytest.approx(0.5, abs=1e-10)


def test_feedback_document_rejects_rate_and_t50_together():
    doc = {"model": {"kind": "feedback", "kernel": {"kind": "linear"},
                     "rate": 1.0, "T50": 5.0, "u0": 0.01}, "horizon": 25.0}
    with pytest.raises(ScenarioValidationError):
        scenario.parse_scenario(doc)


ROUND_TRIP_DOCS = [
    SIMPLE_DOC,
    {"model": {"kind": "scheduled",
               "schedule": {"kind": "tabulated", "points": [[0.0, 0.1], [2.0, 0.5]]}},
     "horizon": 10.0, "outputs": ["u"]},
    {"model": {"kind": "segmented", "segments": [
        {"n": 0.5, "schedule": {"kind": "constant", "a": 1.0}},
        {"n": 0.5, "schedule": {"kind": "exp_decay", "a0": 2.0, "beta": 0.1}}]},
     "horizon": 5.0},
    {"model": {"kind": "hesitation", "a": 1.0, "b": 2.0, "c": 0.5,
               "variant": "returning_hesitation"}, "horizon": 10.0},
    {"model": {"kind": "birth_death", "a": 1.0, "d": 0.1, "f": 0.2, "g": 0.05},
     "horizon": 10.0, "name": "bd"},
    {"model": {"kind": "feedback", "kernel": {"kind": "inverse_u_cutoff", "u1": 0.6},
               "rate": 0.4}, "horizon": 10.0},
    {"model": {"kind": "innovators_only", "m": [1.0, 3.0]}, "horizon": 10.0},
    {"model": {"kind": "bass_competition", "m": [0.5, 0.2], "r": [0.8, 1.5],
               "u0": [0.02, 0.05],
               "churn": {"kind": "stimulated", "a": [[0.0, 1.0], [1.0, 0.0]],
                         "b": [2.0, 0.0], "eps": [1, 1]}}, "horizon": 30.0},
    {"model": {"kind": "spontaneous_churn", "m": [1.0, 0.8],
               "a": [[0.0, 0.3], [0.5, 0.0]]}, "horizon": 25.0},
    {"model": {"kind": "periodic_churn", "a12_0": 0.8, "a21_0": 1.2,
               "eps12": [{"amplitude": 0.1, "period": 1.0, "phase": 0.0}],
               "eps21": [], "u1_0": 0.2}, "horizon": 15.0},
    {"model": {"kind": "stimulated_churn", "a": [[0.0, 1.0], [1.0, 0.0]],
               "b": [2.0, 0.0], "eps": [1, 1]}, "horizon": 10.0},
    {"model": {"kind": "bpq", "case": "case4", "N": 1000.0, "beta": 0.002,
               "gamma": 0.003, "P0": 10.0, "Q0": 10.0}, "horizon": 30.0},
    {"model": {"kind": "complementary", "g": 0.0005, "b": 0.5, "a_c": 0.4,
               "b_c": 0.9, "tau": 1.0, "N": 1000.0, "N_c": 500.0}, "horizon": 20.0},
]
ROUND_TRIP_IDS = [d["model"]["kind"] for d in ROUND_TRIP_DOCS]

# Documents whose written form differs from the input: derived values,
# shorthands and defaults the reader fills in; plus every remaining bpq case.
MORE_ROUND_TRIPS = {
    "feedback_T50": {"model": {"kind": "feedback", "kernel": {"kind": "bass", "ratio": 3.0},
                               "T50": 5.0, "u0": 0.01}, "horizon": 20.0},
    "hesitation_variant_2": {"model": {"kind": "hesitation", "a": 1.0, "b": 2.0, "c": 0.5,
                                       "variant": 2}, "horizon": 10.0},
    "bpq_case1_shorthand": {"model": {"kind": "bpq", "case": "case1", "N": 1000.0, "a": 0.5,
                                      "b": {"kind": "exp_decay", "a0": 1.0, "beta": 0.3}},
                            "horizon": 20.0},
    "bpq_case2": {"model": {"kind": "bpq", "case": "case2", "N": 1000.0, "beta": 0.002,
                            "b": 0.5, "P0": 10.0}, "horizon": 30.0},
    "bpq_case3": {"model": {"kind": "bpq", "case": "case3", "N": 1000.0, "a": 0.1,
                            "beta": 0.002, "b": 0.5}, "horizon": 30.0},
    "bpq_case5": {"model": {"kind": "bpq", "case": "case5", "N": 1000.0, "a": 0.3,
                            "gamma": 0.002, "Q0": 10.0}, "horizon": 30.0},
    "bpq_case6": {"model": {"kind": "bpq", "case": "case6", "N": 1000.0, "a": 0.3,
                            "b": 0.5, "gamma": 0.002}, "horizon": 30.0},
    "bass_competition_periodic_churn": {
        "model": {"kind": "bass_competition", "m": [0.5, 0.2], "r": [0.8, 1.5],
                  "u0": [0.02, 0.05],
                  "churn": {"kind": "periodic", "a0": [[0.0, 0.8], [1.2, 0.0]],
                            "eps": [{"i": 0, "j": 1, "terms": [
                                {"amplitude": 0.1, "period": 1.0, "phase": 0.5}]}]}},
        "horizon": 10.0},
    "periodic_churn_no_eps21": {"model": {"kind": "periodic_churn", "a12_0": 0.8,
                                          "a21_0": 1.2, "u1_0": 0.2,
                                          "eps12": [{"amplitude": 0.1, "period": 1.0}]},
                                "horizon": 15.0},
}
ROUND_TRIP_DOCS += MORE_ROUND_TRIPS.values()
ROUND_TRIP_IDS += MORE_ROUND_TRIPS


@pytest.mark.parametrize("doc", ROUND_TRIP_DOCS, ids=ROUND_TRIP_IDS)
def test_parse_serialize_parse_identity(doc):
    s1 = scenario.parse_scenario(doc)
    text = scenario.scenario_to_text(s1)
    s2 = scenario.parse_scenario(json.loads(text))
    assert s1 == s2
    assert scenario.scenario_to_text(s2) == text


def test_written_form_resolves_shorthands():
    def written(name):
        return scenario.scenario_to_dict(scenario.parse_scenario(MORE_ROUND_TRIPS[name]))["model"]

    fb = written("feedback_T50")
    rate = scenario.parse_scenario(MORE_ROUND_TRIPS["feedback_T50"]).model.rate
    assert "T50" not in fb and fb["rate"] == rate
    assert written("hesitation_variant_2")["variant"] == "returning_hesitation"
    case1 = written("bpq_case1_shorthand")
    assert case1["a"] == {"kind": "constant", "a": 0.5}
    assert case1["c"] == {"kind": "constant", "a": 0.0}
    assert written("periodic_churn_no_eps21")["eps21"] == []


@pytest.mark.parametrize("doc", [
    [],
    {"horizon": 5.0},
    {"model": 7, "horizon": 5.0},
    {"model": {"kind": 3}, "horizon": 5.0},
    {"model": {"kind": "simple", "a": True}, "horizon": 5.0},
    {"model": {"kind": "simple", "a": 0.5}},
    {"model": {"kind": "simple", "a": 0.5}, "horizon": -1.0},
    {"model": {"kind": "simple", "a": 0.5}, "horizon": 5.0, "samples": 1},
    {"model": {"kind": "simple", "a": 0.5}, "horizon": 5.0, "outputs": "u"},
    {"model": {"kind": "scheduled", "schedule": {"kind": "warp"}}, "horizon": 5.0},
    {"model": {"kind": "segmented", "segments": []}, "horizon": 5.0},
    {"model": {"kind": "segmented", "segments": [
        {"n": 0.4, "schedule": {"kind": "constant", "a": 1.0}}]}, "horizon": 5.0},
    {"model": {"kind": "feedback", "kernel": {"kind": "power"}, "rate": 1.0},
     "horizon": 5.0},
    {"model": {"kind": "bass_competition", "m": [1.0], "r": [0.0, 0.0],
               "u0": [0.0]}, "horizon": 5.0},
    {"model": {"kind": "spontaneous_churn", "m": [1.0, 1.0],
               "a": [[0.0, -0.1], [0.1, 0.0]]}, "horizon": 5.0},
    {"model": {"kind": "bpq", "case": "case9"}, "horizon": 5.0},
    {"model": {"kind": "bpq", "case": "case2", "beta": 0.1, "b": 0.1,
               "N": 10.0, "P0": 0.0}, "horizon": 5.0},
])
def test_malformed_documents_fail_structurally(doc):
    # Every malformed document must surface as a structured validation
    # error, never as an unhandled exception from deeper layers.
    with pytest.raises(ScenarioValidationError) as exc:
        scenario.parse_scenario(doc)
    assert exc.value.issues


@pytest.mark.parametrize("doc,path", [
    ({"model": {"kind": "simple", "a": 0.5}, "horizon": math.inf}, "$.horizon"),
    ({"model": {"kind": "innovators_only", "m": [1.0, math.inf]}, "horizon": 5.0},
     "$.model.m"),
    ({"model": {"kind": "spontaneous_churn", "m": [1.0, 1.0],
                "a": [[0.0, math.nan], [0.5, 0.0]]}, "horizon": 5.0}, "$.model.a"),
    ({"model": {"kind": "simple", "a": 10 ** 400}, "horizon": 5.0}, "$.model.a"),
], ids=["horizon", "number_list", "matrix", "integer_beyond_float"])
def test_cli_rejects_non_finite_numbers(doc, path, tmp_path):
    # json reads NaN and Infinity; they must end as validation errors.
    file = tmp_path / "doc.json"
    file.write_text(json.dumps(doc))
    proc = run_cli("simulate", str(file))
    assert proc.returncode == 2
    assert f"error [bad_type] at {path}: expected ".encode() in proc.stderr
    assert b"finite" in proc.stderr and b"Traceback" not in proc.stderr


@pytest.mark.parametrize("doc,path", [
    ({"model": {"kind": "segmented", "segments": [5]}, "horizon": 5.0},
     "$.model.segments[0]"),
    ({"model": {"kind": "bass_competition", "m": [0.5, 0.2], "r": [0.8, 1.5],
                "u0": [0.02, 0.05],
                "churn": {"kind": "periodic", "a0": [[0.0, 0.8], [1.2, 0.0]], "eps": [5]}},
      "horizon": 5.0}, "$.model.churn.eps[0]"),
], ids=["segment", "modulation"])
def test_cli_rejects_list_entries_that_are_not_objects(doc, path, tmp_path):
    file = tmp_path / "doc.json"
    file.write_text(json.dumps(doc))
    proc = run_cli("simulate", str(file))
    assert proc.returncode == 2
    assert f"error [bad_type] at {path}: expected ".encode() in proc.stderr
    assert b"Traceback" not in proc.stderr


_SIMPLE = {"kind": "simple", "a": 0.5}
_MARKET = {"kind": "bass_competition", "m": [0.5, 0.2], "r": [0.8, 1.5], "u0": [0.02, 0.05]}


@pytest.mark.parametrize("doc,code,path", [
    ({"model": _SIMPLE, "horizon": math.inf}, "bad_type", "$.horizon"),
    ({"model": _SIMPLE, "horizon": "x"}, "bad_type", "$.horizon"),
    ({"model": _SIMPLE, "horizon": -1}, "invariant", "$.horizon"),
    ({"model": _SIMPLE, "horizon": 0}, "invariant", "$"),
    ({"model": {"kind": "spontaneous_churn", "m": [1.0, 1.0], "a": "x"}, "horizon": 5.0},
     "bad_type", "$.model.a"),
    ({"model": {"kind": "stimulated_churn", "a": [[0.0, math.nan], [1.0, 0.0]],
                "b": [1.0, 1.0], "eps": [0, 0]}, "horizon": 5.0}, "bad_type", "$.model.a"),
    ({"model": {**_MARKET, "churn": {"kind": "spontaneous"}}, "horizon": 5.0},
     "missing_field", "$.model.churn.a"),
    ({"model": {**_MARKET, "churn": {"kind": "periodic", "a0": [[0.0, "x"], [1.0, 0.0]]}},
      "horizon": 5.0}, "bad_type", "$.model.churn.a0"),
    ({"model": {"kind": "scheduled", "schedule": {"kind": "tabulated", "points": 3}},
      "horizon": 5.0}, "bad_type", "$.model.schedule.points"),
    ({"model": {"kind": "stimulated_churn", "a": [[0.0, 1.0], [1.0, 0.0]], "b": "x",
                "eps": [0, 0]}, "horizon": 5.0}, "bad_type", "$.model.b"),
    ({"model": {"kind": "stimulated_churn", "a": [[0.0, 1.0], [1.0, 0.0]], "b": [1.0, 1.0],
                "eps": [0, math.inf]}, "horizon": 5.0}, "bad_type", "$.model.eps"),
    ({"model": {**_MARKET, "m": [0.5, "x"]}, "horizon": 5.0}, "bad_type", "$.model.m"),
    ({"model": {**_MARKET, "u0": None}, "horizon": 5.0}, "bad_type", "$.model.u0"),
    ({"model": {"kind": "spontaneous_churn", "m": [1.0, "x"], "a": [[0.0, 1.0], [1.0, 0.0]]},
      "horizon": 5.0}, "bad_type", "$.model.m"),
], ids=["horizon_infinite", "horizon_string", "horizon_negative", "horizon_zero",
        "spontaneous_matrix", "stimulated_matrix", "churn_matrix_missing", "periodic_matrix",
        "tabulated_points", "stimulated_list", "stimulated_eps", "market_list",
        "market_null_list", "spontaneous_list"])
def test_a_rejected_value_is_reported_once(doc, code, path):
    # Checks that build on a value run only once the reader accepted it,
    # so a rejected horizon, matrix or number list adds no follow-on issue.
    with pytest.raises(ScenarioValidationError) as exc:
        scenario.parse_scenario(doc)
    assert [(issue.code, issue.path) for issue in exc.value.issues] == [(code, path)]


def test_cli_metrics_stay_finite_for_a_rate_near_the_float_floor(tmp_path):
    # 10 ln 2 / a overflowed as the root bracket of the latency times, so
    # T50 printed as inf although ln(2 (1 - u0)) / a is finite.
    file = tmp_path / "doc.json"
    file.write_text(json.dumps({"model": {"kind": "simple", "a": 1e-308, "u0": 0.1},
                                "horizon": 10.0}))
    proc = run_cli("metrics", str(file))
    assert proc.returncode == 0
    rows = dict(line.split(",", 1) for line in proc.stdout.decode().splitlines()[1:])
    assert float(rows["T50"]) == pytest.approx(math.log(2.0 * 0.9) / 1e-308, rel=1e-8)
    assert b"inf" not in proc.stdout


def test_cli_rejects_a_rate_whose_mean_wait_overflows(tmp_path):
    # 1/a of a subnormal rate is infinite, and so were T50 and T10.
    file = tmp_path / "doc.json"
    file.write_text(json.dumps({"model": {"kind": "simple", "a": 1e-320}, "horizon": 10.0}))
    proc = run_cli("metrics", str(file))
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert b"error [invariant] at $.model: expected adoption rate a is too small" in proc.stderr


def test_cli_power_kernel_reaches_saturation(tmp_path, capsys):
    # The growth integral must converge for shares within rounding of u = 1.
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"model": {"kind": "feedback", "kernel": {"kind": "power", "n": 1.5},
                                          "T50": 5, "u0": 0.01}, "horizon": 20}))
    assert cli.main(["simulate", str(path), "--samples", "20"]) == cli.EXIT_OK
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 20
    assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))


@pytest.mark.parametrize("rates", [{"a12_0": 1e300, "a21_0": 1.2}, {"a12_0": 0.8, "a21_0": 1.7e308}],
                         ids=["a12_huge", "a21_huge"])
def test_cli_periodic_churn_with_an_extreme_rate(rates, tmp_path, capsys, monkeypatch):
    # The work per grid segment must not grow with the churn rate: a few
    # quadrature panels, however narrow the weight exp(-s0 (t - x)). Counted
    # are the evaluations of the compiled modulation and its integral E(t).
    calls = [0]
    for name in ("_modulation_kernel", "_integral_kernel"):
        compile_kernel = getattr(competition, name)

        def counted(terms, compile_kernel=compile_kernel):
            kernel = compile_kernel(terms)

            def evaluate(t):
                calls[0] += 1
                return kernel(t)

            return evaluate

        monkeypatch.setattr(competition, name, counted)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"model": {"kind": "periodic_churn", **rates, "u1_0": 0.2,
                                          "eps12": [{"amplitude": 0.1, "period": 1.0}],
                                          "eps21": [{"amplitude": 0.2, "period": 0.5}]},
                                "horizon": 15.0}))
    assert cli.main(["simulate", str(path), "--samples", "50"]) == cli.EXIT_OK
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 50
    assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))
    assert 0 < calls[0] <= 100_000


def test_cli_rejects_a_period_without_a_finite_angular_frequency(tmp_path, capsys):
    # 2 pi / 5e-324 overflows, so no sinusoid of that period can be evaluated.
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"model": {"kind": "periodic_churn", "a12_0": 0.8, "a21_0": 1.2,
                                          "u1_0": 0.2,
                                          "eps12": [{"amplitude": 0.1, "period": 5e-324}]},
                                "horizon": 15.0}))
    assert cli.main(["simulate", str(path), "--samples", "50"]) == cli.EXIT_VALIDATION
    out = capsys.readouterr()
    assert out.out == ""
    assert "at $.model.eps12[0]: expected sinusoid period with a finite angular" in out.err


@pytest.mark.parametrize("command", ["simulate", "equilibrium"])
@pytest.mark.parametrize("kernel", [{"kind": "bass", "ratio": 2.0}, {"kind": "power", "n": 2}],
                         ids=["bass", "power"])
def test_cli_rejects_a_negative_feedback_start_before_calibrating(command, kernel, tmp_path,
                                                                  capsys):
    # Calibration used to evaluate phi from u0 = -1: a math domain error
    # (exit 1) for bass, a quadrature failure on [-1, 0.5] for power.
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"model": {"kind": "feedback", "kernel": kernel, "T50": 5.0,
                                          "u0": -1.0}, "horizon": 10.0}))
    assert cli.main([command, str(path), "--samples", "20"]) == cli.EXIT_VALIDATION
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == ["error [invariant] at $.model.u0: expected a share in "
                                    "[0, 1), found -1.0"]


def test_cli_rejects_a_negative_start_in_feedback_calibration(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"model": {"kind": "feedback", "kernel": {"kind": "bass",
                                                                         "ratio": 2.0},
                                          "u0": -1.0}, "targets": {"T50": 5.0}}))
    assert cli.main(["calibrate", str(path)]) == cli.EXIT_VALIDATION
    assert "at $.model.u0: expected a share in [0, 1)" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "equilibrium"])
@pytest.mark.parametrize("n", [1e300, 156.22063588244998])
def test_cli_rejects_a_power_exponent_whose_growth_integral_overflows(command, n, tmp_path,
                                                                      capsys):
    # n = 1e300 raised ZeroDivisionError (exit 1); from n = 156.22063588244998
    # on, phi(1/2) from u0 = 0.01 exceeds the largest double.
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"model": {"kind": "feedback", "kernel": {"kind": "power", "n": n},
                                          "T50": 5.0, "u0": 0.01}, "horizon": 10.0}))
    assert cli.main([command, str(path), "--samples", "20"]) == cli.EXIT_VALIDATION
    out = capsys.readouterr()
    assert out.out == ""
    assert "the growth integral overflows" in out.err


@pytest.mark.parametrize("command", ["simulate", "metrics"])
def test_cli_power_exponent_whose_scaled_power_overflows_exits_2(command, tmp_path):
    # From u0 just below 1/2, a^(1 - n) overflows even scaled by 2^-600: the
    # series summed inf - inf and never stopped. The run is a subprocess
    # with a timeout, so that a hang fails the test instead of the suite.
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"model": {"kind": "feedback",
                                          "kernel": {"kind": "power", "n": 1850.9600517357803},
                                          "u0": 0.49313918263374523, "rate": 1.0},
                                "horizon": 7.78, "samples": 20}))
    proc = subprocess.run([sys.executable, "-m", "marketdyn", command, str(path)],
                          capture_output=True, timeout=20)
    assert proc.returncode == cli.EXIT_VALIDATION
    assert proc.stdout == b""
    assert b"the growth integral overflows" in proc.stderr


def test_cli_runs_the_largest_power_exponent_with_a_finite_growth_integral(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"model": {"kind": "feedback",
                                          "kernel": {"kind": "power", "n": 156.22063588244995},
                                          "T50": 5.0, "u0": 0.01}, "horizon": 10.0}))
    assert cli.main(["simulate", str(path), "--samples", "20"]) == cli.EXIT_OK
    rows = capsys.readouterr().out.splitlines()[1:]
    assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))


def test_cli_rejects_a_returning_hesitation_with_a_vanishing_eigenvalue(tmp_path, capsys):
    # a * c underflows against (a + b + c)^2, so one transition eigenvalue is
    # 0; an assert used to end the run with exit 1.
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"model": {"kind": "hesitation", "a": 1.0, "b": 1.0, "c": 5e-324,
                                          "variant": "returning_hesitation"},
                                "horizon": 10.0}))
    assert cli.main(["simulate", str(path), "--samples", "20"]) == cli.EXIT_VALIDATION
    assert "negative transition eigenvalues" in capsys.readouterr().err


def cli_output(command, doc, tmp_path, capsys):
    """Exit code, stdout rows split at commas, and stderr of one CLI run."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = cli.main([command, str(path)])
    captured = capsys.readouterr()
    return code, [line.split(",") for line in captured.out.splitlines()], captured.err


def test_cli_near_confluent_case1_keeps_its_digits(tmp_path, capsys):
    # b lies within 1e-9 of a + c, where the closed form used to switch to
    # its b = a + c limit: P printed 4.14813271 at t = 15 and 0.453999289 at
    # t = 20, and C 917.915 at t = 5, because the limit divided by b instead
    # of a + c. 40-digit mpmath gives 4.148132745, 0.4539992931 and
    # 917.9150014.
    doc = {"model": {"kind": "bpq", "case": "case1", "N": 1000, "a": 0.5, "b": 0.500000001},
           "horizon": 20, "samples": 5}
    code, rows, _ = cli_output("simulate", doc, tmp_path, capsys)
    assert code == cli.EXIT_OK
    by_time = {row[0]: row for row in rows[1:]}
    assert by_time["15"][2] == "4.14813274"
    assert by_time["20"][2] == "0.453999293"
    assert by_time["5"][5] == "917.915001"


def test_cli_near_confluent_absorbing_hesitation_keeps_its_digits(tmp_path, capsys):
    # c lies within 2e-9 of a + b: h at t = 20 printed 1.5295116e-06; 40-digit
    # mpmath gives 1.52951158e-06.
    doc = {"model": {"kind": "hesitation", "a": 0.5, "b": 0.25, "c": 0.7500000015},
           "horizon": 20, "samples": 5}
    code, rows, _ = cli_output("simulate", doc, tmp_path, capsys)
    assert code == cli.EXIT_OK
    assert rows[-1][0] == "20" and rows[-1][2] == "1.52951158e-06"


@pytest.mark.parametrize("command", ["simulate", "metrics"])
def test_cli_periodic_churn_whose_modulation_factor_underflows_exits_numeric(
        command, tmp_path, capsys):
    # E(t) reaches about -1430, so e^E underflows to 0 and the periodic part
    # divided by it: a ZeroDivisionError traceback with exit 1.
    doc = {"model": {"kind": "periodic_churn", "a12_0": 1, "a21_0": 1,
                     "eps12": [{"amplitude": 0.9, "period": 5000, "phase": 3.14159}],
                     "u1_0": 0.5},
           "horizon": 3000, "samples": 31}
    code, rows, err = cli_output(command, doc, tmp_path, capsys)
    assert code == cli.EXIT_NUMERIC
    assert rows == []
    assert err.startswith("error [numeric] ") and "underflows" in err


@pytest.mark.parametrize("command", ["simulate", "metrics"])
def test_cli_case1_without_inflow_is_a_validation_error(command, tmp_path, capsys):
    # With a = c = 0 the path divided C by a + c = 0 and ended in a
    # ZeroDivisionError traceback (exit 1). Nobody ever buys, so the path is
    # exact and `simulate` prints it; only the peak metrics need a, b > 0.
    doc = {"model": {"kind": "bpq", "case": "case1", "N": 1000, "a": 0, "b": 0.5},
           "horizon": 20, "samples": 3}
    code, rows, err = cli_output(command, doc, tmp_path, capsys)
    if command == "simulate":
        assert code == cli.EXIT_OK
        assert rows[1:] == [[t, "1000", "0", "0", "0", "0"] for t in ("0", "10", "20")]
    else:
        assert code == cli.EXIT_VALIDATION
        assert "needs a, b > 0" in err


@pytest.mark.parametrize("model,first_row", [
    # u printed -2.22044605e-16 and h printed -0: a negative share.
    ({"kind": "hesitation", "a": 0.1, "b": 0.1, "c": 0.7}, ["0", "1", "0", "0", "0.1"]),
    # P printed -0.
    ({"kind": "bpq", "case": "case1", "N": 1000, "a": 0.1, "b": 0.2},
     ["0", "1000", "0", "0", "100", "0"]),
])
def test_cli_two_rate_closed_forms_start_at_exact_zeros(model, first_row, tmp_path, capsys):
    code, rows, _ = cli_output("simulate", {"model": model, "horizon": 20, "samples": 3},
                               tmp_path, capsys)
    assert code == cli.EXIT_OK
    assert rows[1] == first_row


@pytest.mark.parametrize("command", ["simulate", "metrics", "equilibrium"])
def test_cli_rejects_negative_innovation_rates_of_spontaneous_churn(command, tmp_path,
                                                                     capsys):
    # A negative m_i used to run and print a negative share (u2 = -0.272727273
    # at t = 20); bass_competition rejects the same input.
    doc = {"model": {"kind": "spontaneous_churn", "m": [0.3, -0.3],
                     "a": [[0, 0.4], [0.7, 0]]}, "horizon": 20, "samples": 5}
    code, rows, err = cli_output(command, doc, tmp_path, capsys)
    assert code == cli.EXIT_VALIDATION
    assert rows == []
    assert "[invariant] at $.model.m" in err



@pytest.mark.parametrize("u1,rows", [(0.3, ["rate"]),
                                     (0.5, ["rate", "T50", "T10", "T60_minus_T50"])])
def test_cli_cutoff_market_reports_latencies_only_if_it_reaches_half(u1, rows, tmp_path,
                                                                       capsys):
    # A market that stops below 1/2 has no T50; asking for it exited 3.
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"model": {"kind": "feedback",
                                          "kernel": {"kind": "inverse_u_cutoff", "u1": u1},
                                          "rate": 1.0, "u0": 0.05}, "horizon": 2}))
    assert cli.main(["metrics", str(path)]) == cli.EXIT_OK
    assert [line.split(",")[0] for line in capsys.readouterr().out.splitlines()[1:]] == rows
    assert cli.main(["simulate", str(path)]) == cli.EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1] == f"2,{u1},0"


@pytest.mark.parametrize("command", ["simulate", "metrics"])
@pytest.mark.parametrize("file_samples,argv", [(50, []), (2, ["--samples", "50"])],
                         ids=["from_file", "from_option"])
@pytest.mark.parametrize("model", [
    {"kind": "bpq", "case": "case6", "a": 0.5, "b": 0.3, "gamma": 0.0005, "N": 1000},
    {"kind": "innovators_only", "m": [0.1, 0.2]},
    {"kind": "simple", "a": 0.5},
    {"kind": "feedback", "kernel": {"kind": "quadratic"}, "rate": 1.0, "u0": 0.01},
], ids=["bpq_case6", "innovators_only", "simple", "feedback"])
def test_cli_rejects_a_horizon_too_short_for_the_grid(model, file_samples, argv, command,
                                                      tmp_path, capsys):
    # 5e-324 / 49 rounds to 0, so the sample times did not increase and the
    # trajectory raised a ValueError (exit 1).
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"model": model, "horizon": 5e-324, "samples": file_samples}))
    assert cli.main([command, str(path), *argv]) == cli.EXIT_VALIDATION
    assert capsys.readouterr() == ("", "error [invariant] at $.horizon: expected a horizon "
                                       "long enough for 50 distinct sample times, found 5e-324\n")


@pytest.mark.parametrize("command", ["simulate", "metrics"])
@pytest.mark.parametrize("samples", ["1", "0", "-3"])
def test_cli_rejects_a_samples_option_below_two(samples, command, tmp_path, capsys):
    # The option skipped the samples >= 2 check of the document's own
    # samples, so the time grid raised a ValueError (exit 1).
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(SIMPLE_DOC))
    assert cli.main([command, str(path), "--samples", samples]) == cli.EXIT_VALIDATION
    assert capsys.readouterr() == (
        "", f"error [invariant] at --samples: expected an integer >= 2, found {samples}\n")


def test_cli_bpq_case4_without_an_interior_peak(tmp_path, capsys):
    # beta B0 <= gamma Q0: the players only decline, so the peak is P0 at t = 0;
    # the quadrature up to the balance share Q < Q0 raised a ValueError.
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"model": {"kind": "bpq", "case": "case4", "beta": 0.001,
                                          "gamma": 0.1, "N": 1000, "P0": 5, "Q0": 100},
                                "horizon": 1}))
    assert cli.main(["metrics", str(path)]) == cli.EXIT_OK
    assert capsys.readouterr().out.splitlines()[1:3] == ["T_m,0", "P_m,5"]
    assert cli.main(["simulate", str(path), "--samples", "5"]) == cli.EXIT_OK
    assert capsys.readouterr().out.splitlines()[1] == "0,895,5,100,4.475,0"


def scipy_players(model, times):
    """P of bpq case 2 or 4 at the given times: scipy's DOP853 on (log B, log P, Q)."""
    integrate = pytest.importorskip("scipy.integrate")
    beta, n, p0, q0 = model["beta"], model["N"], model["P0"], model.get("Q0", 0.0)
    if model["case"] == "case2":
        def rate(q):
            return model["b"]
    else:
        def rate(q):
            return model["gamma"] * q

    def rhs(t, y):
        return [-beta * math.exp(y[1]), beta * math.exp(y[0]) - rate(y[2]),
                rate(y[2]) * math.exp(y[1])]

    sol = integrate.solve_ivp(rhs, (0.0, times[-1]), [math.log(n - p0 - q0), math.log(p0), q0],
                              method="DOP853", rtol=1e-13, atol=1e-14, t_eval=times)
    return [math.exp(v) for v in sol.y[1]]


CASE4_ROUND_TRIP = ROUND_TRIP_DOCS[ROUND_TRIP_IDS.index("bpq")]["model"]
CASE2_LIFECYCLE = {"kind": "bpq", "case": "case2", "beta": 0.002, "b": 0.5, "N": 1000.0}


# Each document exited 3 (the t(Q) ladder's quadrature hit its subdivision
# limit) or 1 (a ZeroDivisionError), or, for case2_tail, printed a P frozen
# at 8.6e-06 from t = 50 on while the true P falls to 4e-17. The last ran at
# the parent; its final buyer count lies below the smallest double.
@pytest.mark.parametrize("model,horizon", [
    (dict(CASE4_ROUND_TRIP, P0=1.0), 15.0),
    (dict(CASE4_ROUND_TRIP, P0=0.1), 30.0),
    (dict(CASE4_ROUND_TRIP, P0=1e-6), 30.0),
    (dict(CASE4_ROUND_TRIP, P0=1e-15), 30.0),
    ({"kind": "bpq", "case": "case4", "beta": 0.001, "gamma": 0.1, "N": 1000.0, "P0": 5.0,
      "Q0": 100.0}, 2.0),
    (dict(CASE2_LIFECYCLE, P0=1e-6), 30.0),
    (dict(CASE2_LIFECYCLE, P0=1e-9), 30.0),
    (dict(CASE2_LIFECYCLE, P0=10.0), 100.0),
    (dict(CASE2_LIFECYCLE, P0=10.0, beta=1.0), 30.0),
], ids=["case4_P0_1", "case4_P0_0.1", "case4_P0_1e-6", "case4_P0_1e-15", "case4_no_peak",
        "case2_P0_1e-6", "case2_P0_1e-9", "case2_tail", "case2_B_inf_underflows"])
def test_cli_bpq_time_inversion_matches_the_ode(model, horizon, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"model": model, "horizon": horizon}))
    assert cli.main(["simulate", str(path), "--samples", "60"]) == cli.EXIT_OK
    printed = [float(line.split(",")[2]) for line in capsys.readouterr().out.split()[1:]]
    reference = scipy_players(model, time_grid(0.0, horizon, 60))
    for p, ref in zip(printed, reference, strict=True):
        # 1e-9 relative, plus half a unit in the 9th printed digit.
        assert abs(p - ref) <= 1e-9 * ref + 0.5 * 10.0 ** (math.floor(math.log10(ref)) - 8)
    assert cli.main(["metrics", str(path)]) == cli.EXIT_OK


# Each raised a ZeroDivisionError, an OverflowError in case4_peak or a
# ValueError (exit 1, with a traceback).
@pytest.mark.parametrize("change,code", [
    ({"beta": 1e300}, cli.EXIT_OK),
    ({"gamma": 1e-300}, cli.EXIT_OK),
    ({"beta": 2.0, "Q0": 1e-12}, cli.EXIT_OK),
    ({"P0": 5e-324}, cli.EXIT_NUMERIC),
], ids=["beta_1e300", "gamma_1e-300", "Q0_1e-12", "P0_subnormal"])
@pytest.mark.parametrize("command", ["simulate", "metrics"])
def test_cli_bpq_case4_at_the_ends_of_the_double_range(change, code, command, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"model": dict(CASE4_ROUND_TRIP, **change), "horizon": 30.0}))
    assert cli.main([command, str(path), "--samples", "50"]) == code
    out, err = capsys.readouterr()
    if code == cli.EXIT_OK:
        values = [float(v) for line in out.split()[1:] for v in line.split(",")[1:]]
        assert all(math.isfinite(v) for v in values)
    else:
        assert err == ("error [numeric] the seed P0 and the rates put this game outside "
                       "the range of a double\n")


# Near the ends of the double range: sample times of 1e-302, a whole game
# smaller than 1e-299, and a quit rate gamma Q0 that rounds to 0.
@pytest.mark.parametrize("model,horizon,code", [
    (dict(CASE2_LIFECYCLE, P0=10.0), 1e-300, cli.EXIT_OK),
    (dict(CASE4_ROUND_TRIP, P0=1e-300, Q0=999.0), 30.0, cli.EXIT_NUMERIC),
    (dict(CASE4_ROUND_TRIP, Q0=5e-324), 30.0, cli.EXIT_VALIDATION),
], ids=["case2_horizon_1e-300", "case4_span_1e-300", "case4_quit_rate_underflows"])
def test_cli_bpq_time_inversion_at_tiny_scales(model, horizon, code, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"model": model, "horizon": horizon}))
    for command in ("simulate", "metrics"):
        assert cli.main([command, str(path), "--samples", "50"]) == code
        values = [float(v) for line in capsys.readouterr().out.split()[1:]
                  for v in line.split(",")[1:]]
        assert all(math.isfinite(v) for v in values)


# Case 2 with subnormal rates: beta B / b rounds to 1, so the Newton step of
# the final size divided by zero. Case 4 whose final-size gap lies below the
# resolution of its start N - Q0: a step fell to 0 and its log failed. Both
# ended in a traceback (exit 1).
@pytest.mark.parametrize("model,horizon", [
    ({"kind": "bpq", "case": "case2", "N": 1.3756299454551857, "b": 5e-324, "beta": 5e-324,
      "P0": 5e-324, "Q0": 5e-324}, 1e-310),
    ({"kind": "bpq", "case": "case4", "N": 1.1185345724037803e+177,
      "beta": 0.0022666497430484374, "gamma": 3.8109269806519025e+86,
      "P0": 0.017888582390094016, "Q0": 1.0798860472575559e-96}, 1009107134.3720616),
], ids=["case2_subnormal_rates", "case4_gap_below_resolution"])
@pytest.mark.parametrize("command", ["simulate", "metrics"])
def test_cli_quit_clock_outside_the_double_range_exits_3(model, horizon, command, tmp_path,
                                                        capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"model": model, "horizon": horizon, "samples": 60}))
    assert cli.main([command, str(path)]) == cli.EXIT_NUMERIC
    assert capsys.readouterr().err == ("error [numeric] the seed P0 and the rates put this game "
                                       "outside the range of a double\n")


def test_cli_bpq_case2_with_an_overflowing_demand_exits_3(tmp_path, capsys):
    # D = beta P B exceeds the largest double at t = 0.
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"model": dict(CASE2_LIFECYCLE, N=1.7e308, P0=999.0),
                                "horizon": 30.0}))
    for command in ("simulate", "metrics"):
        assert cli.main([command, str(path)]) == cli.EXIT_NUMERIC
        assert capsys.readouterr().err == ("error [numeric] the seed P0 and the rates put "
                                           "this game outside the range of a double\n")


@pytest.mark.parametrize("model", [
    {"kind": "bass_competition", "m": [1e20, 0.1], "r": [1, 1], "u0": [0, 0]},
    {"kind": "bass_competition", "m": [1e12, 0.2], "r": [1, 1], "u0": [0, 0],
     "churn": {"kind": "periodic", "a0": [[0, 0.3], [0.2, 0]],
               "eps": [{"i": 0, "j": 1, "terms": [{"amplitude": 0.1, "period": 2.0}]}]}},
], ids=["huge_innovation", "huge_innovation_periodic_churn"])
def test_cli_stiff_market_exits_3_without_spending_the_step_budget(model, tmp_path, capsys):
    # Innovation at rate m fills the market in about 1/m, after which
    # explicit steps sit at the stability limit of a few 1/m: the step
    # budget would take seconds to run out, the stiffness test ends the run
    # within a few hundred steps.
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"model": model, "horizon": 5}))
    for command in ("simulate", "metrics"):
        start = time.perf_counter()
        assert cli.main([command, str(path)]) == cli.EXIT_NUMERIC
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error [numeric] problem became stiff") and "Traceback" not in err


# Values that leave the double range in a churn market, a competition
# market or a rate schedule. The first five ended in a traceback (exit 1):
# exp(-Q t) of a matrix whose entries overflow, the singular-Q fallback
# meeting -inf + inf, the stimulated balance's Jacobian, e^E of periodic
# churn, and the power of a steep imitator's share. The last two printed
# nan with exit 0: an exp_decay integral of inf * 0 at t = 0, and a linear
# rate past the double range times e^(-int a) = 0.
OVERFLOW_DOCS = {
    "spontaneous_scaled_overflow": (
        {"kind": "spontaneous_churn", "m": [1e308, 1e308], "a": [[0, 1e307], [1e307, 0]]},
        10, 5, (3, 3, 3)),
    "spontaneous_singular_fallback": (
        {"kind": "spontaneous_churn", "m": [0.5, 0.5], "a": [[0, 1e308], [1e308, 0]]},
        10, 5, (3, 3, 3)),
    "stimulated_jacobian": (
        {"kind": "stimulated_churn", "a": [[0, 1e-5, 1e-13], [0.01, 0, 5e-324],
                                           [1.7e308, 1e-8, 0]],
         "b": [1e8, 0, 1e-12], "eps": [0, 1, 1]},
        1, 5, (3, 3, 3)),
    "periodic_factor_overflow": (
        {"kind": "periodic_churn", "a12_0": 1000, "a21_0": 1, "u1_0": 0.5,
         "eps12": [{"amplitude": 1000, "period": 100}]},
        50, 11, (3, 3, 0)),
    "bass_steep_imitator": (
        {"kind": "bass_competition", "m": [1e-10, 1e-6], "r": [1.0, 1e4], "u0": [0.5, 1e-9]},
        1, 5, (0, 0, 0)),
    "exp_decay_integral_overflow": (
        {"kind": "scheduled", "schedule": {"kind": "exp_decay", "a0": 1e300, "beta": 1e-12}},
        1, 3, (0, 0, 2)),
    "linear_rate_overflow": (
        {"kind": "scheduled", "schedule": {"kind": "linear", "a0": 1.0, "a1": 1.7e308}},
        1e6, 3, (0, 0, 2)),
}


@pytest.mark.parametrize("name", OVERFLOW_DOCS)
@pytest.mark.parametrize("command", ["simulate", "metrics", "equilibrium"])
def test_cli_values_past_the_double_range_exit_cleanly(name, command, tmp_path, capsys):
    model, horizon, samples, codes = OVERFLOW_DOCS[name]
    doc = {"model": model, "horizon": horizon, "samples": samples}
    # An escaping exception would raise out of cli.main here.
    code, rows, err = cli_output(command, doc, tmp_path, capsys)
    assert code == codes[("simulate", "metrics", "equilibrium").index(command)]
    assert "Traceback" not in err
    if code == cli.EXIT_NUMERIC:
        assert err.startswith("error [numeric] ") and err.count("\n") == 1
    if code == cli.EXIT_OK:
        numbers = []
        for row in rows[1:]:
            for field in row:
                try:
                    numbers.append(float(field))
                except ValueError:  # a row's name
                    pass
        assert numbers and all(math.isfinite(v) for v in numbers)


def test_cli_steep_imitator_fixed_point_is_the_long_run_share(tmp_path, capsys):
    # u2 grows as u1^1000: from its huge share sum at u1 = 1, Newton crept
    # down by one e-fold per step, and after 200 steps the root finder
    # returned its bracket's midpoint, u2 = 2.6e38, with exit 0.
    doc = {"model": {"kind": "bass_competition", "m": [1e-10, 1e-6], "r": [1.0, 1000],
                     "u0": [0.5, 1e-9]}, "horizon": 100, "samples": 5}
    code, rows, _ = cli_output("equilibrium", doc, tmp_path, capsys)
    assert code == cli.EXIT_OK
    fixed = [float(row[1]) for row in rows[1:]]
    code, rows, _ = cli_output("simulate", doc, tmp_path, capsys)
    assert code == cli.EXIT_OK
    assert fixed == pytest.approx([float(v) for v in rows[-1][1:]], abs=1e-8)


CASE5_LONG = {"kind": "bpq", "case": "case5", "a": 0.2, "gamma": 0.004, "N": 1000.0, "Q0": 10.0}
COMPLEMENTARY = json.loads((Path(__file__).resolve().parent.parent / "scenarios"
                            / "complementary_games.json").read_text())["model"]


def complementary_limit(m: dict) -> tuple[float, float, float]:
    """(B, P, Q) of game 1 at t -> infinity, with the companion live from t = -tau <= 0.

    B falls by g times the companion's players integrated from s = tau on:
    N_c a_c / (b_c - a_c) (e^{-a_c tau} / a_c - e^{-b_c tau} / b_c).
    """
    a_c, b_c, tau = m["a_c"], m["b_c"], m["tau"]
    players = m["N"] * a_c / (b_c - a_c) * (math.exp(-a_c * tau) / a_c
                                           - math.exp(-b_c * tau) / b_c)
    b_inf = m["N"] * math.exp(-m["g"] * players)
    return b_inf, 0.0, m["N"] - b_inf


# Each sample step is far longer than the width of the weight e^(k(u) - k(t))
# of the shifted integral. Case 5 printed P = -2.97e148 at horizon 1e5 and
# divided by zero from 1e6 on; complementary printed P = -612.857754.
@pytest.mark.parametrize("model,horizon,samples,limit", [
    (CASE5_LONG, 1e5, 6, (0.0, 0.0, 1000.0)),
    (CASE5_LONG, 1e6, 6, (0.0, 0.0, 1000.0)),
    (CASE5_LONG, 1e12, 1000, (0.0, 0.0, 1000.0)),
    (COMPLEMENTARY, 1e7, 6, complementary_limit(COMPLEMENTARY)),
], ids=["case5_1e5", "case5_1e6", "case5_1e12", "complementary_1e7"])
def test_cli_long_sample_steps_reach_the_limit_state(model, horizon, samples, limit,
                                                     tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"model": model, "horizon": horizon, "samples": samples}))
    assert cli.main(["metrics", str(path)]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["simulate", str(path)]) == cli.EXIT_OK
    lines = capsys.readouterr().out.split()
    labels = lines[0].split(",")
    rows = [dict(zip(labels, map(float, line.split(",")))) for line in lines[1:]]
    n = model["N"]
    for row in rows:
        assert all(math.isfinite(v) for v in row.values())
        assert abs(row["B"] + row["P"] + row["Q"] - n) <= 1e-9 * n
        assert row["P"] >= -1e-9 * n
    last = rows[-1]
    for channel, value in zip("BPQ", limit):
        assert last[channel] == pytest.approx(value, abs=1e-9 * n)


# Where a value truly leaves the range of a double, the game exits 3 as bpq
# case 2 does; each of these printed D = inf at t = 0 with exit 0.
@pytest.mark.parametrize("model", [
    {"kind": "bpq", "case": "case1", "N": 1000.0, "a": 1.7e308, "b": 0.3, "c": 0.1},
    dict(COMPLEMENTARY, N=1e300),
], ids=["case1_a_1.7e308", "complementary_N_1e300"])
@pytest.mark.parametrize("command", ["simulate", "metrics"])
def test_cli_game_with_an_overflowing_demand_exits_3(model, command, tmp_path, capsys):
    doc = {"model": model, "horizon": 20.0, "samples": 3}
    code, _, err = cli_output(command, doc, tmp_path, capsys)
    assert code == cli.EXIT_NUMERIC
    assert err == "error [numeric] the demand or a compartment exceeds the range of a double\n"


def test_cli_complementary_with_a_huge_quit_rate(tmp_path, capsys):
    # n b k overflowed before b met the integral k of about 3.7e-309, and
    # P = inf, Q = -inf were printed. Players now quit as they buy.
    doc = {"model": dict(COMPLEMENTARY, b=1.7e308), "horizon": 20.0, "samples": 3}
    code, rows, _ = cli_output("simulate", doc, tmp_path, capsys)
    assert code == cli.EXIT_OK
    for row in rows[1:]:
        values = dict(zip(rows[0], map(float, row)))
        assert abs(values["P"]) <= 1e-12 * COMPLEMENTARY["N"]
        assert values["Q"] == pytest.approx(values["C"], abs=1e-12 * COMPLEMENTARY["N"])


# Each raised a traceback from `simulate`: a division by the product
# Q0 (P0 + Q0), which underflows to 0; a rise of the integrating factor that
# cancelled N y against B y with N = 1.7e308; and (K + q t) ** 2 at t = 1e300.
@pytest.mark.parametrize("model,horizon,code", [
    (dict(CASE5_LONG, N=1000.0, Q0=5e-324), 20.0, cli.EXIT_NUMERIC),
    (dict(CASE5_LONG, N=1.7e308, a=1e-300), 20.0, cli.EXIT_OK),
    ({"kind": "bpq", "case": "case1", "N": 1000.0, "b": 0.3,
      "a": {"kind": "linear", "a0": 0.1, "a1": 0.01}}, 1e300, cli.EXIT_OK),
], ids=["case5_Q0_subnormal", "case5_N_1.7e308", "case1_linear_horizon_1e300"])
def test_cli_game_at_the_ends_of_the_double_range(model, horizon, code, tmp_path, capsys):
    doc = {"model": model, "horizon": horizon, "samples": 5}
    got, rows, err = cli_output("simulate", doc, tmp_path, capsys)
    assert got == code
    if code == cli.EXIT_NUMERIC:
        assert err.startswith("error [numeric]")
    else:
        assert all(math.isfinite(float(v)) for row in rows[1:] for v in row)
    got, _, err = cli_output("metrics", doc, tmp_path, capsys)
    assert got in (cli.EXIT_OK, cli.EXIT_NUMERIC) and "Traceback" not in err


# With P0 = 0, the source a B / R^2 of z = 1/Q - 1/R peaks at a B0 / Q0^2 at
# t = 0 and overflowed where Q0 = 1e-200: P printed nan and the CLI exited 3.
# Q = R / (1 + R z) stays so small that P = R to rounding, so gamma P Q
# leaves Q = Q0 e^(gamma int R) = Q0 e^(psi(t) - psi(0)) to rounding as well.
@pytest.mark.parametrize("samples", [5, 1000])
@pytest.mark.parametrize("command", ["simulate", "metrics"])
def test_cli_case5_from_a_tiny_seed_of_quitters(samples, command, tmp_path, capsys):
    a, gamma, n, q0 = 0.2, 0.004, 1000.0, 1e-200
    doc = {"model": {"kind": "bpq", "case": "case5", "N": n, "a": a, "gamma": gamma, "Q0": q0},
           "horizon": 20.0, "samples": samples}
    code, rows, err = cli_output(command, doc, tmp_path, capsys)
    assert (code, err) == (cli.EXIT_OK, "")
    assert all(math.isfinite(float(v)) for row in rows[1:] for v in row[1:])
    traj = games.bpq_path(games.Case5(a=a, gamma=gamma, N=n, Q0=q0),
                          time_grid(0.0, 20.0, samples))
    for t, p, q in zip(traj.times, traj.channel("P"), traj.channel("Q")):
        assert p == pytest.approx(-n * math.expm1(-a * t), rel=1e-12)
        psi = gamma * (n * t + n * math.expm1(-a * t) / a)
        assert q == pytest.approx(q0 * math.exp(psi), rel=1e-12)


def test_cli_peak_inside_a_first_step_that_holds_the_grid_maximum(tmp_path, capsys):
    # At 5 samples over 1e6 the grid maximum of P is its first sample, P = 0,
    # while P rises from there to its peak at t = 4.56, inside the first step.
    model = {"kind": "bpq", "case": "case1", "N": 1000, "b": 0.3, "c": 0.1,
             "a": {"kind": "linear", "a0": 0.1, "a1": 0.01}}
    peaks = []
    for horizon, samples in ((1e6, 5), (100.0, 1001)):
        doc = {"model": model, "horizon": horizon, "samples": samples}
        code, rows, _ = cli_output("metrics", doc, tmp_path, capsys)
        assert code == cli.EXIT_OK
        peaks.append([row for row in rows if row[0] in ("T_m", "P_m")])
    assert peaks[0] == peaks[1] == [["T_m", "4.55860528"], ["P_m", "175.759165"]]


def test_cli_case5_step_much_longer_than_one_over_a(tmp_path, capsys):
    # One sample step spans 11,300 / a. The source a B / R^2 of z lives within
    # a few 1/a of the step's start, where one panel over the whole step has
    # no node; P(453) printed 63.6398925. mpmath, through w = 1/Q with
    # w' = gamma - gamma R w, gives 63.6408554153.
    doc = {"model": {"kind": "bpq", "case": "case5", "N": 888.1716576559326,
                     "a": 24.93354402143333, "gamma": 1.4958476971359906e-05,
                     "Q0": 27.160907847162125, "P0": 2.173607490534103e-06},
           "horizon": 453, "samples": 2}
    code, rows, _ = cli_output("simulate", doc, tmp_path, capsys)
    assert code == cli.EXIT_OK
    values = dict(zip(rows[0], map(float, rows[2])))
    assert values["P"] == pytest.approx(63.6408554153, rel=1e-9)


def test_cli_case5_in_a_market_of_1e308_keeps_its_sales(tmp_path, capsys):
    # Inflow a B = 1.7e8 against quits gamma P Q; scipy's Radau gives P(5) =
    # 50.0000054 and Q(5) = 8.4999996e8. Sales are B0 (1 - e^-at), which
    # B0 - B(t) rounded to 0.
    doc = {"model": dict(CASE5_LONG, N=1.7e308, a=1e-300), "horizon": 20.0, "samples": 5}
    code, rows, _ = cli_output("simulate", doc, tmp_path, capsys)
    assert code == cli.EXIT_OK
    values = dict(zip(rows[0], map(float, rows[2])))
    assert values["t"] == 5.0
    assert values["P"] == pytest.approx(50.0000054, rel=1e-7)
    assert values["Q"] == pytest.approx(8.4999996e8, rel=1e-7)
    assert values["C"] == pytest.approx(8.5e8, rel=1e-9)


# ---------------------------------------------------------------------------
# simulate computes the path alone
# ---------------------------------------------------------------------------

SCENARIO_DOCS = {path.stem: json.loads(path.read_text()) for path in sorted(
    (Path(__file__).resolve().parent.parent / "scenarios").glob("*.json"))}
SCENARIO_DOCS = {name: doc for name, doc in SCENARIO_DOCS.items() if "horizon" in doc}


@pytest.mark.parametrize("doc", ROUND_TRIP_DOCS + list(SCENARIO_DOCS.values()),
                         ids=ROUND_TRIP_IDS + list(SCENARIO_DOCS))
def test_simulate_prints_the_trajectory_that_run_scenario_computes(doc, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["simulate", str(path)]) == cli.EXIT_OK
    s = scenario.parse_scenario(doc)
    expected = scenario.render_csv(scenario.simulate_scenario(s), s.outputs)
    assert capsys.readouterr().out == expected
    # A second path of the same scenario prints the same bytes.
    assert scenario.render_csv(scenario.simulate_scenario(s), s.outputs) == expected


def test_simulate_computes_no_metric(tmp_path, capsys, monkeypatch):
    def computed(*args, **kwargs):
        raise DomainError("a metric was computed")

    monkeypatch.setattr(games, "peak_metrics", computed)
    monkeypatch.setattr(competition, "stimulated_fixed_point", computed)
    for doc in (MORE_ROUND_TRIPS["bpq_case3"],
                ROUND_TRIP_DOCS[ROUND_TRIP_IDS.index("stimulated_churn")]):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["simulate", str(path)]) == cli.EXIT_OK
        assert cli.main(["metrics", str(path)]) == cli.EXIT_NUMERIC
        assert "a metric was computed" in capsys.readouterr().err


def test_metrics_of_closed_form_rows_builds_no_path(tmp_path, capsys, monkeypatch):
    # The simple and feedback rows are closed forms of the model, and their
    # path adds no note, so `metrics` builds none.
    docs = [SIMPLE_DOC, ROUND_TRIP_DOCS[ROUND_TRIP_IDS.index("feedback")],
            {"model": {"kind": "feedback", "kernel": {"kind": "quadratic"}, "T50": 5.0,
                       "u0": 0.01}, "horizon": 25.0},
            {"model": {"kind": "feedback", "kernel": {"kind": "power", "n": 2.0}, "T50": 5.0,
                       "u0": 0.01}, "horizon": 7.5}]
    path = tmp_path / "doc.json"
    printed = []
    for doc in docs:
        path.write_text(json.dumps(doc))
        assert cli.main(["metrics", str(path)]) == cli.EXIT_OK
        printed.append(capsys.readouterr())
    assert 'note,"quadratic kernel' in printed[2].out

    def built(*args, **kwargs):
        raise DomainError("a path was built")

    monkeypatch.setattr(monopoly, "simple_path", built)
    monkeypatch.setattr(feedback, "feedback_path", built)
    for doc, expected in zip(docs, printed):
        path.write_text(json.dumps(doc))
        assert cli.main(["metrics", str(path)]) == cli.EXIT_OK
        assert capsys.readouterr() == expected


@pytest.mark.parametrize("command", ["simulate", "metrics"])
def test_cli_power_kernel_whose_path_overflows_exits_2(command, tmp_path, capsys):
    # The u^n growth integral overflows on the path's way to saturation, and
    # `metrics` exits as the path does, before the inflection row, at
    # u = n/(n+1) = 1, would exit 3.
    doc = {"model": {"kind": "feedback", "kernel": {"kind": "power", "n": 1e300},
                     "rate": 1.0, "u0": 0.5}, "horizon": 1.0}
    assert cli_output(command, doc, tmp_path, capsys) == (
        cli.EXIT_VALIDATION, [], "error [invariant] u^n feedback with n = 1e+300 from "
                                 "u0 = 0.5: the growth integral overflows\n")


FAST_INFLOW = {"kind": "bpq", "case": "case1", "N": 1000, "a": 1e12,
               "b": {"kind": "exp_decay", "a0": 1.0, "beta": 0.3}}
# 40-digit mpmath: the peak lies where a e^(-at) = b(t) (1 - e^(-at)).
FAST_INFLOW_PEAK = {"T_m": 2.7631021116e-11, "P_m": 999.999999972}


def test_cli_simulate_prints_a_path_whose_peak_cannot_be_refined(tmp_path, capsys):
    # The case 1 field is stiff at a = 1e12. `simulate` exited 3 with
    # "problem became stiff" while it computed the unprinted peak, and
    # `metrics` did so while it integrated that field to refine the peak; the
    # refinement now restarts the path's own route.
    doc = {"model": FAST_INFLOW, "horizon": 20}
    code, rows, _ = cli_output("simulate", doc, tmp_path, capsys)
    assert code == cli.EXIT_OK
    assert rows[2][:3] == ["0.02002002", "0", "980.237862"]
    code, rows, _ = cli_output("metrics", doc, tmp_path, capsys)
    assert code == cli.EXIT_OK
    values = {row[0]: float(row[1]) for row in rows[1:]}
    for name, exact in FAST_INFLOW_PEAK.items():
        assert values[name] == pytest.approx(exact, rel=1e-6, abs=0.0)


@pytest.mark.parametrize("samples", [5, 1000])
def test_cli_case1_with_never_buyers_and_a_fast_inflow_keeps_its_players(samples, tmp_path,
                                                                         capsys):
    # Each step's sales came from a quadrature of a B, a spike of width
    # 1e-12 at the step's start that its nodes missed: P = C = 0 everywhere,
    # and T_m = P_m = C_inf = 0. 40-digit mpmath gives these values.
    doc = {"model": dict(FAST_INFLOW, c=0.1), "horizon": 20, "samples": samples}
    code, rows, _ = cli_output("simulate", doc, tmp_path, capsys)
    assert code == cli.EXIT_OK
    by_time = {row[0]: dict(zip(rows[0], map(float, row))) for row in rows[1:]}
    t, players = ("5", 75.0525959) if samples == 5 else ("0.02002002", 980.237862)
    assert by_time[t]["P"] == pytest.approx(players, rel=1e-8)
    assert by_time[t]["C"] == pytest.approx(1000.0, rel=1e-9)
    code, rows, _ = cli_output("metrics", doc, tmp_path, capsys)
    assert code == cli.EXIT_OK
    values = {row[0]: float(row[1]) for row in rows[1:]}
    assert values["C_inf"] == pytest.approx(1000.0, rel=1e-9)
    for name, exact in FAST_INFLOW_PEAK.items():
        assert values[name] == pytest.approx(exact, rel=1e-6, abs=0.0)


@pytest.mark.parametrize("doc", [
    {"model": FAST_INFLOW, "horizon": 20},
    {"model": {"kind": "bpq", "case": "case1", "N": 1000, "a": {"kind": "linear", "a0": 0.2,
                                                                 "a1": 0.05}, "b": 0.3,
               "c": 0.1}, "horizon": 30},
    {"model": {"kind": "bpq", "case": "case1", "N": 1000,
               "a": {"kind": "exp_decay", "a0": 0.5, "beta": 0.1},
               "b": {"kind": "linear", "a0": 0.3, "a1": 0.05}, "c": 0.1}, "horizon": 30},
    {"model": CASE5_LONG, "horizon": 40},
], ids=["case1_fast_inflow", "case1_linear_inflow", "case1_schedules", "case5"])
def test_metrics_refines_the_peak_on_the_paths_own_route(doc, tmp_path, capsys, monkeypatch):
    def integrated(*args, **kwargs):
        raise DomainError("the peak was integrated")

    monkeypatch.setattr(numerics, "sample_ivp", integrated)
    code, rows, err = cli_output("metrics", doc, tmp_path, capsys)
    assert (code, err) == (cli.EXIT_OK, "")
    assert [row[0] for row in rows[1:4]] == ["T_m", "P_m", "C_inf"]


def test_cli_case1_linear_inflow_sells_over_long_steps(tmp_path, capsys):
    # The demand's quadrature over [0, 250000] missed the sales in the first
    # hundred time units, and C printed 0; scipy's quad gives 578.630771.
    doc = {"model": {"kind": "bpq", "case": "case1", "N": 1000, "b": 0.3, "c": 0.1,
                     "a": {"kind": "linear", "a0": 0.1, "a1": 0.01}},
           "horizon": 1e6, "samples": 5}
    code, rows, _ = cli_output("simulate", doc, tmp_path, capsys)
    assert code == cli.EXIT_OK
    sales = [float(row[rows[0].index("C")]) for row in rows[1:]]
    assert sales[0] == 0.0
    assert sales[1:] == pytest.approx([578.630771] * 4, rel=1e-9)


def test_cli_case1_exp_decay_quit_rate_at_a_tiny_horizon(tmp_path, capsys):
    # (a0 / beta) (1 - e^(-beta t)) cancelled at t = 1e-9, and the weight's
    # quadrature on [-5e-10, 0] hit the subdivision limit (exit 3).
    mpmath = pytest.importorskip("mpmath")
    doc = {"model": {"kind": "bpq", "case": "case1", "N": 1000, "a": 1000,
                     "b": {"kind": "exp_decay", "a0": 1.0, "beta": 0.3}},
           "horizon": 1e-9, "samples": 3}
    code, rows, _ = cli_output("simulate", doc, tmp_path, capsys)
    assert code == cli.EXIT_OK
    with mpmath.workdps(40):
        def quits(x):
            return -mpmath.expm1(-mpmath.mpf(0.3) * x) / mpmath.mpf(0.3)

        for row in rows[2:]:
            t = mpmath.mpf(float(row[0]))
            exact = mpmath.quad(lambda u: 1000 * 1000 * mpmath.exp(-1000 * u - quits(t)
                                                                    + quits(u)), [0, t])
            assert float(row[rows[0].index("P")]) == pytest.approx(float(exact), rel=1e-8)


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def test_csv_shape_and_values():
    s = scenario.parse_scenario({"model": {"kind": "simple", "a": math.log(2.0) / 5.0},
                                 "horizon": 10.0, "samples": 3})
    text = scenario.render_csv(scenario.simulate_scenario(s))
    lines = text.split("\n")
    assert lines[0] == "t,u,D"
    assert text.endswith("\n") and "\r" not in text
    rows = [line.split(",") for line in lines[1:4]]
    assert [float(r[0]) for r in rows] == [0.0, 5.0, 10.0]
    assert float(rows[0][1]) == 0.0
    assert float(rows[1][1]) == pytest.approx(0.5, abs=1e-9)
    assert float(rows[2][1]) == pytest.approx(0.75, abs=1e-9)


def test_csv_significant_digits():
    assert scenario.format_value(1 / 3) == "0.333333333"
    assert scenario.format_value(0.0) == "0"
    assert scenario.format_value(123456789.123) == "123456789"


def test_csv_output_channel_selection():
    s = scenario.parse_scenario({"model": {"kind": "simple", "a": 0.5},
                                 "horizon": 2.0, "samples": 3, "outputs": ["D"]})
    traj = scenario.simulate_scenario(s)
    text = scenario.render_csv(traj, s.outputs)
    assert text.split("\n")[0] == "t,D"
    # Channels appear in the declared order, not the trajectory's.
    text = scenario.render_csv(traj, ["D", "u"])
    assert text.split("\n")[0] == "t,D,u"


def test_csv_conservation_audit():
    doc = {"model": {"kind": "bpq", "case": "case2", "beta": 0.002, "b": 0.5,
                     "N": 1000.0, "P0": 10.0}, "horizon": 30.0, "samples": 60}
    text = scenario.render_csv(scenario.simulate_scenario(scenario.parse_scenario(doc)))
    header = text.split("\n")[0].split(",")
    assert header == ["t", "B", "P", "Q", "D", "C"]
    for line in text.strip().split("\n")[1:]:
        _, b, p, q, _, _ = map(float, line.split(","))
        assert b + p + q == pytest.approx(1000.0, abs=1e-6)


# Values whose 9-digit rendering has edge cases: signed zeros, infinities,
# nan, subnormals, the extremes of the float range, integers and booleans.
_EDGE_VALUES = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                2.2250738585072014e-308, 1.7976931348623157e308, -1e300, 1e-300)
_VALUES = st.one_of(
    st.floats(allow_subnormal=True),
    st.sampled_from(_EDGE_VALUES),
    st.integers(-2 ** 1000, 2 ** 1000),
    st.booleans())


@st.composite
def _trajectories(draw):
    width = draw(st.integers(1, 4))
    times = sorted(set(draw(st.lists(st.floats(allow_nan=False, allow_subnormal=True),
                                     min_size=1, max_size=6))))
    rows = [tuple(draw(_VALUES) for _ in range(width)) for _ in times]
    return Trajectory(tuple(times), tuple(zip(*rows)), tuple(f"c{k}" for k in range(width)))


def _reference_csv(traj, outputs, delimiter):
    labels = list(outputs) if outputs else list(traj.labels)
    lines = [delimiter.join(["t"] + labels)]
    for k, t in enumerate(traj.times):
        values = [t] + [traj.columns[traj.labels.index(label)][k] for label in labels]
        lines.append(delimiter.join(format(float(v), ".9g") for v in values))
    return "\n".join(lines) + "\n"


@settings(max_examples=300)
@given(_trajectories(), st.data(), st.sampled_from([",", "\t"]))
def test_csv_matches_a_reference_rendering(traj, data, delimiter):
    # Any subset of the channels, in any order; the empty subset means all.
    outputs = data.draw(st.lists(st.sampled_from(traj.labels), unique=True))
    assert (scenario.render_csv(traj, outputs, delimiter)
            == _reference_csv(traj, outputs, delimiter))


@settings(max_examples=25, deadline=None)
@given(st.integers(200, 3000), st.integers(1, 6), st.integers(0, 2 ** 32),
       st.sampled_from([",", "\t"]), st.data())
def test_csv_of_a_long_trajectory_matches_a_reference_rendering(rows, width, seed, delimiter,
                                                                  data):
    # Hundreds to thousands of rows: values drawn from a seeded generator,
    # mostly ordinary doubles of any exponent, with the edge cases mixed in.
    rng = random.Random(seed)

    def value():
        if rng.random() < 0.05:
            return rng.choice(_EDGE_VALUES)
        return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-300, 300)

    times = time_grid(0.0, rng.uniform(1e-6, 1e6), rows)
    labels = tuple(f"c{k}" for k in range(width))
    rows = [tuple(value() for _ in labels) for _ in times]
    traj = Trajectory(times, tuple(zip(*rows)), labels)
    outputs = data.draw(st.lists(st.sampled_from(labels), unique=True))
    assert (scenario.render_csv(traj, outputs, delimiter)
            == _reference_csv(traj, outputs, delimiter))


@pytest.mark.parametrize("delimiter", ["%", "%%", ";%s;", "%.9g", "%(t)s"])
def test_csv_with_a_percent_sign_in_the_delimiter(delimiter):
    traj = Trajectory((0.0, 0.5, 1.0), ((1.0, 2.5e-7, 1e300), (-0.0, math.inf, 3.0)),
                      ("u", "D"))
    text = scenario.render_csv(traj, ["D", "u"], delimiter)
    assert text == _reference_csv(traj, ["D", "u"], delimiter)
    assert text.splitlines()[0] == f"t{delimiter}D{delimiter}u"


def test_run_is_deterministic_in_process():
    s = scenario.parse_scenario(SIMPLE_DOC)
    a = scenario.render_csv(scenario.simulate_scenario(s))
    b = scenario.render_csv(scenario.simulate_scenario(s))
    assert a == b


# ---------------------------------------------------------------------------
# reference tables
# ---------------------------------------------------------------------------

def test_latency_u0_table_rows():
    rows = tables.latency_u0_table(5.0)
    got = {row.u0: row.ratio for row in rows}
    assert got[0.02] == pytest.approx(0.4354, abs=1e-4)
    assert got[0.01] == pytest.approx(0.52, abs=0.01)
    notes = {row.u0: row.footnote for row in rows if row.footnote}
    assert list(notes) == [0.001]
    assert "0.67" in notes[0.001] and "0.68" in notes[0.001]


def test_latency_kernels_table_rows():
    rows = {r.label: r for r in tables.latency_kernels_table(5.0)}
    assert rows["no feedback"].t10_formatted.startswith("9 months")
    assert rows["1/u"].t10_over_t50 == pytest.approx(0.02775, abs=5e-4)
    assert rows["u^2"].footnote is not None
    assert "0.88" in rows["u^2"].footnote and "0.90" in rows["u^2"].footnote


def test_tables_are_recomputed_not_embedded():
    # Different anchors rescale every entry, which rules out baked-in text.
    five = tables.latency_kernels_table(5.0)
    ten = tables.latency_kernels_table(10.0)
    for r5, r10 in zip(five, ten):
        assert r10.t10_over_t50 == pytest.approx(r5.t10_over_t50, rel=1e-9)
    assert tables.latency_u0_table(10.0)[0].t10_formatted != \
        tables.latency_u0_table(5.0)[0].t10_formatted


def test_duration_formatting():
    assert tables.format_duration(0.75) == "9 months"
    assert tables.format_duration(1.0) == "1 year"
    assert tables.format_duration(5 / 9 / 5) is not None
    assert tables.format_duration(0.0) == "0 days"


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def test_calibrate_simple():
    out = dict(scenario.calibrate({"model": {"kind": "simple"},
                                   "targets": {"T50": 5.0}}))
    assert out["a"] == pytest.approx(0.1386, abs=1e-4)


def test_calibrate_case1():
    out = dict(scenario.calibrate({"model": {"kind": "bpq", "case": "case1"},
                                   "targets": {"T_m": 1.0, "ratio": 2.0}}))
    assert out["a_plus_c"] == pytest.approx(math.log(4.0), rel=1e-12)


def test_calibrate_sir_round_trip():
    case = games.Case2(beta=0.002, b=0.5, N=1000.0, P0=10.0)
    rel = games.sir_relations(case)
    t_m = games._clock_peak(case).T_m
    out = dict(scenario.calibrate({
        "model": {"kind": "bpq", "case": "case2", "N": 1000.0, "P0": 10.0},
        "targets": {"T_m": t_m, "P_Tm": rel.P_Tm}}))
    assert out["b"] == pytest.approx(0.5, rel=0.01)
    assert out["beta"] == pytest.approx(0.002, rel=0.01)


# P0 = 1e-9 exited 3 (the time integral's quadrature hit its subdivision
# limit) and P0 = 0 exited 1 (a ZeroDivisionError).
@pytest.mark.parametrize("p0,code", [(1e-9, cli.EXIT_OK), (0.0, cli.EXIT_VALIDATION)])
def test_cli_calibrate_sir_with_a_tiny_seed(p0, code, tmp_path, capsys):
    doc = {"model": {"kind": "bpq", "case": "case2", "N": 1000, "P0": p0},
           "targets": {"T_m": 5, "P_Tm": 300}}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["calibrate", str(path)]) == code
    if code == cli.EXIT_OK:
        found = dict(scenario.calibrate(doc))  # unrounded
        case = games.Case2(beta=found["beta"], b=found["b"], N=1000.0, P0=p0)
        assert games._clock_peak(case).T_m == pytest.approx(5.0, rel=1e-12)
        assert games.sir_relations(case).P_Tm == pytest.approx(300.0, rel=1e-9)
    else:
        assert "P(0) > 0" in capsys.readouterr().err


@pytest.mark.parametrize("command,model,targets,most", [
    ("metrics", {"case": "case2", "beta": 0.002, "b": 0.5, "P0": 10}, None, 3),
    ("calibrate", {"case": "case2", "P0": 10}, {"T_m": 8.0, "P_Tm": 300.0}, 1),
    ("metrics", {"case": "case4", "beta": 0.002, "gamma": 0.003, "P0": 10, "Q0": 10}, None, 2),
], ids=["case2-metrics", "case2-calibrate", "case4-metrics"])
def test_one_quit_clock_per_question(command, model, targets, most, tmp_path, capsys,
                                     monkeypatch):
    # The path, the peak and case 2's state rows each build one clock; the
    # calibration builds one for its unit-time peak.
    built = [0]
    init = games._QuitClock.__init__

    def counted(self, case):
        built[0] += 1
        init(self, case)

    monkeypatch.setattr(games._QuitClock, "__init__", counted)
    doc = {"model": {"kind": "bpq", "N": 1000, **model}}
    doc.update({"targets": targets} if targets else {"horizon": 30.0, "samples": 50})
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.main([command, str(path)]) == cli.EXIT_OK
    assert capsys.readouterr().out
    assert built[0] <= most


def test_calibrate_infeasible_targets():
    with pytest.raises(CalibrationInfeasibleError) as exc:
        scenario.calibrate({
            "model": {"kind": "bpq", "case": "case2", "N": 1000.0, "P0": 10.0},
            "targets": {"T_m": 3.0, "P_Tm": 1500.0}})
    assert "N" in str(exc.value) or "below" in str(exc.value)


def test_calibrate_feedback_infeasible_start():
    with pytest.raises(CalibrationInfeasibleError):
        scenario.calibrate({"model": {"kind": "feedback",
                                      "kernel": {"kind": "linear"}, "u0": 0.6},
                            "targets": {"T50": 5.0}})


# T50 = 0 ended in a ZeroDivisionError traceback; the infinite rates printed
# with exit 0; u0 = "x" was reported, then read as 0, and u0 = -0.5 was taken;
# an unknown or missing bpq case was reported at $.model.kind as 'bpq'.
@pytest.mark.parametrize("model,targets,code,message", [
    ({"kind": "simple"}, {"T50": 0}, cli.EXIT_CALIBRATION, "T50 must be positive"),
    ({"kind": "simple"}, {"T50": 1e-320}, cli.EXIT_CALIBRATION, "not finite"),
    ({"kind": "simple"}, {"T50": 1.7e308}, cli.EXIT_CALIBRATION, "the mean wait 1/a overflows"),
    ({"kind": "simple", "u0": -1e308}, {"T50": 5}, cli.EXIT_VALIDATION, "$.model.u0"),
    ({"kind": "bpq", "case": "case1"}, {"T_m": 1e-320, "ratio": 2}, cli.EXIT_CALIBRATION,
     "a_plus_c = inf"),
    ({"kind": "simple", "u0": "x"}, {"T50": 5}, cli.EXIT_VALIDATION, "$.model.u0"),
    ({"kind": "simple", "u0": -0.5}, {"T50": 5}, cli.EXIT_VALIDATION, "$.model.u0"),
    ({"kind": "simple", "u0": 0.5}, {"T50": 5}, cli.EXIT_CALIBRATION, "50%"),
    ({"kind": "bpq", "case": "case3"}, {"T_m": 1}, cli.EXIT_VALIDATION,
     "[unknown_kind] at $.model.case: expected one of case1|case2, found 'case3'"),
    ({"kind": "bpq"}, {"T_m": 1}, cli.EXIT_VALIDATION, "[missing_field] at $.model.case"),
], ids=["T50_zero", "T50_subnormal", "T50_huge", "u0_huge", "T_m_subnormal", "u0_string", "u0_negative",
        "u0_half", "bpq_case3", "bpq_no_case"])
def test_cli_calibrate_rejects_what_it_cannot_solve(model, targets, code, message, tmp_path,
                                                    capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"model": model, "targets": targets}))
    assert cli.main(["calibrate", str(path)]) == code
    out, err = capsys.readouterr()
    assert out == "" and message in err


# A calibrated rate is one that simulate takes: T50 = 1.7e308 printed
# a = 4.07733636e-309, whose mean wait 1/a overflows, with exit 0.
@given(st.floats(min_value=1.0, max_value=sys.float_info.max))
def test_a_calibrated_simple_rate_simulates(tmp_path_factory, t50):
    folder = tmp_path_factory.mktemp("calibrated")
    targets = folder / "targets.json"
    targets.write_text(json.dumps({"model": {"kind": "simple"}, "targets": {"T50": t50}}))
    table = folder / "table.csv"
    code = cli.main(["calibrate", str(targets), "--out", str(table)])
    assert code in (cli.EXIT_OK, cli.EXIT_CALIBRATION)
    if code == cli.EXIT_OK:
        a = float(table.read_text().splitlines()[1].split(",")[1])
        doc = folder / "doc.json"
        doc.write_text(json.dumps({"model": {"kind": "simple", "a": a},
                                   "horizon": 1.0, "samples": 3}))
        out = folder / "out.csv"
        assert cli.main(["simulate", str(doc), "--out", str(out)]) == cli.EXIT_OK


def test_calibrate_rejects_a_document_that_is_not_an_object():
    with pytest.raises(ScenarioValidationError) as exc:
        scenario.calibrate([])
    assert [i.path for i in exc.value.issues] == ["$.model", "$.targets"]


# ---------------------------------------------------------------------------
# CLI end to end
# ---------------------------------------------------------------------------

def test_cli_simulate_and_exit_codes(tmp_path):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(SIMPLE_DOC))
    proc = run_cli("simulate", str(path))
    assert proc.returncode == 0
    assert proc.stdout.startswith(b"t,u,D\n")

    out_file = tmp_path / "series.csv"
    assert run_cli("simulate", str(path), "--out", str(out_file)).returncode == 0
    assert out_file.read_bytes() == proc.stdout

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"model": {"kind": "simple", "a": -1.0},
                               "horizon": 5.0}))
    assert run_cli("simulate", str(bad)).returncode == 2

    degenerate = tmp_path / "degenerate.json"
    degenerate.write_text(json.dumps({
        "model": {"kind": "spontaneous_churn", "m": [1.0, 1.0, 1.0],
                  "a": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.5, 0.3, 0.0]]},
        "horizon": 10.0}))
    assert run_cli("equilibrium", str(degenerate)).returncode == 3

    infeasible = tmp_path / "infeasible.json"
    infeasible.write_text(json.dumps({
        "model": {"kind": "bpq", "case": "case2", "N": 1000.0, "P0": 10.0},
        "targets": {"T_m": 3.0, "P_Tm": 1500.0}}))
    assert run_cli("calibrate", str(infeasible)).returncode == 4


def test_cli_metrics_surfaces_discrepancy_notes(tmp_path):
    path = tmp_path / "quad.json"
    path.write_text(json.dumps({
        "model": {"kind": "feedback", "kernel": {"kind": "quadratic"},
                  "T50": 5.0, "u0": 0.01}, "horizon": 25.0, "samples": 11}))
    proc = run_cli("metrics", str(path))
    assert proc.returncode == 0
    text = proc.stdout.decode()
    assert "0.88" in text and "0.90" in text
    assert "note," in text


def test_cli_tables(tmp_path):
    proc = run_cli("tables", "latency_u0")
    assert proc.returncode == 0
    assert b"0.44" in proc.stdout
    assert b"0.67" in proc.stdout and b"0.68" in proc.stdout
    proc = run_cli("tables", "latency_kernels")
    assert proc.returncode == 0
    assert b"9 months" in proc.stdout
    assert b"1 month 20 days" in proc.stdout


def test_cli_fallback_notes_surface_in_metrics(tmp_path):
    doc = {"model": {"kind": "spontaneous_churn", "m": [0.0, 0.0],
                     "a": [[0.0, 0.4], [0.7, 0.0]]},
           "horizon": 5.0, "samples": 11}
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("metrics", str(path))
    assert proc.returncode == 0
    assert b"note," in proc.stdout and b"numerically" in proc.stdout


def test_cli_equilibrium_with_attached_churn(tmp_path):
    doc = {"model": {"kind": "bass_competition", "m": [1.0, 0.8], "r": [0.0, 0.0],
                     "u0": [0.0, 0.0],
                     "churn": {"kind": "spontaneous", "a": [[0.0, 0.3], [0.5, 0.0]]}},
           "horizon": 10.0}
    path = tmp_path / "churny.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("equilibrium", str(path))
    assert proc.returncode == 0
    assert b"0.625" in proc.stdout


def test_cli_equilibrium_without_baseline_churn_is_a_validation_error(tmp_path):
    path = tmp_path / "still.json"
    path.write_text(json.dumps({"model": {"kind": "periodic_churn", "a12_0": 0.0,
                                          "a21_0": 0.0, "u1_0": 0.2}, "horizon": 5.0}))
    proc = run_cli("equilibrium", str(path))
    assert proc.returncode == 2
    assert b"must not both vanish" in proc.stderr and b"Traceback" not in proc.stderr


def test_cli_tsv_format(tmp_path):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(SIMPLE_DOC))
    proc = run_cli("simulate", str(path), "--format", "tsv")
    assert proc.stdout.startswith(b"t\tu\tD\n")


def test_cli_batch_jobs_order(tmp_path):
    batch = [dict(SIMPLE_DOC, name="first"),
             dict(SIMPLE_DOC, name="second")]
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(batch))
    out1 = run_cli("simulate", str(path), "--jobs", "1").stdout
    out4 = run_cli("simulate", str(path), "--jobs", "4").stdout
    assert out1 == out4
    assert out1.index(b"# first") < out1.index(b"# second")


def test_repeated_cli_calls_print_what_a_fresh_process_prints(tmp_path, capsys, monkeypatch):
    # The parser is built once per process; no call may leave state behind
    # for the next, whatever the subcommand, format, sample count or sink.
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage text to the terminal
    simple, market = tmp_path / "simple.json", tmp_path / "market.json"
    simple.write_text(json.dumps(SIMPLE_DOC))
    market.write_text(json.dumps({"model": {"kind": "feedback",
                                            "kernel": {"kind": "bass", "ratio": 2.0},
                                            "T50": 5.0, "u0": 0.01},
                                  "horizon": 20.0, "samples": 7, "outputs": ["D"]}))
    calls = [
        ["simulate", str(simple)],
        ["metrics", str(market), "--format", "tsv"],
        ["simulate", str(market), "--samples", "4"],
        ["equilibrium", str(market), "--format", "tsv"],
        ["tables", "latency_u0"],
        ["simulate", str(simple), "--format", "tsv", "--samples", "3"],
        ["simulate", str(simple), "--format", "xml"],
        ["metrics", str(tmp_path / "missing.json")],
        ["metrics", str(simple)],
    ]
    fresh = [run_cli(*argv) for argv in calls]
    for repeat in range(2):
        for k in (range(len(calls)) if repeat == 0 else reversed(range(len(calls)))):
            out = tmp_path / f"out-{repeat}-{k}.txt"
            to_file = (k + repeat) % 2 == 1
            try:
                code = cli.main(calls[k] + (["--out", str(out)] if to_file else []))
            except SystemExit as exc:
                code = exc.code
            printed = capsys.readouterr()
            if to_file:
                assert printed.out == ""
                text = out.read_text(encoding="utf-8") if out.exists() else ""
            else:
                text = printed.out
            assert (code, text, printed.err) == (fresh[k].returncode, fresh[k].stdout.decode(),
                                                 fresh[k].stderr.decode())
