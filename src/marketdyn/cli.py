"""Deterministic command-line front end.

Subcommands: ``simulate`` (CSV time series), ``metrics`` (metric block),
``tables`` (recomputed reference tables), ``calibrate`` (parameters from
strategic targets) and ``equilibrium`` (asymptotic market state).

Exit codes: 0 success, 2 validation error, 3 numeric failure,
4 infeasible calibration.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import lazy_submodule, scenario
from .errors import (
    CalibrationInfeasibleError,
    MarketDynError,
    ParameterError,
    ScenarioValidationError,
)

tables = lazy_submodule("tables")

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_CALIBRATION = 4


def _read_document(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ScenarioValidationError([scenario.ValidationIssue(
            "missing_field", "$", "a readable file", repr(path))])
    except json.JSONDecodeError as exc:
        raise ScenarioValidationError([scenario.ValidationIssue(
            "bad_type", "$", "valid JSON", f"parse error: {exc}")])


def _load_scenarios(path: str) -> list[scenario.Scenario]:
    data = _read_document(path)
    if isinstance(data, list):
        return [scenario.parse_scenario(item) for item in data]
    return [scenario.parse_scenario(data)]


def _write(out_path: str | None, text: str) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _delimiter(fmt: str) -> str:
    return "\t" if fmt == "tsv" else ","


def _run_batch(args, render) -> int:
    """Render every scenario of the file in order; label blocks when there are several."""
    scenarios = _load_scenarios(args.file)
    if args.samples is not None:
        scenarios = [scenario.Scenario(**{**s._asdict(), "samples": args.samples})
                     for s in scenarios]
    blocks = [render(s, _delimiter(args.format)) for s in scenarios]
    if len(scenarios) > 1:
        blocks = [f"# {s.name or f'scenario {idx + 1}'}\n{block}"
                  for idx, (s, block) in enumerate(zip(scenarios, blocks))]
    _write(args.out, "".join(blocks))
    return EXIT_OK


def cmd_simulate(args) -> int:
    return _run_batch(args, lambda s, delimiter: scenario.render_csv(
        scenario.simulate_scenario(s), s.outputs, delimiter))


def cmd_metrics(args) -> int:
    return _run_batch(args, lambda s, delimiter: scenario.render_metrics(
        scenario.run_scenario(s), delimiter))


def cmd_tables(args) -> int:
    if args.which == "latency_u0":
        _write(args.out, tables.render_latency_u0())
    else:
        _write(args.out, tables.render_latency_kernels())
    return EXIT_OK


def cmd_calibrate(args) -> int:
    results = scenario.calibrate(_read_document(args.file))
    _write(args.out, scenario.render_table("parameter", results, _delimiter(args.format)))
    return EXIT_OK


def cmd_equilibrium(args) -> int:
    delimiter = _delimiter(args.format)
    blocks = [scenario.render_table("quantity", scenario.equilibrium(s), delimiter)
              for s in _load_scenarios(args.file)]
    _write(args.out, "".join(blocks))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: it holds no per-call state."""
    parser = argparse.ArgumentParser(
        prog="marketdyn",
        description="Solve dynamic market models and emit deterministic CSV")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "tsv"), default="csv")
        p.add_argument("--samples", type=int, default=None,
                       help="override the sample count (default from file, else 1000)")
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted for compatibility; batch scenarios always run "
                            "one after another, in input order")

    p_sim = sub.add_parser("simulate", help="run a scenario file, emit the time series")
    p_sim.add_argument("file")
    common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_met = sub.add_parser("metrics", help="run a scenario file, emit the metrics block")
    p_met.add_argument("file")
    common(p_met)
    p_met.set_defaults(func=cmd_metrics)

    p_tab = sub.add_parser("tables", help="recompute a reference table")
    p_tab.add_argument("which", choices=("latency_u0", "latency_kernels"))
    common(p_tab)
    p_tab.set_defaults(func=cmd_tables)

    p_cal = sub.add_parser("calibrate", help="solve model parameters from targets")
    p_cal.add_argument("file")
    common(p_cal)
    p_cal.set_defaults(func=cmd_calibrate)

    p_eq = sub.add_parser("equilibrium", help="asymptotic market state of a scenario")
    p_eq.add_argument("file")
    common(p_eq)
    p_eq.set_defaults(func=cmd_equilibrium)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioValidationError as exc:
        for issue in exc.issues:
            print(f"error {issue}", file=sys.stderr)
        return EXIT_VALIDATION
    except ParameterError as exc:
        print(f"error [invariant] {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except CalibrationInfeasibleError as exc:
        print(f"error [calibration] {exc}", file=sys.stderr)
        return EXIT_CALIBRATION
    except MarketDynError as exc:
        print(f"error [numeric] {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
