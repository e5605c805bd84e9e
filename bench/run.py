#!/usr/bin/env python3
"""Benchmark of the marketdyn command line, driven from one process.

Run it from the root of a checkout:

    python3 bench/run.py --workload closed_form_catalog --seed 1 --seconds 20 --trace 0

One operation is one in-process ``marketdyn.cli.main([...])`` call on a
generated document (see ``workloads.py``), writing its result with
``--out``. Operations run in a closed loop with one client: the next one
starts when the previous one has returned, in shuffled passes over the
workload's pool.

Untraced runs (``--trace 0``) split ``--seconds`` of closed loop into
``ROUNDS`` rounds. After each round come the other samples: one
``python -m marketdyn metrics`` subprocess on a closed-form scenario
(``cold_start_ms``), one more set-up in a fresh benchmark process
(``setup_s``), and after some rounds a ``metrics <batch> --jobs
<nproc>`` call, the way a parameter sweep runs (``batch_s`` in the host
record).

A set-up is the time from the start of the benchmark process to the
point where its first timed operation could start: the imports, the
generation of the workload's documents and a warm-up with two cheap
calls. The run's own set-up is the first sample; each other
one is a ``--setup-only`` run of this script, which sets up the same
way, reports its time and exits. ``setup_s`` is the median of these
samples, all of one kind.

``batch_s`` is context, not an end-to-end metric: its thread pool runs
on both CPUs, and on a shared host its time follows the load on the
second one, which changes over minutes (its median moved by up to 35%
between otherwise steady runs).

On a shared host the same code runs at different speeds in phases of
seconds to minutes (a fixed pure-Python reference loop takes about
11 ms in a fast phase and 16 to 18 ms in a slow one). Spreading every
kind of sample over the whole run, and reporting medians, averages
those phases within a run instead of letting one phase decide a
metric. The reference loop is timed between operations and reported in
the host record, so that a slow phase can be told apart from a
regression; it is context, not an end-to-end metric.

The closed loop runs until ``--seconds`` have passed and at least
``MIN_TIMED_OPS`` operations completed, so that well over ten lie
beyond the 90th percentile.

Traced runs (``--trace 1``) call every operation untraced and then
traced (see ``tracing.py``), pass after pass, and report the per-layer
metrics of a pass plus the tracing overhead.

Correctness is checked outside the timed phases: each operation's exit
code, byte-identical output across repetitions, and agreement with an
independent scipy reference (``oracle.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``attempted`` and
``failed`` count the distinct operations of the pool; an operation fails
when any of its calls raised, returned another exit code than expected,
or gave output that failed the correctness check. ``correct`` is false
when an output that was produced is wrong (not reproducible, or off the
reference), or when the generator, batch or cold-start path is not
deterministic; an operation that merely exits with an unexpected code
counts in ``failed`` only.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

ROUNDS = 7
BATCH_ROUNDS = (0, 3, 6)
PROBE_EVERY_S = 1.0
SUBPROCESS_TIMEOUT_S = 60
#: 150 rather than the 100 that p90 needs, for a steadier p50 and p90 where ops are long.
MIN_TIMED_OPS = 150
TRACE_BATCH_REPEATS = 3


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def import_program():
    """Import ``marketdyn.cli`` from this checkout's sources."""
    cli = importlib.import_module("marketdyn.cli")
    if Path(cli.__file__).resolve().parent != (SRC / "marketdyn").resolve():
        raise RuntimeError(f"imported marketdyn from {cli.__file__}, not from {SRC}")
    return cli


def call(cli, argv: list[str]) -> tuple[object, int]:
    """One in-process CLI call: (exit code or exception text, wall ns)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter_ns()
        try:
            code = cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
            code = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter_ns() - start
    return code, elapsed


def reference_loop_ms() -> float:
    """Wall ms of a fixed pure-Python loop: a probe of the host's current speed."""
    start = time.perf_counter_ns()
    acc = 0
    for i in range(150_000):
        acc += i * i % 7
    return (time.perf_counter_ns() - start) / 1e6


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(directory)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digest_and_remove(path: Path) -> str:
    """Digest of a repeated call's output file, which is then deleted.

    Repeated calls write fresh files rather than overwrite the first one:
    on ext4, truncating a file and writing it again forces its data to
    disk when it is closed, and that I/O would be timed with the op.
    """
    found = digest(path)
    path.unlink()
    return found


class Run:
    """State of one benchmark run over one workload and seed."""

    def __init__(self, workload: str, seed: int, seconds: float, traced: bool):
        self.workload_name = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.work = WORK / f"run-{os.getpid()}"
        self.cli = None
        self.w: workloads.Workload | None = None
        self.dir: Path | None = None
        self.inputs_digest = ""
        self.batch_digest = ""
        self.problems: list[str] = []       # wrong or irreproducible outputs
        self.fail_reason: dict[int, str] = {}
        self.calls: list[int] = []
        self.digests: list[set] = []
        self.samples: dict[str, list[float]] = {"setup_s": [], "batch_s": [],
                                                "cold_start_ms": []}
        self.metrics: dict[str, tuple[float, str]] = {}
        self.host: dict = {}

    # -- set-up -------------------------------------------------------------

    def setup(self) -> None:
        """Import, generate and warm up, timed from the start of the process."""
        self.cli = import_program()
        self.w = workloads.generate(self.workload_name, self.seed)
        self.dir = self.work / "pool"
        self.w.write(self.dir)
        self.warm_up()
        self.samples["setup_s"].append(time.perf_counter() - _PROCESS_START)
        self.inputs_digest = tree_digest(self.dir / "in")
        self.calls = [0] * len(self.w.ops)
        self.digests = [set() for _ in self.w.ops]

    def warm_up(self) -> None:
        """``simulate`` and ``metrics`` once each on the cold-start document.

        That document is a closed-form scenario, so the warm-up costs the
        same on every workload and seed. The package imports every module up
        front, so a warm-up on the workload's own ops, some of which take
        half a second, would warm nothing more.
        """
        for command in ("simulate", "metrics"):
            call(self.cli, [command, str(self.dir / "cold.json"),
                            "--out", str(self.dir / "out" / f"warm-{command}.txt")])

    # -- operations ---------------------------------------------------------

    def run_op(self, index: int) -> int:
        """Run one pool op and record its outcome; returns its wall ns."""
        op = self.w.ops[index]
        first = self.calls[index] == 0
        self.calls[index] += 1
        out = self.output(op) if first else self.dir / "out" / f"{op.name}.{self.calls[index]}"
        code, elapsed = call(self.cli, op.argv(self.dir / "in", out))
        if code != op.expected_exit:
            self.fail_reason.setdefault(index, f"exit {code!r}, expected {op.expected_exit}")
        elif code == 0:
            if out.is_file():
                self.digests[index].add(digest(out) if first else digest_and_remove(out))
            else:
                self.fail_reason.setdefault(index, "exit 0 without an output file")
        return elapsed

    def output(self, op: workloads.Op) -> Path:
        """Output file of an op's first call, which the reference check reads."""
        return self.dir / "out" / f"{op.name}.txt"

    def timed_loop(self) -> None:
        rng = random.Random(f"order:{self.workload_name}:{self.seed}")
        order: list[int] = []
        op_ms: list[float] = []
        probes: list[float] = []
        loop_s = 0.0
        round_p50: list[float] = []
        for round_index in range(ROUNDS):
            gc.collect()
            start = time.perf_counter()
            end = start + self.seconds / ROUNDS
            next_probe = start
            probe_s = 0.0
            last_round = round_index == ROUNDS - 1
            round_start = len(op_ms)
            while True:
                now = time.perf_counter()
                if now >= end and not (last_round and len(op_ms) < MIN_TIMED_OPS):
                    break
                if now >= next_probe:
                    probes.append(reference_loop_ms())
                    probe_s += probes[-1] / 1e3
                    next_probe = time.perf_counter() + PROBE_EVERY_S
                if not order:
                    order = list(range(len(self.w.ops)))
                    rng.shuffle(order)
                op_ms.append(self.run_op(order.pop()) / 1e6)
            loop_s += time.perf_counter() - start - probe_s
            round_p50.append(statistics.median(op_ms[round_start:]))
            self.cold_start_sample()
            self.setup_sample()
            if round_index in BATCH_ROUNDS:
                self.batch_sample()
        self.metrics["op_ms_p50"] = (statistics.median(op_ms), "ms")
        self.metrics["op_ms_p90"] = (percentile(op_ms, 90), "ms")
        self.metrics["ops_per_s"] = (len(op_ms) / loop_s, "1/s")
        for name, unit in (("setup_s", "s"), ("cold_start_ms", "ms")):
            self.metrics[name] = (statistics.median(self.samples[name]), unit)
        self.host.update(
            batch_s_median=statistics.median(self.samples["batch_s"]),
            pool_ops=len(self.w.ops), timed_ops=len(op_ms), timed_wall_s=loop_s,
            ref_loop_ms_median=statistics.median(probes),
            ref_loop_ms_min=min(probes), ref_loop_ms_max=max(probes),
            ref_loop_samples=len(probes), round_op_ms_p50=round_p50, samples=self.samples)

    def traced_loop(self) -> None:
        """Untraced then traced call of every op, pass after pass."""
        tracer = tracing.Tracer()
        passes = []
        plain_ms: list[float] = []
        traced_ms: list[float] = []
        start = time.perf_counter()
        pass_s = 0.0
        while not passes or time.perf_counter() - start + pass_s <= self.seconds:
            pass_start = time.perf_counter()
            before = tracer.snapshot()
            for index in range(len(self.w.ops)):
                plain_ms.append(self.run_op(index) / 1e6)
                tracer.op_id += 1
                tracer.install()
                try:
                    traced_ms.append(self.run_op(index) / 1e6)
                finally:
                    tracer.uninstall()
            after = tracer.snapshot()
            passes.append((after[0] - before[0], after[1] - before[1]))
            tracer.keep_spans = False
            pass_s = time.perf_counter() - pass_start
        if any(counts != passes[0][1] for _, counts in passes):
            self.problems.append("trace: counts differ between passes of the same ops")
        per_pass = [tracing.layer_metrics(self_ns, counts) for self_ns, counts in passes]
        for name, (_, unit) in per_pass[0].items():
            self.metrics[name] = (statistics.median(m[name][0] for m in per_pass), unit)
        self.metrics["trace.overhead_ms"] = (
            statistics.median(traced_ms) - statistics.median(plain_ms), "ms")
        cpu_ratios = []
        for _ in range(TRACE_BATCH_REPEATS):
            cpu = time.process_time()
            wall = self.batch_sample()
            cpu_ratios.append((time.process_time() - cpu) / wall)
        self.metrics["batch.cpu_over_wall"] = (statistics.median(cpu_ratios), "ratio")
        self.host.update(trace_passes=len(passes), traced_op_ms_p50=statistics.median(traced_ms),
                         untraced_op_ms_p50=statistics.median(plain_ms),
                         self_time_shares=tracing.self_time_shares(passes[0][0]),
                         note=tracing.NOT_WRAPPED)
        self.write_spans(tracer)

    def write_spans(self, tracer: tracing.Tracer) -> None:
        traces = WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        path = traces / f"{self.workload_name}-seed{self.seed}.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["op", "span", "parent", "name", "start_ns",
                                            "end_ns"], "note": tracing.NOT_WRAPPED}) + "\n")
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        self.host["trace_file"] = str(path.relative_to(ROOT))

    # -- set-up, batch and cold start ---------------------------------------

    def setup_sample(self) -> None:
        """Set-up time of a fresh benchmark process on the same workload and seed."""
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", self.workload_name,
             "--seed", str(self.seed), "--seconds", "0", "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)
        if proc.returncode != 0:
            self.problems.append(f"set-up: exit {proc.returncode}")
            return
        found = json.loads(proc.stdout.strip().split("\n")[-1])
        if found["inputs_digest"] != self.inputs_digest:
            self.problems.append("generator: the same seed gave different documents")
        self.samples["setup_s"].append(found["setup_s"])

    def batch_sample(self) -> float:
        """One ``metrics --jobs`` call over the batch; returns its wall seconds."""
        out = self.dir / "out" / f"batch-{len(self.samples['batch_s'])}.txt"
        code, elapsed = call(self.cli, ["metrics", str(self.dir / "batch.json"),
                                        "--jobs", str(nproc()), "--out", str(out)])
        if code != 0:
            self.problems.append(f"batch: exit {code!r}")
        else:
            found = digest_and_remove(out)
            self.batch_digest = self.batch_digest or found
            if found != self.batch_digest:
                self.problems.append("batch: output differs between repetitions")
        self.samples["batch_s"].append(elapsed / 1e9)
        self.host["batch_scenarios"] = len(self.w.batch)
        return elapsed / 1e9

    def cold_start_sample(self) -> None:
        cold = self.dir / "cold.json"
        expected = self.dir / "out" / "cold-inprocess.txt"
        if not expected.is_file():
            code, _ = call(self.cli, ["metrics", str(cold), "--out", str(expected)])
            if code != 0:
                self.problems.append(f"cold start: in-process exit {code!r}")
        out = self.dir / "out" / f"cold-{len(self.samples['cold_start_ms'])}.txt"
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "marketdyn", "metrics", str(cold), "--out", str(out)],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
            timeout=SUBPROCESS_TIMEOUT_S)
        self.samples["cold_start_ms"].append((time.perf_counter() - start) * 1e3)
        if proc.returncode != 0 or digest_and_remove(out) != digest(expected):
            self.problems.append(f"cold start: exit {proc.returncode} or different output")

    # -- correctness --------------------------------------------------------

    def repeat_uncovered(self) -> None:
        """Every op runs at least twice, so its outputs can be compared."""
        for index in range(len(self.w.ops)):
            while self.calls[index] < 2:
                self.run_op(index)
        for index, found in enumerate(self.digests):
            if len(found) > 1:
                self.fail_reason.setdefault(index, "output differs between repetitions")
                self.problems.append(f"{self.w.ops[index].name}: output not reproducible")

    def check(self) -> None:
        import oracle  # scipy and numpy stay out of the timed phases and the RSS figure

        for index, op in enumerate(self.w.ops):
            if op.expected_exit != 0 or index in self.fail_reason:
                continue
            text = self.output(op).read_text(encoding="utf-8")
            try:
                problems = oracle.check(op, text)
            except Exception as exc:  # noqa: BLE001 - an unreadable output is a miss
                problems = [f"output could not be checked: {type(exc).__name__}: {exc}"]
            if problems:
                self.fail_reason[index] = "reference: " + "; ".join(problems[:3])
                self.problems.append(f"{op.name}: {problems[0]}")

    # -- whole run ----------------------------------------------------------

    def execute(self) -> dict:
        try:
            self.setup()
            if self.traced:
                self.traced_loop()
            else:
                self.timed_loop()
                self.metrics["peak_rss_mb"] = (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
            self.repeat_uncovered()
            self.check()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        attempted = len(self.w.ops)
        failed = len(self.fail_reason)
        if not self.traced:
            self.metrics["op_fail_ratio"] = (failed / attempted, "ratio")
        self.host.update(python=platform.python_version(),
                         implementation=platform.python_implementation(), nproc=nproc(),
                         workload=self.workload_name, seed=self.seed,
                         failed_ops={self.w.ops[i].name: reason
                                     for i, reason in sorted(self.fail_reason.items())},
                         problems=self.problems)
        return {"correct": not self.problems, "attempted": attempted, "failed": failed,
                "metrics": {name: {"value": value, "unit": unit}
                            for name, (value, unit) in self.metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time as JSON and exit")
    args = parser.parse_args(argv)
    if not (SRC / "marketdyn" / "__init__.py").is_file():
        print(f"error: no marketdyn sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.setup_only:
        try:
            run.setup()
        finally:
            shutil.rmtree(run.work, ignore_errors=True)
        print(json.dumps({"setup_s": run.samples["setup_s"][0],
                          "inputs_digest": run.inputs_digest}))
        return 0
    result = run.execute()
    for name, (value, unit) in run.metrics.items():
        print(f"{name:45s} {value:14.6g} {unit}")
    print("host " + json.dumps(run.host, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
