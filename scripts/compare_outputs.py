#!/usr/bin/env python3
"""Compare what two source trees print for the same command-line calls.

Usage::

    python scripts/compare_outputs.py OLD_TREE NEW_TREE [DOC.json ...]

Each tree is a checkout of this repository (its ``src`` is imported). The
corpus is built once from this script's own checkout:

- the calls of ``tests/test_layout.corpus`` (the traced corpus of the
  layout check);
- every op of the three benchmark workloads at seeds 1-3, built with
  ``bench/workloads.generate``;
- each extra document file given, under ``calibrate`` when it has
  targets and under ``simulate``, ``metrics`` and ``equilibrium``
  otherwise.

Each tree runs the whole corpus in a process of its own, one in-process
``cli.main`` call after another. A call's result is its exit code, stdout,
stderr and the bytes it wrote with ``--out``. A call that raises counts as
exit 1 with ``Traceback: <type>: <message>`` as the tail of its stderr (the
frames are left out, since their paths and lines differ between trees);
one that runs longer than ``CALL_SECONDS`` counts as exit ``timeout``.
The script prints every call whose result differs, then the counts, and
exits 1 if any call differs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
#: Wall seconds after which a call is stopped and counted as ``timeout``.
CALL_SECONDS = 120

#: Runs the calls of a JSON file (argv) in-process and writes one result
#: per call: exit code, stdout and --out digests, stderr text.
WORKER = r"""
import contextlib, hashlib, io, json, os, signal, sys
from marketdyn import cli

calls_path, results_path, seconds = sys.argv[1], sys.argv[2], int(sys.argv[3])

def expired(signum, frame):
    raise TimeoutError

signal.signal(signal.SIGALRM, expired)
results = []
for argv in json.load(open(calls_path)):
    out = argv[argv.index("--out") + 1] if "--out" in argv else None
    if out and os.path.exists(out):
        os.remove(out)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        signal.alarm(seconds)
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except TimeoutError:
            code = "timeout"
        except Exception as exc:
            code = 1
            print(f"Traceback: {type(exc).__name__}: {exc}", file=sys.stderr)
        finally:
            signal.alarm(0)
    written = None
    if out and os.path.exists(out):
        with open(out, "rb") as fh:
            written = hashlib.sha256(fh.read()).hexdigest()
        os.remove(out)
    results.append([code, hashlib.sha256(stdout.getvalue().encode()).hexdigest(),
                    stderr.getvalue(), written])
with open(results_path, "w") as fh:
    json.dump(results, fh)
"""


def corpus(directory: Path, extra: list[Path]) -> list[list[str]]:
    """Argument lists of the whole corpus, with its documents written under ``directory``."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]
    import test_layout
    import workloads

    layout = directory / "layout"
    layout.mkdir()
    calls = test_layout.corpus(layout)
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            w = workloads.generate(name, seed)
            place = directory / f"{name}-{seed}"
            w.write(place)
            calls += [op.argv(place / "in", place / "out" / f"{op.name}.txt") for op in w.ops]
    for k, path in enumerate(extra):
        doc = json.loads(path.read_text())
        copy = directory / f"extra{k}-{path.name}"
        copy.write_text(json.dumps(doc))
        commands = ("calibrate",) if "targets" in doc else ("simulate", "metrics", "equilibrium")
        calls += [[command, str(copy)] for command in commands]
    return calls


def run(tree: Path, calls_path: Path, directory: Path, label: str) -> list:
    results = directory / f"results-{label}.json"
    proc = subprocess.run(
        [sys.executable, "-c", WORKER, str(calls_path), str(results), str(CALL_SECONDS)],
        cwd=directory, env=dict(os.environ, PYTHONPATH=str(tree.resolve() / "src")),
        capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{label} tree {tree}: the worker failed\n{proc.stderr}")
    return json.loads(results.read_text())


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new, extra = Path(argv[0]), Path(argv[1]), [Path(p) for p in argv[2:]]
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        directory = Path(tmp)
        calls = corpus(directory, extra)
        calls_path = directory / "calls.json"
        calls_path.write_text(json.dumps(calls))
        before = run(old, calls_path, directory, "old")
        after = run(new, calls_path, directory, "new")
        differ = 0
        for argv_, a, b in zip(calls, before, after):
            if a == b:
                continue
            differ += 1
            parts = [what for what, x, y in zip(("exit", "stdout", "stderr", "--out"), a, b)
                     if x != y]
            shown = " ".join(arg.replace(tmp, "<corpus>") for arg in argv_)
            print(f"differs ({', '.join(parts)}): {shown}")
            print(f"  exit {a[0]} -> {b[0]}")
            if a[2] != b[2]:
                print(f"  stderr {a[2].strip()[:300]!r} -> {b[2].strip()[:300]!r}")
    print(f"{len(calls)} calls: {len(calls) - differ} same, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
