"""Model modules that load on first use.

``scenario`` and ``cli`` register ``competition``, ``feedback``, ``games``,
``numerics`` and ``tables`` in ``sys.modules`` without running their
bodies. These tests run in fresh interpreters, since the test process has
loaded every module long before.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest
from test_scenario_cli import ROUND_TRIP_DOCS

from marketdyn import cli, scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = sorted((ROOT / "scenarios").glob("*.json"))

#: Lazily loaded module -> a name its body defines.
LAZY = {"competition": "BassCompetition", "feedback": "feedback_path",
        "games": "bpq_path", "tables": "render_latency_u0"}

# ``python -m marketdyn ARGS...``, then a report on the lazy modules, and on
# whether ``dataclasses`` was imported, on stderr.
RUN_MAIN_THEN_REPORT = """
import json, runpy, sys, types
lazy = json.loads(sys.argv[1])
sys.argv = ["marketdyn"] + sys.argv[2:]
try:
    runpy.run_module("marketdyn", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
report = {}
for name, defined in lazy.items():
    module = sys.modules.get("marketdyn." + name)
    report[name] = None if module is None else {
        "plain_module": type(module) is types.ModuleType,
        "body_ran": defined in object.__getattribute__(module, "__dict__")}
report["dataclasses"] = "dataclasses" in sys.modules
sys.stderr.write(json.dumps([code, report]))
"""

# Four threads behind a barrier parse, run and render the same documents.
THREADS_RUN_DOCUMENTS = """
import json, sys, threading
from marketdyn import scenario
sys.setswitchinterval(1e-6)   # switch threads often, so the first loads overlap
docs = json.loads(sys.argv[1])
barrier = threading.Barrier(4)
results = [None] * 4

def work(index):
    texts = []
    try:
        for doc in docs:
            barrier.wait()
            s = scenario.parse_scenario(doc)
            texts.append(scenario.render_metrics(scenario.run_scenario(s))
                         + scenario.render_csv(scenario.simulate_scenario(s), s.outputs))
    except Exception as exc:
        texts.append(f"{type(exc).__name__}: {exc}")
        barrier.abort()
    results[index] = texts

threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=60)
assert not any(thread.is_alive() for thread in threads)
print(json.dumps(results))
"""

# The tracer of bench/tracing.py builds its wrappers from sys.modules.
TRACER_AFTER_IMPORT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import marketdyn.cli
import tracing
missing = sorted({"marketdyn." + module for module, _ in tracing.LAYERS.values()}
                 - set(sys.modules))
tracing.Tracer()
print(json.dumps(missing))
"""


def _python(script, *args):
    return subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          timeout=120)


def test_simple_run_never_runs_the_other_families(tmp_path):
    path = tmp_path / "simple.json"
    path.write_text(json.dumps({"model": {"kind": "simple", "a": 0.1386, "N": 1000.0},
                                "horizon": 25.0, "samples": 5}))
    proc = _python(RUN_MAIN_THEN_REPORT, json.dumps(LAZY), "simulate", str(path))
    code, report = json.loads(proc.stderr)
    assert code == cli.EXIT_OK
    assert proc.stdout.startswith(b"t,u,D\n0,0,138.6\n")
    for name in LAZY:
        assert report[name] == {"plain_module": False, "body_ran": False}, name


def test_simple_metrics_loads_neither_dataclasses_nor_numerics(tmp_path):
    # Records are named tuples, and a closed form calls nothing in numerics.
    path = tmp_path / "simple.json"
    path.write_text(json.dumps({"model": {"kind": "simple", "a": 0.1386, "N": 1000.0},
                                "horizon": 25.0, "samples": 5}))
    proc = _python(RUN_MAIN_THEN_REPORT, json.dumps({"numerics": "sample_ivp"}),
                   "metrics", str(path))
    code, report = json.loads(proc.stderr)
    assert code == cli.EXIT_OK
    assert proc.stdout.startswith(b"metric,value\na,0.1386\nT50,")
    assert report == {"numerics": {"plain_module": False, "body_ran": False},
                      "dataclasses": False}


def test_first_use_loads_the_module_in_a_fresh_process(tmp_path):
    proc = _python(RUN_MAIN_THEN_REPORT, json.dumps(LAZY), "tables", "latency_u0")
    code, report = json.loads(proc.stderr)
    assert code == cli.EXIT_OK and proc.stdout
    assert report["tables"] == {"plain_module": True, "body_ran": True}
    assert report["feedback"] == {"plain_module": True, "body_ran": True}
    assert report["games"] == {"plain_module": False, "body_ran": False}


CONCURRENT_DOCS = [
    next(d for d in ROUND_TRIP_DOCS if d["model"]["kind"] == "bass_competition"),
    {"model": {"kind": "bpq", "case": "case2", "N": 1000.0, "beta": 0.002, "b": 0.5,
               "P0": 10.0}, "horizon": 30.0},
    {"model": {"kind": "feedback", "kernel": {"kind": "bass", "ratio": 3.0},
               "T50": 5.0, "u0": 0.01}, "horizon": 20.0},
]


def test_concurrent_first_use_gives_the_in_process_bytes():
    docs = [dict(doc, samples=50) for doc in CONCURRENT_DOCS]
    expected = []
    for doc in docs:
        s = scenario.parse_scenario(doc)
        expected.append(scenario.render_metrics(scenario.run_scenario(s))
                        + scenario.render_csv(scenario.simulate_scenario(s), s.outputs))
    proc = _python(THREADS_RUN_DOCUMENTS, json.dumps(docs))
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout) == [expected] * 4


def test_import_of_cli_registers_every_traced_module():
    proc = _python(TRACER_AFTER_IMPORT, str(ROOT / "bench"))
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout) == []


@pytest.mark.parametrize("path", SCENARIOS, ids=[p.stem for p in SCENARIOS])
def test_sample_scenario_in_a_fresh_process(path, capsys):
    command = "calibrate" if "targets" in json.loads(path.read_text()) else "simulate"
    assert cli.main([command, str(path)]) == cli.EXIT_OK
    in_process = capsys.readouterr().out
    proc = subprocess.run([sys.executable, "-m", "marketdyn", command, str(path)],
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode() == in_process
