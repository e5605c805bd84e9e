"""Self-tests of the benchmark harness.

Run from the root of a checkout: ``python3 -m pytest -q bench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_documents(name, tmp_path):
    workloads.generate(name, 7).write(tmp_path / "a")
    workloads.generate(name, 7).write(tmp_path / "b")
    workloads.generate(name, 8).write(tmp_path / "c")
    assert run.tree_digest(tmp_path / "a") == run.tree_digest(tmp_path / "b")
    assert run.tree_digest(tmp_path / "a") != run.tree_digest(tmp_path / "c")


def test_oracle_flags_a_perturbed_value(tmp_path):
    sys.path.insert(0, str(run.SRC))
    cli = run.import_program()
    w = workloads.generate("ode_fallback_mix", 3)
    w.write(tmp_path)
    op = next(o for o in w.ops if o.family == "spontaneous_churn")
    out = tmp_path / "out" / f"{op.name}.txt"
    code, _ = run.call(cli, op.argv(tmp_path / "in", out))
    assert code == 0
    text = out.read_text()
    assert oracle.check(op, text) == []
    lines = text.split("\n")
    cells = lines[len(lines) // 2].split(",")
    cells[1] = repr(float(cells[1]) * (1.0 + 1e-4))
    lines[len(lines) // 2] = ",".join(cells)
    assert oracle.check(op, "\n".join(lines))


@pytest.fixture
def inversion_run():
    sys.path.insert(0, str(run.SRC))
    r = run.Run("inversion_mix", 1, 0.0, traced=False)
    r.setup()
    yield r
    shutil.rmtree(r.work, ignore_errors=True)


def test_known_defects_count_as_failed_ops(inversion_run):
    r = inversion_run
    defects = {i: op for i, op in enumerate(r.w.ops) if op.known_defect}
    assert {op.family for op in defects.values()} == {
        "feedback/power_near_saturation", "malformed/non_finite"}
    for index in defects:
        r.run_op(index)
    reasons = {r.w.ops[i].family: reason for i, reason in r.fail_reason.items()}
    assert reasons["feedback/power_near_saturation"] == "exit 3, expected 0"
    assert reasons["malformed/non_finite"].startswith("exit 'raised ValueError")


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().split("\n")[-1])


def test_untraced_run_reports_every_end_to_end_metric(capsys):
    assert run.main(["--workload", "closed_form_catalog", "--seed", "2",
                     "--seconds", "0.2", "--trace", "0"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    result = json.loads(lines[-1])
    host = json.loads(lines[-2].removeprefix("host "))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert result["failed"] == len(host["failed_ops"])
    assert metrics["op_fail_ratio"] == result["failed"] / result["attempted"]
    assert all(value > 0 for name, value in metrics.items() if name != "op_fail_ratio")


def test_traced_counts_repeat_for_a_seed(capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    counts = []
    for _ in range(2):
        assert run.main(["--workload", "closed_form_catalog", "--seed", "3",
                         "--seconds", "0.1", "--trace", "1"]) == 0
        metrics = last_json(capsys.readouterr().out)["metrics"]
        assert set(metrics) == {m["name"] for m in spec["per_layer"]}
        counts.append({k: v["value"] for k, v in metrics.items()
                       if v["unit"] in ("count", "bytes") and "per" not in k})
    assert counts[0] == counts[1]
    assert counts[0]["numerics.solve_root.g_evals"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "inversion_mix",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
