"""Fast smoke test of the benchmark: every workload path at tiny size, the
output contract of ``run.py``, and the checker on a corrupted row.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_runs_at_tiny_size(workload, traced, tmp_path):
    work = tmp_path / "work"
    work.mkdir()
    result = worker.run(workload, 7, 0.0, traced, work, tiny=True)
    assert result["passes"] == 1
    assert result["statuses"] == {"ok": result["points_per_pass"]}, result["problems"]
    if traced:
        assert set(result["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
        assert result["per_layer"]["trace.spans"] > 0
        lines = Path(result["trace_file"]).read_text().splitlines()
        assert len(lines) == 1 + result["per_layer"]["trace.spans"] + len(
            workloads.prepare(workload, work, 7, tiny=True))


def test_workload_names_match_the_spec():
    assert run.WORKLOADS == workloads.WORKLOADS
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


def test_same_seed_gives_same_inputs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    ops_a = workloads.prepare("sdd-analyze", a, 3, tiny=True)
    ops_b = workloads.prepare("sdd-analyze", b, 3, tiny=True)
    assert [Path(op.matrix).read_text() for op in ops_a] == [
        Path(op.matrix).read_text() for op in ops_b]


def test_corrupted_row_counts_as_failed(tmp_path):
    (op,) = workloads.prepare("relay30-sweep", tmp_path, 0, tiny=True)
    outcome = workloads.execute(op)
    assert [p.status for p in check.check_pass([op], [outcome])] == ["ok"] * 4  # 3 rows, SVG

    lines = Path(op.out).read_text().splitlines()
    fields = lines[1].split(",")
    fields[1] = format(float(fields[2]) - 1e-3, ".9g")  # upper bound below BA capacity
    lines[1] = ",".join(fields)
    Path(op.out).write_text("\n".join(lines) + "\n")

    points = check.check_pass([op], [outcome])
    assert [p.status for p in points] == ["wrong", "ok", "ok", "ok"]
    assert "below BA capacity" in points[0].reason
    statuses = {"ok": 2, "wrong": 1}
    result = {"statuses": statuses, "attempted": 3, "passes": 1, "points_per_pass": 3,
              "problems": [], "env": {}, "peak_rss_mb": 1.0,
              "setup_s": 1.0, "setup_cpu_s": 1.0, "setup_wall_s": 1.0, "wall_s": 1.0,
              "cpu_s": 1.0, "ref_cpu_s": 1.0}
    doc = run.report("relay30-sweep", 0, False, result, SPEC)
    assert (doc["correct"], doc["failed"], doc["attempted"]) == (False, 1, 3)


def test_printed_rounding_is_not_a_violation():
    assert check.parse_printed("2.21585898").slack == pytest.approx(5e-9)
    header = check.SWEEP_HEADER
    row = "0.5,2.21585898,2.21585899,2.3,2.4,2.5,holds,holds,true"
    (point,) = check.check_sweep_csv("s", f"{header}\n{row}\n", (0.4, 0.5, 1), 31)
    assert point.status == "ok", point.reason


def test_run_prints_contract_line():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "paper-sweeps", "--seed", "1",
         "--seconds", "1", "--trace", "0", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    assert set(doc["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in doc["metrics"].values())


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sdd-analyze", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
