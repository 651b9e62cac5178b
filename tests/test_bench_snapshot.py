"""scripts/bench_snapshot.py: the --compare verdicts and the snapshot's correctness gate."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("bench_snapshot", ROOT / "scripts" / "bench_snapshot.py")
bench_snapshot = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_snapshot)
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def metric(values):
    return {"unit": "", "values": values, **bench_snapshot._spread(values)}


def snapshot_file(path, head, metrics):
    path.write_text(json.dumps({
        "head": head, "runs": 5, "seconds": 30,
        "workloads": {"multicast": {
            "attempted": [10] * 5, "failed": [0] * 5, "correct": True,
            "metrics": {name: metric(values) for name, values in metrics.items()},
        }},
    }), encoding="utf-8")
    return path


def test_compare_prints_worse_unresolved_and_ok(tmp_path):
    a = snapshot_file(tmp_path / "a.json", "a" * 40, {
        "ops_per_s": [100, 101, 102, 103, 104],
        "op_p50_ms": [1.0, 1.01, 1.02, 1.03, 1.04],
        "setup_s": [1.0, 1.5, 2.0, 2.5, 3.0],  # spread 0.5 against a 0.25 bound
        "op_p90_ms": [4.0, 5.0, 6.0, 7.0, 8.0],
    })
    b = snapshot_file(tmp_path / "b.json", "b" * 40, {
        "ops_per_s": [50, 51, 52, 53, 54],
        "op_p50_ms": [1.0, 1.01, 1.02, 1.03, 1.04],
        "setup_s": [1.0, 1.5, 2.0, 2.5, 3.0],
        "op_p90_ms": [1.0, 1.5, 2.0, 2.5, 3.0],  # as wide, but every run beats every A run
    })
    rows = [line.split() for line in bench_snapshot.compare(a, b, BENCH)]
    # A metric's row: workload, metric, A median, B median, B/A, bound, verdict, quartiles.
    verdicts = {row[1]: row[6] for row in rows if row[0] == "multicast" and row[1] != "ops"}
    assert verdicts == {
        "ops_per_s": "WORSE", "setup_s": "unresolved", "op_p50_ms": "ok", "op_p90_ms": "ok",
    }


@pytest.mark.parametrize("correct, attempted, code", [(True, 10, 0), (False, 10, 1), (True, 0, 1)])
def test_snapshot_exits_1_on_a_wrong_or_empty_workload(
    tmp_path, monkeypatch, capsys, correct, attempted, code
):
    def workload(correct, attempted):
        return {"attempted": [10, attempted], "failed": [0, 0], "correct": correct, "metrics": {}}

    def fake_snapshot(workloads, runs, seconds):
        return {"head": "c" * 40, "workloads": {
            "stream": workload(True, 10), "multicast": workload(correct, attempted),
        }}

    monkeypatch.setattr(bench_snapshot, "snapshot", fake_snapshot)
    monkeypatch.setattr(bench_snapshot, "OUT_DIR", tmp_path)
    assert bench_snapshot.main(["--runs", "2"]) == code
    assert (tmp_path / "BENCH_ccccccc.json").exists()
    err = capsys.readouterr().err
    assert err == ("" if code == 0 else "wrong output or no op attempted: multicast\n")
