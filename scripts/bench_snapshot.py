#!/usr/bin/env python3
"""Benchmark snapshots: run the perfbench harness R times and keep the spread.

    python3 scripts/bench_snapshot.py --workload design --runs 10 --seconds 30
    python3 scripts/bench_snapshot.py --compare bench/BENCH_aaaaaaa.json bench/BENCH_bbbbbbb.json

A snapshot runs ``perfbench/run.py --workload W --seconds S --trace 0`` R
times per workload, each in its own interpreter, one after another, and
reads each run's last output line, the harness's JSON result. It writes
``bench/BENCH_<short HEAD>.json`` with the commit, whether tracked files
differ from it, the line count of ``src/xorcode/*.py``, the Python
version, ``os.cpu_count()``, R and S, and per workload: ops attempted and
failed in each run, whether every run was correct, and for each end-to-end
metric its unit, per-run values, median and quartiles. The workloads
default to those of ``BENCHMARK.json``, and S to its ``run_seconds``.

``--compare A B`` prints, per workload and end-to-end metric, B's median
over A's, the metric's bound from ``BENCHMARK.json`` and whether the ratio
is worse than it, and flags the metric when the two sides' quartile ranges
overlap, so that their runs do not tell the two commits apart. It also
prints both library line counts ("?" for a file written without one). Runs
made one side after the other share no machine state; for a claim,
alternate the sides run by run instead.

Stdlib only; run it from a git checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench"


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def _spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method: they stay inside the runs' range)."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def run_once(workload: str, seconds: float) -> dict:
    """One harness run; its last stdout line is the result object."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def library_lines() -> int:
    """Lines in ``src/xorcode/*.py``, as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (ROOT / "src" / "xorcode").glob("*.py"))


def snapshot(workloads: list[str], runs: int, seconds: float) -> dict:
    head = _git("rev-parse", "HEAD")
    result = {
        "head": head,
        "dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "library_lines": library_lines(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "runs": runs,
        "seconds": seconds,
        "workloads": {},
    }
    for workload in workloads:
        results = []
        for i in range(runs):
            results.append(run_once(workload, seconds))
            print(f"{workload} run {i + 1}/{runs}: {json.dumps(results[-1])}", flush=True)
        metrics = {}
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            metrics[name] = {"unit": first["unit"], "values": values, **_spread(values)}
        result["workloads"][workload] = {
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "correct": all(r["correct"] for r in results),
            "metrics": metrics,
        }
    return result


def compare(path_a: Path, path_b: Path, bench: dict) -> list[str]:
    """Lines of B-against-A ratios, one per workload and end-to-end metric."""
    a = json.loads(path_a.read_text(encoding="utf-8"))
    b = json.loads(path_b.read_text(encoding="utf-8"))
    lines = [
        f"A {a['head'][:7]} ({a['runs']} x {a['seconds']:g} s), "
        f"B {b['head'][:7]} ({b['runs']} x {b['seconds']:g} s)",
        f"library lines {a.get('library_lines', '?')} -> {b.get('library_lines', '?')}",
        f"{'workload':<10} {'metric':<12} {'A median':>10} {'B median':>10} "
        f"{'B/A':>7} {'bound':>6}  verdict  quartiles",
    ]
    for workload in sorted(set(a["workloads"]) & set(b["workloads"])):
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        lines.append(
            f"{workload:<10} ops attempted per run {statistics.median(wa['attempted']):g} -> "
            f"{statistics.median(wb['attempted']):g}, failed {sum(wa['failed'])} -> "
            f"{sum(wb['failed'])}, correct {wa['correct']} -> {wb['correct']}"
        )
        for spec in bench["end_to_end"]:
            name = spec["name"]
            if name not in wa["metrics"] or name not in wb["metrics"]:
                continue
            ma, mb = wa["metrics"][name], wb["metrics"][name]
            ratio = mb["median"] / ma["median"]
            worse = ratio < 1 - spec["bound"] if spec["better"] == "higher" else ratio > 1 + spec["bound"]
            overlap = ma["q1"] <= mb["q3"] and mb["q1"] <= ma["q3"]
            lines.append(
                f"{workload:<10} {name:<12} {ma['median']:>10.4g} {mb['median']:>10.4g} "
                f"{ratio:>7.3f} {spec['bound']:>6g}  {'WORSE' if worse else 'ok':<7}  "
                f"{'overlap' if overlap else 'apart'}"
            )
    return lines


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in bench["workloads"]],
                        help="workload to run; repeat for more (default: all)")
    parser.add_argument("--runs", type=int, default=5, help="runs per workload (default 5)")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"],
                        help="length of each run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="print B's medians against A's instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        print("\n".join(compare(*args.compare, bench)))
        return 0
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    result = snapshot(workloads, args.runs, args.seconds)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"BENCH_{result['head'][:7]}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
