"""xorcode benchmark: closed-loop workloads with output checks and optional span tracing.

Run from the repository root:

    python3 perfbench/run.py --workload stream --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

One single-threaded caller runs the workload's ops back to back for
``--seconds``. Set-up (design search, ``make_scheme``, input generation) is
timed on its own, repeated and reported as a median; two warm-up ops run
before the timed loop. Every op's output is checked. A wrong output, an
unexpected exception and an op that exceeds ``OP_CAP_S`` (cut by an
interval-timer signal) count as failed, and the run goes on.

Times are reported at a reference machine speed. The machines this runs on
are shared, and their speed drifts by 20-40 % over seconds to minutes, which
no run length averages out. So a fixed pure-Python probe is timed between
ops (at most every ``PROBE_EVERY_S``) and around every set-up, and each
measured time is scaled by ``REF_PROBE_S / probe time``, using the median of
the last few probes. The probe runs no xorcode code, so a change to the
library moves these numbers as it moves wall time. Raw wall-clock figures
are printed alongside.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the same
untimed-set-up loop, then replays the workload's first ``trace_ops`` ops
under the span tracer and prints per-layer metrics, which cover one traced
set-up plus that fixed replay, so counts repeat exactly for a seed. Spans go
to ``perfbench/out/``. ``--workload all`` runs each workload in its own
interpreter. The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import deque
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "xorcode" / "__init__.py").is_file():
    sys.exit(f"xorcode sources not found under {SRC}; run from a repository checkout")
sys.path.insert(0, str(SRC))

import spans  # noqa: E402
import workloads  # noqa: E402

OP_CAP_S = 5.0
SETUP_REPEATS = 3
WARMUP_OPS = 2
MAX_REPORTED_FAILURES = 5
REF_PROBE_S = 0.003  # probe time that defines reference speed
PROBE_WINDOW = 5
PROBE_EVERY_S = 0.05

END_TO_END = {  # name -> unit, as in BENCHMARK.json
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_MB": "MB",
}
# Printed too, but left out of the JSON: goodput does not apply to ``design``
# and the fail ratio is 0 on a good run; ``failed``/``attempted`` carry it.
PRINTED_ONLY = {"goodput_MBps": "MB/s", "fail_ratio": "ratio"}

PER_LAYER = {
    "latin.find_nonsingular_rectangle.calls": "count",
    "latin.jm_generate.calls": "count",
    "latin.jm_generate.self_s": "s",
    "latin.block_incidence.self_s": "s",
    "latin.search.hit_ratio": "ratio",
    "gf2.determinant.calls": "count",
    "gf2.determinant.self_s": "s",
    "gf2.invert.self_s": "s",
    "gf2.in_rowspan.calls": "count",
    "gf2.in_rowspan.self_s": "s",
    "codec.make_scheme.self_s": "s",
    "codec.encode.self_s": "s",
    "codec.encode.MBps": "MB/s",
    "codec.decode.self_s": "s",
    "codec.decode.MBps": "MB/s",
    "codec.serialize_packet.self_s": "s",
    "codec.deserialize_packet.self_s": "s",
    "codec.decodable_indexes.calls": "count",
    "codec.decodable_indexes.self_s": "s",
    "network.parse_network.self_s": "s",
    "network.max_flow.calls": "count",
    "network.edge_disjoint_paths.self_s": "s",
    "network.build_schedule.calls": "count",
    "network.build_schedule.self_s": "s",
    "network.build_schedule.rejected": "count",
    "network.validate_schedule.self_s": "s",
    "network.simulate.self_s": "s",
    "security.audit.calls": "count",
    "security.check_condition.self_s": "s",
    "security.min_eavesdrop_paths.self_s": "s",
    "security.rowspan_checks_per_audit": "count/audit",
    "trace.overhead_ratio": "ratio",
}

# Share of traced op time each workload must spend in the layer it is meant to
# stress: {workload: [(label, functions, stat, minimum share)]}. build_schedule
# and min_eavesdrop_paths count with their traced callees, since most of the
# audit's time is in gf2.in_rowspan.
STRESS = {
    "stream": [("encode+decode self", ("codec.encode", "codec.decode"), "self_s", 0.70)],
    "design": [("jm_generate self", ("latin.jm_generate",), "self_s", 0.80)],
    "multicast": [
        ("build_schedule total", ("network.build_schedule",), "total_s", 0.15),
        ("min_eavesdrop_paths total", ("security.min_eavesdrop_paths",), "total_s", 0.15),
        ("both total", ("network.build_schedule", "security.min_eavesdrop_paths"), "total_s", 0.50),
    ],
}


class OpTimeout(BaseException):
    """Raised by the interval timer inside an op; BaseException so no library handler eats it."""


def _alarm(signum, frame):
    raise OpTimeout


def probe() -> float:
    """Wall time of a fixed mix of pure-Python work, the machine-speed probe.

    Integer arithmetic, list swaps driven by random draws, and dict/set
    updates: together they track how contention slows the walk, big-int XOR
    and the schedule/audit code alike, where any one of them alone does not.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(10_000):
        acc ^= i * 7
    draw = random.Random(0).random
    cells = list(range(64))
    where = list(range(64))
    for i in range(2_500):
        j, k = int(draw() * 64), i & 63
        a, b = cells[j], cells[k]
        cells[j], cells[k], where[a], where[b] = b, a, k, j
    table, seen = {}, set()
    for i in range(4_000):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) ^ i
        seen.add(key & 255)
    return time.perf_counter() - start


class Speed:
    """Factor from measured seconds to reference seconds, from the latest probes.

    A probe runs when ``PROBE_EVERY_S`` has passed since the last one; machine
    speed holds for seconds at a time, so that is often enough.
    """

    def __init__(self):
        self.recent = deque(maxlen=PROBE_WINDOW)
        self.last = -PROBE_EVERY_S

    def factor(self, probes: int = 1) -> float:
        if time.perf_counter() - self.last >= PROBE_EVERY_S:
            for _ in range(probes):
                self.recent.append(probe())
            self.last = time.perf_counter()
        return REF_PROBE_S / statistics.median(self.recent)


def run_op(wl, i: int) -> tuple[bool, int, float, str | None]:
    """Run op i under the time cap; returns (ok, verified bytes, seconds, failure reason)."""
    cap_s = OP_CAP_S
    previous = signal.signal(signal.SIGALRM, _alarm)
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, cap_s)
            nbytes = wl.op(i)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return True, nbytes, time.perf_counter() - start, None
    except OpTimeout:
        return False, 0, time.perf_counter() - start, f"timed out after {cap_s} s"
    except Exception as exc:  # any other error is a failed op; the run goes on
        return False, 0, time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    finally:
        signal.signal(signal.SIGALRM, previous)


class Loop:
    """Outcome of running ops 0, 1, 2, ... until a time or op-count limit.

    ``durations`` are in reference seconds, ``raw`` in wall seconds. A failed
    op's latency counts as at least the cap, since it missed any limit. With a
    tracer, each op's spans are tagged with the op index.
    """

    def __init__(self, wl, seconds: float, max_ops: int | None = None, tracer=None):
        self.durations: list[float] = []
        self.raw: list[float] = []
        self.ok = self.failed = self.nbytes = 0
        self.reasons: list[str] = []
        speed = Speed()
        start = time.perf_counter()
        i = 0
        while time.perf_counter() - start < seconds and (max_ops is None or i < max_ops):
            factor = speed.factor()
            if tracer is not None:
                tracer.op = i
            ok, nbytes, seconds_taken, reason = run_op(wl, i)
            if not ok:
                seconds_taken = max(seconds_taken, OP_CAP_S)
            self.raw.append(seconds_taken)
            self.durations.append(seconds_taken * factor)
            if ok:
                self.ok += 1
                self.nbytes += nbytes
            else:
                self.failed += 1
                if len(self.reasons) < MAX_REPORTED_FAILURES:
                    self.reasons.append(f"op {i}: {reason}")
            i += 1
        self.seconds = time.perf_counter() - start

    @property
    def attempted(self) -> int:
        return self.ok + self.failed

    @property
    def busy_s(self) -> float:
        """Reference seconds spent in ops."""
        return sum(self.durations)


def percentile(values: list[float], q: int) -> float:
    """q-th percentile, interpolated between the closest ranks."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def warm_up(wl) -> None:
    for i in range(WARMUP_OPS):
        run_op(wl, i)  # the loop repeats these ops, so a failure here still shows there


def end_to_end(name: str, seed: int, seconds: float) -> tuple[dict, list[Loop]]:
    setup_times, setup_raw = [], []
    for _ in range(SETUP_REPEATS):
        wl = workloads.WORKLOADS[name](seed)
        before = Speed().factor(PROBE_WINDOW)
        start = time.perf_counter()
        wl.setup()
        setup_raw.append(time.perf_counter() - start)
        setup_times.append(setup_raw[-1] * (before + Speed().factor(PROBE_WINDOW)) / 2)
    warm_up(wl)
    loop = Loop(wl, seconds)
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": loop.ok / loop.busy_s,
        "op_p50_ms": 1000 * percentile(loop.durations, 50),
        "op_p90_ms": 1000 * percentile(loop.durations, 90),
        "peak_rss_MB": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "goodput_MBps": loop.nbytes / loop.busy_s / 1e6,
        "fail_ratio": loop.failed / loop.attempted,
    }
    print(f"{name}: {loop.attempted} ops in {loop.seconds:.3f} s wall; raw wall clock: "
          f"set-up {statistics.median(setup_raw):.4f} s, {loop.ok / sum(loop.raw):.4g} ops/s, "
          f"p50 {1000 * percentile(loop.raw, 50):.4g} ms, p90 {1000 * percentile(loop.raw, 90):.4g} ms")
    for metric, unit in {**END_TO_END, **PRINTED_ONLY}.items():
        if metric == "goodput_MBps" and not loop.nbytes:
            print(f"{name} {metric} = n/a (no payload)")
        else:
            print(f"{name} {metric} = {values[metric]:.6g} {unit}")
    return {m: {"value": values[m], "unit": u} for m, u in END_TO_END.items()}, [loop]


def layer_values(span_list: list, overhead: float) -> dict:
    summary = spans.summarize(span_list)
    search = summary["latin.find_nonsingular_rectangle"]
    designs = search["calls"] - sum(search["errors"].values())
    walks = spans.count_under(span_list, "latin.jm_generate", "latin.find_nonsingular_rectangle")
    audits = summary["security.audit"]["calls"]
    checks = spans.count_under(span_list, "gf2.in_rowspan", "security.audit")
    values = {
        "latin.search.hit_ratio": designs / walks if walks else 0.0,
        "network.build_schedule.rejected": summary["network.build_schedule"]["errors"]["ScheduleError"],
        "security.rowspan_checks_per_audit": checks / audits if audits else 0.0,
        "trace.overhead_ratio": overhead,
    }
    for metric in PER_LAYER:
        if metric in values:
            continue
        qualname, key = metric.rsplit(".", 1)
        entry = summary[qualname]
        if key == "MBps":
            values[metric] = entry["bytes"] / entry["self_s"] / 1e6 if entry["self_s"] else 0.0
        else:
            values[metric] = entry[key]
    return values


def traced(name: str, seed: int, seconds: float) -> tuple[dict, list[Loop]]:
    wl = workloads.WORKLOADS[name](seed)
    tracer = spans.Tracer()
    tracer.op = "setup"
    with tracer:
        wl.setup()
    warm_up(wl)
    untraced = Loop(wl, seconds)
    first_replay_span = len(tracer.spans)
    with tracer:
        replay = Loop(wl, 2 * seconds, wl.trace_ops, tracer)
    m = min(len(untraced.durations), len(replay.durations))
    values = layer_values(tracer.spans, sum(replay.durations[:m]) / sum(untraced.durations[:m]))
    if replay.attempted < wl.trace_ops:
        print(f"{name}: replay cut at {replay.attempted} of {wl.trace_ops} ops by its time limit")
    if tracer.absent:
        print(f"{name}: absent, reported as 0: {', '.join(tracer.absent)}")
    for metric, unit in PER_LAYER.items():
        print(f"{name} {metric} = {values[metric]:.6g} {unit}")
    replay_summary = spans.summarize(tracer.spans, first_replay_span)
    for label, functions, key, minimum in STRESS[name]:
        share = sum(replay_summary[f][key] for f in functions) / sum(replay.raw)
        verdict = "pass" if share >= minimum else "FAIL"
        print(f"{name} stress {label}: {share:.1%} of traced op time (need {minimum:.0%}) {verdict}")
    tracer.write(ROOT / "perfbench" / "out" / f"{name}-seed{seed}.jsonl")
    return {m: {"value": values[m], "unit": u} for m, u in PER_LAYER.items()}, [untraced, replay]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
            for name in workloads.WORKLOADS
        ]
        return max(codes)
    library = Path(workloads.xc.__file__).resolve()
    if SRC.resolve() not in library.parents:
        sys.exit(f"imported xorcode from {library}, not from {SRC}")
    measure = traced if args.trace else end_to_end
    metrics, loops = measure(args.workload, args.seed, args.seconds)
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    for loop in loops:
        for reason in loop.reasons:
            print(f"{args.workload}: failed {reason}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
