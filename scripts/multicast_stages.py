#!/usr/bin/env python3
"""Time each stage of the benchmark's multicast session, per feasible session.

The sessions are those of ``perfbench/workloads.py``'s ``Multicast`` pool
for the seed given; the infeasible triangles are left out. Every feasible
session runs R rounds; each stage's time for a session is its minimum over
the rounds, and the script prints, per stage, the mean of those minima over
the sessions, in microseconds:

* ``op``: the whole benchmark op, checks included, for reference;
* ``parse_network``: the network text to a ``Network``;
* ``edge_disjoint_paths``: the max-flow paths of every sink;
* ``_classes``: the union-find over those paths' (sink, path) pairs;
* ``labelling``: ``_labelling``, the colouring of those classes and each
  sink's row;
* ``build_schedule``: on the parsed network, the three stages above and
  the ``Schedule`` constructor included;
* ``Schedule``: the constructor alone, on the built schedule's fields;
* ``simulate``: encode, one decode and the sink reports;
* ``encode`` and ``decode``: the two codec calls ``simulate`` makes;
* ``min_eavesdrop_paths``: the audit of the first sink's partition.

Usage, from a repository checkout:

    python3 scripts/multicast_stages.py                  # seed 0, 30 rounds
    python3 scripts/multicast_stages.py --seed 2 --rounds 10
    python3 scripts/multicast_stages.py --quick          # 2 rounds, a smoke run

It imports ``perfbench/workloads.py`` for the session pool and edits
nothing; it exits 1 if a stage returns a wrong result. Stdlib only.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import xorcode as xc  # noqa: E402
from xorcode import network  # noqa: E402
from workloads import Multicast  # noqa: E402


def session_calls(work: Multicast, index: int) -> dict:
    """Each stage of session ``index`` as a call with no arguments, in print order."""
    text, n, f, p, _, mode = work.sessions[index]
    net = xc.parse_network(text)
    sched = xc.build_schedule(net, n)
    sink_paths = [xc.edge_disjoint_paths(net, t) for t in net.sinks]
    sink_classes = network._classes(sink_paths)
    fields = {fld.name: getattr(sched, fld.name) for fld in dataclasses.fields(sched)}
    _, schemes = work.designs[p * f]
    scheme, block = schemes[mode], work.blocks[p * f]
    coded = xc.encode(scheme, block)
    arrived = [coded[i - 1] for phase in zip(*sched.assignment[0]) for i in phase]  # as simulate
    part = xc.PathPartition.from_sequences(sched.assignment[0])
    if xc.decode(arrived, scheme.n, block.original_len).packets != block.packets:
        sys.exit(f"session {index}: decode does not recover the block")
    if xc.Schedule(**fields) != sched:
        sys.exit(f"session {index}: the Schedule constructor does not rebuild the schedule")
    if network._labelling(sink_classes, f, p) != sched.assignment:
        sys.exit(f"session {index}: the labelling does not give the schedule's rows")
    position = work.plan.index(index)
    return {
        "op": lambda: work.op(position),
        "parse_network": lambda: xc.parse_network(text),
        "edge_disjoint_paths": lambda: [xc.edge_disjoint_paths(net, t) for t in net.sinks],
        "_classes": lambda: network._classes(sink_paths),
        "labelling": lambda: network._labelling(sink_classes, f, p),
        "build_schedule": lambda: xc.build_schedule(net, n),
        "Schedule": lambda: xc.Schedule(**fields),
        "simulate": lambda: xc.simulate(net, sched, scheme, block),
        "encode": lambda: xc.encode(scheme, block),
        "decode": lambda: xc.decode(arrived, scheme.n, block.original_len),
        "min_eavesdrop_paths": lambda: xc.min_eavesdrop_paths(schemes["balanced_decode"], part),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    ap.add_argument("--rounds", type=int, default=30, help="rounds per session (default 30)")
    ap.add_argument("--quick", action="store_true", help="2 rounds: checks that every stage runs")
    args = ap.parse_args(argv)
    rounds = 2 if args.quick else args.rounds
    if rounds < 1:
        ap.error("--rounds must be >= 1")
    work = Multicast(args.seed)
    work.setup()
    feasible = [i for i, session in enumerate(work.sessions) if session[-1] is not None]
    calls = [session_calls(work, i) for i in feasible]
    best = [dict.fromkeys(stages, float("inf")) for stages in calls]
    clock = time.perf_counter
    for _ in range(rounds):
        for stages, mins in zip(calls, best):
            for name, call in stages.items():
                start = clock()
                call()
                mins[name] = min(mins[name], clock() - start)
    print(f"multicast seed {args.seed}: {len(feasible)} feasible sessions, min of {rounds} rounds, "
          f"Python {sys.version.split()[0]}")
    print(f"{'stage':<22}{'us/session':>11}{'share of op':>13}")
    whole = sum(mins["op"] for mins in best) / len(best)
    for name in best[0]:
        mean = sum(mins[name] for mins in best) / len(best)
        print(f"{name:<22}{mean * 1e6:>11.1f}{mean / whole:>12.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
