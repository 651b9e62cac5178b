#!/usr/bin/env python3
"""Time the Jacobson-Matthews walk of ``xorcode.latin``, one sample at a time.

A sample is one ``next()`` of ``latin._jm_walk(n, 12345 + n, n^2)``: n^2
accepted moves, about n^3 raw steps. Each round starts that walk afresh and
times its first S samples, so every round does the same work; S is
max(3, 500 // n), 10 samples at n = 50, 5 at n = 100 and 3 at n = 200. The
script prints, for each n, the median over rounds of a round's mean time a
sample, with the lowest and highest round, and that median divided by the
mean raw steps a sample. It counts the raw steps (one draw each) in a
separate, untimed pass of the same samples. There is no time threshold:
the line is for comparing trees and Python versions on one machine.

Usage, with xorcode importable (installed, or PYTHONPATH=src):

    python scripts/walk_timing.py                      # n = 50, 100, 200, 3 rounds
    python scripts/walk_timing.py --n 16 50 --rounds 9
    python scripts/walk_timing.py --quick              # n = 16, 2 rounds

To compare two trees, run it with each tree's ``src`` on PYTHONPATH in
turn, alternating, several times.
"""

from __future__ import annotations

import argparse
import platform
import random
import statistics
import time
from types import SimpleNamespace

from xorcode import latin


class CountingRandom(random.Random):
    """random.Random that counts its random() and getrandbits() calls."""

    draws = 0

    def random(self):
        self.draws += 1
        return super().random()

    def getrandbits(self, k):
        self.draws += 1
        return super().getrandbits(k)


def samples_a_round(n: int) -> int:
    return max(3, 500 // n)


def raw_steps(n: int, samples: int) -> int:
    """Draws, hence raw steps, of the walk's first ``samples`` samples."""
    made = []

    def counting(seed):
        made.append(CountingRandom(seed))
        return made[-1]

    saved = latin.random
    latin.random = SimpleNamespace(Random=counting)
    try:
        walk = latin._jm_walk(n, 12345 + n, n * n)
        for _ in range(samples):
            next(walk)
    finally:
        latin.random = saved
    return made[0].draws


def round_seconds(n: int, samples: int) -> float:
    """Mean seconds a sample over one fresh walk's first ``samples`` samples."""
    walk = latin._jm_walk(n, 12345 + n, n * n)
    total = 0.0
    for _ in range(samples):
        t0 = time.perf_counter()
        next(walk)
        total += time.perf_counter() - t0
    return total / samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, nargs="+", default=[50, 100, 200], help="orders to time")
    parser.add_argument("--rounds", type=int, default=3, help="fresh walks an order (default 3)")
    parser.add_argument("--quick", action="store_true", help="n = 16, 2 rounds")
    args = parser.parse_args(argv)
    orders, rounds = ([16], 2) if args.quick else (args.n, args.rounds)
    if rounds < 1 or min(orders) < 3:
        parser.error("--rounds must be at least 1 and every --n at least 3")
    print(f"Python {platform.python_version()} ({platform.python_implementation()})")
    for n in orders:
        samples = samples_a_round(n)
        steps = raw_steps(n, samples) / samples
        times = [round_seconds(n, samples) for _ in range(rounds)]
        med = statistics.median(times)
        print(
            f"n={n} samples={rounds}x{samples} raw_steps_a_sample={steps:.0f} "
            f"ms_a_sample={med * 1e3:.3f} [{min(times) * 1e3:.3f}, {max(times) * 1e3:.3f}] "
            f"ns_a_raw_step={med / steps * 1e9:.1f}",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
