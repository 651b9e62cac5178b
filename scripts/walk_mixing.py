#!/usr/bin/env python3
"""Measure how well the Jacobson-Matthews walk of ``xorcode.latin`` mixes.

No mixing-time bound is known for the walk (Jacobson & Matthews, J. Combin.
Des. 1996), so its default length of n^2 accepted moves rests on these
checks, each run at several walk lengths:

* agreement: the share of cells that still hold their symbol of the cyclic
  start square after ``moves`` accepted moves, mean over seeds +- its
  standard error. A uniform square agrees in 1/n of its cells.
* chi2: ``jm_generate(n, seed, moves)`` counted over seeds 0..N-1 against
  the full enumeration of the order-n squares (12 at order 3, 576 at order
  4), each expected equally often. z is the Wilson-Hilferty normal score of
  chi2 (p < 0.001 above 3.09); worst is the largest cell's deviation in
  standard deviations.
* start class: at order 5, the share of samples isotopic to the cyclic
  start square, that is, whose every pair of rows differs by a 5-cycle,
  against its exact share 17280/161280 from full enumeration (1 df).

The script exits 1 when an exact check fails at n^2 or 2n^2 accepted moves,
the default length and twice it: a chi2 z above 3.09, or a start-class |z|
above 3.09 (two-sided, p < 0.002). At n^2/2 a failure is expected at order
4 and only printed.

Usage, with xorcode importable (installed, or PYTHONPATH=src):

    python scripts/walk_mixing.py           # the README tables, about 60 s
    python scripts/walk_mixing.py --quick   # a tenth of the seeds, about 10 s

The quick run applies the same gate with less power: with fewer seeds a
short walk's bias can pass unseen.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import Counter
from functools import cache
from itertools import combinations
from pathlib import Path

from xorcode.latin import jm_generate

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import enumerate_latin_squares  # noqa: E402  (stdlib + xorcode only)

squares_of_order = cache(enumerate_latin_squares)
Z_FAIL = 3.09  # the normal score of p = 0.001, one-sided


def agreement(n: int, moves: int, seeds: int) -> tuple[float, float]:
    """Mean share of cells holding their start symbol, and its standard error."""
    shares = []
    for seed in range(seeds):
        cells = jm_generate(n, seed, moves).cells
        shares.append(sum(cells[r][c] == (r + c) % n + 1 for r in range(n) for c in range(n)) / n**2)
    mean = sum(shares) / seeds
    var = sum((x - mean) ** 2 for x in shares) / (seeds - 1)
    return mean, math.sqrt(var / seeds)


def chi2_z(chi2: float, df: int) -> float:
    """Wilson-Hilferty: (chi2/df)^(1/3) is about normal with mean 1 - 2/(9df)."""
    v = 2 / (9 * df)
    return ((chi2 / df) ** (1 / 3) - (1 - v)) / math.sqrt(v)


def chi2_uniform(n: int, moves: int, seeds: int) -> tuple[float, int, float, float]:
    """(chi2, df, z, worst deviation in sigma) of the sampled squares against uniform."""
    squares = squares_of_order(n)
    counts = Counter(jm_generate(n, seed, moves).cells for seed in range(seeds))
    assert set(counts) <= set(squares), "the walk left the Latin squares"
    p = 1 / len(squares)
    mean = seeds * p
    sigma = math.sqrt(seeds * p * (1 - p))
    chi2 = sum((counts[sq] - mean) ** 2 for sq in squares) / mean
    df = len(squares) - 1
    worst = max(abs(counts[sq] - mean) for sq in squares) / sigma
    return chi2, df, chi2_z(chi2, df), worst


def in_start_class(cells: tuple[tuple[int, ...], ...]) -> bool:
    """True iff every pair of rows differs by one n-cycle, as in the cyclic square."""
    n = len(cells)
    for a, b in combinations(cells, 2):
        col_of = {s: c for c, s in enumerate(a)}
        c, length = 0, 0
        while True:
            c = col_of[b[c]]
            length += 1
            if c == 0:
                break
        if length != n:
            return False
    return True


def start_class(n: int, moves: int, seeds: int) -> tuple[float, float, float]:
    """(sampled share, exact share, z) of squares isotopic to the start square."""
    squares = squares_of_order(n)
    exact = sum(map(in_start_class, squares)) / len(squares)
    hits = sum(in_start_class(jm_generate(n, seed, moves).cells) for seed in range(seeds))
    z = (hits - seeds * exact) / math.sqrt(seeds * exact * (1 - exact))
    return hits / seeds, exact, z


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true", help="a tenth of the seeds")
    args = parser.parse_args(argv)
    scale = 10 if args.quick else 1
    sys.stdout.reconfigure(encoding="utf-8")  # the tables use ², ± and σ

    print("Start-square agreement, mean ± standard error over seeds, by accepted moves:\n")
    print("| n | seeds | n moves | 4n | n²/2 | n² | n³ | uniform 1/n |")
    print("|---|---|---|---|---|---|---|---|")
    for n, seeds in ((16, 200), (32, 40)):
        seeds //= scale
        cells = []
        for moves in (n, 4 * n, n * n // 2, n * n, n**3):
            mean, se = agreement(n, moves, seeds)
            cells.append(f"{mean:.4f} ± {se:.4f}")
        print(f"| {n} | {seeds} | {' | '.join(cells)} | {1 / n:.4f} |")

    print("\nExact checks against full enumeration, by accepted moves (z > 3.09: p < 0.001):\n")
    print("| order | check | seeds | n²/2 | n² | 2n² |")
    print("|---|---|---|---|---|---|")
    failed = []
    for n, seeds in ((3, 60_000), (4, 100_000)):
        seeds //= scale
        cells = []
        for label, moves in (("n²/2", n * n // 2), ("n²", n * n), ("2n²", 2 * n * n)):
            chi2, df, z, worst = chi2_uniform(n, moves, seeds)
            cells.append(f"χ² {chi2:.1f}, z {z:+.2f}, worst {worst:.2f}σ")
            if label != "n²/2" and z > Z_FAIL:
                failed.append(f"order {n} χ² at {label}: z {z:+.2f}")
        print(f"| {n} | χ², {df} df | {seeds} | {' | '.join(cells)} |")
    n, seeds = 5, 50_000 // scale
    cells = []
    for label, moves in (("n²/2", n * n // 2), ("n²", n * n), ("2n²", 2 * n * n)):
        share, exact, z = start_class(n, moves, seeds)
        cells.append(f"{share:.4f}, z {z:+.2f}")
        if label != "n²/2" and abs(z) > Z_FAIL:
            failed.append(f"order {n} start-class share at {label}: z {z:+.2f}")
    print(f"| {n} | start-class share, exact {exact:.4f} | {seeds} | {' | '.join(cells)} |")
    for line in failed:
        print(f"FAIL: {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
