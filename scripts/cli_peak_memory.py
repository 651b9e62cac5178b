#!/usr/bin/env python3
"""Peak memory of the CLI's bulk path, as a multiple of the file it codes.

Writes a random file, then runs ``gen``, ``encode`` and ``decode`` each as
its own ``python -m xorcode.cli`` process in a temporary directory, checks
that the decoded file equals the input byte for byte, and prints each
process's peak resident set size in MiB and its CPU seconds, user plus
system, both from ``os.wait4``. The multiple
of the file size is taken above the footprint of the interpreter with
xorcode imported (``python -m xorcode.cli --help``, about 17 MiB), so that
it counts the bytes a command holds for the file. It then runs ``simulate``
on a one-edge chain at a large packet count, once in each mode, where the
default design, an (n-1)- or (n-2)-row rectangle, is what the process holds,
and prints each mode's peak and CPU time too.

Usage, with xorcode importable (installed, or PYTHONPATH=src):

    python scripts/cli_peak_memory.py           # a 64 MiB file; simulate at n=2000
    python scripts/cli_peak_memory.py --quick   # an 8 MiB file; simulate at n=1000

Exits non-zero if a command fails or the round trip differs; it sets no
memory or time threshold.
"""

from __future__ import annotations

import argparse
import filecmp
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

PACKETS = 32
MiB = 1 << 20
CHAIN = "source s\nsink t\nedge s t\n"


def run(*args: str) -> tuple[int, float]:
    """Run one CLI command to completion; return its peak RSS in bytes and CPU seconds."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "xorcode.cli", *args], stdout=subprocess.DEVNULL
    )
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        sys.exit(f"{args[0]} exited {proc.returncode}")
    # ru_maxrss is in KiB on Linux, in bytes on macOS.
    peak = usage.ru_maxrss if sys.platform == "darwin" else usage.ru_maxrss * 1024
    return peak, usage.ru_utime + usage.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="an 8 MiB file, not 64 MiB; simulate at n=1000, not 2000",
    )
    args = parser.parse_args()
    size = (8 if args.quick else 64) * MiB
    chain_n = 1000 if args.quick else 2000
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        src, out = work / "input.bin", work / "output.bin"
        # Written a MiB at a time: a child's peak starts from this process's
        # own high-water mark, so this process must stay small.
        rng = random.Random(0)
        with src.open("wb") as f:
            for _ in range(size // MiB):
                f.write(rng.randbytes(MiB))
        base = run("--help")[0]
        peaks = {
            "gen": run("gen", "-n", str(PACKETS), "--seed", "0", "-o", str(work / "design")),
            "encode": run(
                "encode", "-r", str(work / "design" / "rectangle.txt"),
                "-i", str(src), "-o", str(work / "coded"),
            ),
            "decode": run(
                "decode", "-m", str(work / "coded" / "manifest.txt"), "-o", str(out),
                *sorted(str(p) for p in (work / "coded").glob("packet_*.bin")),
            ),
        }
        if not filecmp.cmp(src, out, shallow=False):
            sys.exit("decoded file differs from the input")
        (work / "chain.txt").write_text(CHAIN, encoding="utf-8")
        chain = {
            mode: run(
                "simulate", "--network", str(work / "chain.txt"), "-n", str(chain_n),
                "--mode", mode, "-o", str(work / "sim"),
            )
            for mode in ("direct", "balanced_decode")
        }
    print(f"round trip ok: {size // MiB} MiB file, n={PACKETS}")
    print(f"interpreter with xorcode imported: {base / MiB:.1f} MiB")
    for name, (peak, cpu) in peaks.items():
        print(
            f"{name:6} peak RSS {peak / MiB:7.1f} MiB = "
            f"{(peak - base) / size:.2f}x the file above the interpreter, CPU {cpu:.2f} s"
        )
    for mode, (peak, cpu) in chain.items():
        print(
            f"simulate peak RSS {peak / MiB:7.1f} MiB, CPU {cpu:.2f} s "
            f"on a one-edge chain at n={chain_n}, --mode {mode}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
