"""Command-line front end: gen, encode, decode, simulate, audit.

Only gen searches: it draws its design from --seed and prints the seed.
simulate checks delivery with a fixed design and payload. Repeated invocations
are byte-identical. Exit codes: 0 success, 1 domain error (singular design,
infeasible schedule, rank deficit), 2 usage, parse or file error.
"""

from __future__ import annotations

import argparse
import io
import random
import sys
from pathlib import Path

from . import codec, latin, network, security
from .errors import CodingError, ParseError
from .gf2 import invert


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _packet_count(text: str) -> int:
    """-n: a positive int that fits the packet wire format's u16 index."""
    value = _positive_int(text)
    if value > codec._U16_MAX:
        raise argparse.ArgumentTypeError(
            f"must be at most {codec._U16_MAX}, the u16 packet index limit, got {value}"
        )
    return value


def _load_rectangle(path: str) -> latin.LatinRectangle:
    return latin.LatinRectangle.from_text(Path(path).read_text(encoding="utf-8"))


def cmd_gen(args) -> int:
    rect, matrix = latin.find_nonsingular_rectangle(
        args.packets, args.rows, seed=args.seed, max_retries=args.max_retries, moves=args.moves
    )
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "rectangle.txt").write_text(rect.to_text(), encoding="utf-8")
    (outdir / "incidence.txt").write_text(matrix.to_text(), encoding="utf-8")
    (outdir / "inverse.txt").write_text(invert(matrix).to_text(), encoding="utf-8")
    print(f"seed={args.seed} n={rect.n} k={rect.k}")
    print(f"wrote {outdir / 'rectangle.txt'} {outdir / 'incidence.txt'} {outdir / 'inverse.txt'}")
    return 0


def cmd_encode(args) -> int:
    rect = _load_rectangle(args.rectangle)
    if rect.n > codec._U16_MAX:
        raise ParseError(
            f"rectangle n={rect.n} is above {codec._U16_MAX}, the u16 packet index limit"
        )
    scheme = codec.make_scheme(rect, args.mode)
    data = Path(args.input).read_bytes()
    if not data:
        raise ValueError(f"input file {args.input} is empty")
    block = codec.split_payload(data, scheme.n)
    del data  # the block's packets are the only copy encode needs
    packets = codec.encode(scheme, block)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    width = len(str(scheme.n))
    names = []
    for p in packets:
        name = outdir / f"packet_{p.index:0{width}d}.bin"
        name.write_bytes(codec.serialize_packet(p))
        names.append(str(name))
    manifest = outdir / "manifest.txt"
    manifest.write_text(
        codec.format_manifest(rect, scheme.mode, block.original_len), encoding="utf-8"
    )
    print(
        f"n={scheme.n} k={rect.k} mode={scheme.mode} "
        f"packet_len={block.packet_len} original_len={block.original_len}"
    )
    print(f"wrote {len(names)} packets and {manifest}")
    return 0


def cmd_decode(args) -> int:
    manifest = Path(args.manifest).read_text(encoding="utf-8")
    n, _, _, original_len, _ = codec.parse_manifest(manifest)
    packets = [codec.deserialize_packet(Path(f).read_bytes()) for f in args.packets]
    block = codec.decode(packets, n, original_len=original_len)
    # split_payload cuts original_len bytes into ceil(original_len / n) per
    # packet; a shorter length would silently truncate the output.
    low = (block.packet_len - 1) * n
    if original_len <= low:
        raise ValueError(
            f"manifest original_len {original_len} is below the {low + 1}..{low + n} "
            f"bytes that {n} packets of {block.packet_len} bytes carry"
        )
    Path(args.output).write_bytes(codec.join_payload(block))
    print(f"recovered={original_len} bytes from {len(packets)} packets -> {args.output}")
    return 0


def cmd_simulate(args) -> int:
    net = network.parse_network(Path(args.network).read_text(encoding="utf-8"))
    sched = network.build_schedule(net, args.packets)
    if sched.n > codec._U16_MAX:
        # -n passed _packet_count, but padding to phases * maxflow can cross it.
        raise ParseError(
            f"-n/--packets {args.packets} pads to {sched.n} packets, "
            f"above {codec._U16_MAX}, the u16 packet index limit"
        )
    if args.rectangle:
        rect = _load_rectangle(args.rectangle)
    else:
        # The cyclic square's top rows are nonsingular at the default k for
        # every n. No output depends on the design or the payload.
        symbols = tuple(range(1, sched.n + 1))
        rect = latin.LatinRectangle(
            tuple([symbols[r:] + symbols[:r] for r in range(latin.auto_rows(sched.n))])
        )
    scheme = codec.make_scheme(rect, args.mode)
    rng = random.Random(0)
    block = codec.SourceBlock.from_packets([rng.randbytes(8) for _ in range(sched.n)])
    report = network.simulate(net, sched, scheme, block)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    sched_path = outdir / "schedule.txt"
    sched_path.write_text(network.format_schedule(sched), encoding="utf-8")
    report_text = network.format_simulation_report(report)
    (outdir / "report.txt").write_text(report_text, encoding="utf-8")
    print(f"n={sched.n} k={rect.k} mode={args.mode}")
    if sched.padding:
        print(f"padding={sched.padding} (requested {sched.requested_n}, delivering {sched.n})")
    print(report_text, end="")
    print(f"wrote {sched_path} and {outdir / 'report.txt'}")
    return 0 if report.all_decoded else 1


def cmd_audit(args) -> int:
    rect = _load_rectangle(args.rectangle)
    scheme = codec.make_scheme(rect, args.mode)
    if args.partition is not None:
        seqs = []
        for chunk in args.partition.split(";"):
            toks = chunk.replace(",", " ").split()
            if not toks:
                raise ParseError(f"empty partition chunk in {args.partition!r}")
            if not all(t.isascii() and t.isdecimal() and int(t) > 0 for t in toks):
                raise ParseError(f"bad partition chunk {chunk!r}, packet indexes start at 1")
            seqs.append(tuple(int(t) for t in toks))
        part = security.PathPartition.from_sequences(seqs)
    else:
        text = Path(args.schedule).read_text(encoding="utf-8")
        partitions = network.parse_schedule_partitions(text)
        sink = args.sink or next(iter(partitions))
        if sink not in partitions:
            raise ParseError(f"sink {sink!r} not found in schedule")
        part = security.PathPartition.from_sequences(partitions[sink])
    print(security.min_eavesdrop_paths(scheme, part).summary_line())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xorcode",
        description="Balanced XOR network coding: designs, packet codecs, "
        "phase schedules and eavesdropping audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="search for a nonsingular Latin-rectangle design")
    p.add_argument(
        "-n", "--packets", type=_packet_count, required=True, help="design order / packet count"
    )
    p.add_argument(
        "-k", "--rows", type=_positive_int, help="rectangle rows (odd, at most n); default auto"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--moves",
        type=_positive_int,
        help="accepted moves before the first sampled square (default n^2); "
        "each later sample follows one more walk of this length",
    )
    p.add_argument(
        "--max-retries", type=_positive_int,
        help="samples to test (default max(64, 4n)); at odd n the search keeps about "
        "e/n of them, so 4n samples all fail for at most about one seed in 50 000",
    )
    p.add_argument("-o", "--out", default=".", help="output directory")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("encode", help="encode a file into coded packets")
    p.add_argument("-r", "--rectangle", required=True, help="Latin rectangle file")
    p.add_argument("--mode", choices=codec.MODES, default=codec.MODE_DIRECT)
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--out", default=".", help="output directory")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode packet files back into the original")
    p.add_argument("-m", "--manifest", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("packets", nargs="+", help="packet files")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("simulate", help="build a phase schedule and replay delivery")
    p.add_argument("--network", required=True, help="network file")
    p.add_argument("-n", "--packets", type=_packet_count, required=True)
    p.add_argument("--mode", choices=codec.MODES, default=codec.MODE_DIRECT)
    p.add_argument("--rectangle", help="design to test (default: cyclic square's top rows)")
    p.add_argument("-o", "--out", default=".", help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("audit", help="eavesdropping audit of a routing")
    p.add_argument("-r", "--rectangle", required=True)
    p.add_argument("--mode", choices=codec.MODES, default=codec.MODE_BALANCED_DECODE)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--schedule", help="schedule file to take the path partition from")
    source.add_argument(
        "--partition", help="explicit partition, e.g. '3,10,7,2;8,4,11,9;1,6,5,12'"
    )
    p.add_argument("--sink", help="which sink's partition to audit (default: first)")
    p.set_defaults(func=cmd_audit)
    return parser


def main(argv=None) -> int:
    if isinstance(sys.stdout, io.TextIOWrapper):
        # Printed text is UTF-8 like the files written, whatever the locale.
        sys.stdout.reconfigure(encoding="utf-8")
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "audit" and args.partition is not None and args.sink is not None:
        parser.error("--sink applies to --schedule, not --partition")
    if args.command == "gen" and args.rows is not None and args.rows > args.packets:
        parser.error(f"-k/--rows {args.rows} exceeds -n/--packets {args.packets}")
    try:
        return args.func(args)
    except (ParseError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CodingError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
