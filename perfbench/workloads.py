"""The benchmark's three workloads: input generators, operations and output checks.

Every workload is a closed loop driven by one caller. ``setup()`` makes all
inputs from the workload seed; ``op(i)`` runs operation ``i`` of the seeded
plan, checks what the library returned with the benchmark's own code and
returns the verified source bytes (0 where no payload moves). A wrong output
raises ``CheckFailed``. Library calls go through attributes of the
``xorcode`` package at call time, so a tracer that rebinds those names sees
every call.

Why these workloads, and which per-layer metrics should move which
end-to-end ones:

* ``stream`` - bulk file transfer. XOR over 64 KiB payloads is almost all of
  an op, so ``codec.encode``/``codec.decode`` self time and MB/s move
  ``ops_per_s`` and ``op_p50_ms``. Both modes and both parities of n run, in
  a 3:1 mix of n=32 to n=15 blocks so that p50 and p90 both land inside the
  n=32 class.
* ``design`` - fresh designs (``xorcode gen``). ``latin.jm_generate`` self
  time and calls, ``latin.search.hit_ratio`` and, for a small share,
  ``gf2.determinant``/``gf2.invert`` move all three op metrics.
* ``multicast`` - network sessions with 256-byte packets.
  ``network.build_schedule`` self time and rejections (the infeasible
  triangle) and ``security.min_eavesdrop_paths``/``gf2.in_rowspan`` move
  ``op_p90_ms`` and ``ops_per_s``; ``codec.decodable_indexes`` moves
  ``op_p50_ms``.

``latin`` also sets ``setup_s`` of ``stream`` and ``multicast``. Expected
no-change pairs: a codec encode/decode change leaves ``design`` alone; a
network or security change leaves ``stream`` and ``design`` alone; a latin
change moves only ``design`` op metrics and ``setup_s`` elsewhere.
"""

from __future__ import annotations

import random

import xorcode as xc

MODES = ("direct", "balanced_decode")


class CheckFailed(Exception):
    """The library returned a wrong output."""


def default_rows(n: int) -> int:
    """Odd row count a design of order n gets when k is not given."""
    return n - 1 if n % 2 == 0 else n - 2


def check_design(rect, matrix, n: int, k: int) -> None:
    """Latin rectangle of shape k x n whose block incidence is ``matrix``, k ones per line."""
    cells = rect.cells
    if len(cells) != k or any(len(row) != n for row in cells):
        raise CheckFailed(f"rectangle is not {k}x{n}")
    symbols = set(range(1, n + 1))
    if any(set(row) != symbols for row in cells):
        raise CheckFailed("a rectangle row is not a permutation of 1..n")
    incidence = []
    for j in range(n):
        column = [row[j] for row in cells]
        if len(set(column)) != k:
            raise CheckFailed(f"column {j} repeats a symbol")
        incidence.append(sum(1 << (s - 1) for s in column))
    if tuple(incidence) != tuple(matrix.row_bits):
        raise CheckFailed("block incidence does not match the rectangle")
    if any(row.bit_count() != k for row in incidence):
        raise CheckFailed("an incidence row does not have k ones")
    if any(sum((row >> c) & 1 for row in incidence) != k for c in range(n)):
        raise CheckFailed("an incidence column does not have k ones")


def check_scheme(scheme, incidence_rows, n: int, mode: str) -> None:
    """encode_matrix . decode_matrix = I on row ints, incidence on the side the mode names."""
    enc = scheme.encode_matrix.row_bits
    dec = scheme.decode_matrix.row_bits
    if scheme.n != n or scheme.mode != mode or len(enc) != n or len(dec) != n:
        raise CheckFailed(f"scheme shape or mode is not n={n} {mode}")
    if (enc if mode == "direct" else dec) != tuple(incidence_rows):
        raise CheckFailed(f"{mode} scheme does not use the incidence matrix")
    for i, row in enumerate(enc):
        acc = 0
        for j in range(n):
            if (row >> j) & 1:
                acc ^= dec[j]
        if acc != 1 << i:
            raise CheckFailed(f"row {i} of encode . decode is not the unit row")


class Stream:
    """Split, encode, serialize, shuffle with duplicates, deserialize, decode, join."""

    name = "stream"
    # n=32 and n=15 blocks at 3:1, each size in both modes.
    CYCLE = ((32, "direct"), (32, "balanced_decode")) * 3 + ((15, "direct"), (15, "balanced_decode"))
    PACKET = 64 * 1024
    trace_ops = 2 * len(CYCLE)

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        rng = random.Random(f"stream:{self.seed}")
        self.schemes = {}
        for n, k in ((32, 31), (15, 13)):
            rect, _ = xc.find_nonsingular_rectangle(n, k=k, seed=rng.getrandbits(63))
            for mode in MODES:
                self.schemes[n, mode] = xc.make_scheme(rect, mode)
        self.plan = []
        for _ in range(128):
            cycle = list(self.CYCLE)
            rng.shuffle(cycle)
            self.plan.extend((n, mode, rng.getrandbits(63)) for n, mode in cycle)

    def op(self, i: int) -> int:
        n, mode, seed = self.plan[i % len(self.plan)]
        rng = random.Random(seed)
        payload = rng.randbytes(n * self.PACKET - rng.randrange(1, self.PACKET))
        block = xc.split_payload(payload, n)
        wire = [xc.serialize_packet(p) for p in xc.encode(self.schemes[n, mode], block)]
        rng.shuffle(wire)
        wire += [rng.choice(wire) for _ in range(n // 8)]
        received = [xc.deserialize_packet(buf) for buf in wire]
        recovered = xc.join_payload(xc.decode(received, n, original_len=len(payload)))
        if recovered != payload:
            raise CheckFailed(f"n={n} {mode}: recovered bytes differ from the payload")
        return len(payload)


class Design:
    """find_nonsingular_rectangle on a cycle of shapes, then make_scheme in both modes."""

    name = "design"
    # (n, k); None takes the default k. Even n at default k needs one walk,
    # odd n and small k go through the determinant retry loop. The one-walk
    # classes pin the quantiles: n=16 runs 3x so that p50 lands inside it, and
    # n=20 sits above almost all of the retry tail so that p90 lands inside
    # it, rather than in the gaps between classes.
    SHAPES = ((8, None), (9, None), (12, None), (12, 5), (13, None),
              (16, None), (16, None), (16, None), (16, 7), (20, None))
    trace_ops = 5 * len(SHAPES)

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        rng = random.Random(f"design:{self.seed}")
        self.plan = [(n, k, rng.getrandbits(63)) for _ in range(1024) for n, k in self.SHAPES]

    def op(self, i: int) -> int:
        n, k, seed = self.plan[i % len(self.plan)]
        rect, matrix = xc.find_nonsingular_rectangle(n, k=k, seed=seed)
        check_design(rect, matrix, n, default_rows(n) if k is None else k)
        for mode in MODES:
            check_scheme(xc.make_scheme(rect, mode), matrix.row_bits, n, mode)
        return 0


# Three sinks pairing three single-feed relays: no forwarding-only schedule exists.
TRIANGLE = (
    "source s\nsink t1\nsink t2\nsink t3\n"
    "edge s a\nedge s b\nedge s c\n"
    "edge a t1\nedge b t1\nedge a t2\nedge c t2\nedge b t3\nedge c t3\n"
)


def layered_network(rng: random.Random, f: int) -> tuple[str, int]:
    """f relay classes of 2-4 two-hop relays; every sink reads one relay per class.

    Relays are listed class by class, so sinks sharing a relay can always
    agree on its packets and a schedule exists. Returns (text, sink count).
    """
    classes = [[f"r{c}_{i}" for i in range(rng.randint(2, 4))] for c in range(f)]
    sinks = [f"t{j}" for j in range(rng.randint(4, 12))]
    lines = ["source s"] + [f"sink {t}" for t in sinks]
    lines += [f"edge s {r}" for relays in classes for r in relays]
    lines += [f"edge {rng.choice(relays)} {t}" for t in sinks for relays in classes]
    return "\n".join(lines) + "\n", len(sinks)


class Multicast:
    """parse_network, build_schedule, simulate, then audit the first sink's partition."""

    name = "multicast"
    FLOWS = range(2, 7)
    PHASES = (2, 3, 4)
    PACKET = 256
    PER_SHAPE = 4  # sessions per (f, p): two per mode, so the pool's median is steady
    TRIANGLES = 8  # 8 of 68 sessions, about 1 in 8
    trace_ops = PER_SHAPE * len(FLOWS) * len(PHASES) + TRIANGLES

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        rng = random.Random(f"multicast:{self.seed}")
        sessions = []
        for f in self.FLOWS:
            for p in self.PHASES:
                for mode in MODES * (self.PER_SHAPE // len(MODES)):
                    text, sinks = layered_network(rng, f)
                    n = rng.randint((p - 1) * f + 1, p * f)
                    sessions.append((text, n, f, p, sinks, mode))
        sessions += [(TRIANGLE, 6, 2, 3, 3, None)] * self.TRIANGLES  # mode None: must be rejected
        self.designs = {}
        self.blocks = {}
        for padded in sorted({p * f for _, _, f, p, _, mode in sessions if mode}):
            rect, _ = xc.find_nonsingular_rectangle(padded, seed=rng.getrandbits(63))
            self.designs[padded] = rect, {mode: xc.make_scheme(rect, mode) for mode in MODES}
            self.blocks[padded] = xc.SourceBlock.from_packets(
                [rng.randbytes(self.PACKET) for _ in range(padded)]
            )
        self.sessions = sessions
        self.plan = []
        for _ in range(32):
            order = list(range(len(sessions)))
            rng.shuffle(order)
            self.plan.extend(order)

    def op(self, i: int) -> int:
        text, n, f, p, sinks, mode = self.sessions[self.plan[i % len(self.plan)]]
        net = xc.parse_network(text)
        if mode is None:
            try:
                xc.build_schedule(net, n)
            except xc.ScheduleError:
                return 0
            raise CheckFailed("the infeasible triangle got a schedule")
        sched = xc.build_schedule(net, n)
        padded = p * f
        if sched.n != padded or sched.phases != p or len(sched.assignment) != sinks:
            raise CheckFailed(f"schedule is not {sinks} sinks x {p} phases for {padded} packets")
        for per_path in sched.assignment:
            if sorted(x for seq in per_path for x in seq) != list(range(1, padded + 1)):
                raise CheckFailed("a sink's packets do not partition 1..n")
        rect, schemes = self.designs[padded]
        block = self.blocks[padded]
        report = xc.simulate(net, sched, schemes[mode], block)
        if not report.all_decoded or len(report.sinks) != sinks:
            raise CheckFailed("not every sink decoded the block")
        if any(r.phases_to_decode != p for r in report.sinks):
            raise CheckFailed(f"a sink did not decode in exactly {p} phases")
        part = xc.PathPartition.from_sequences(sched.assignment[0])
        if xc.audit(rect, schemes["balanced_decode"], part).discrepancy:
            raise CheckFailed("column test and brute-force audit disagree")
        return block.original_len * sinks


WORKLOADS = {w.name: w for w in (Stream, Design, Multicast)}
