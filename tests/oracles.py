"""Independent brute-force references the fast implementations are tested against."""

from __future__ import annotations

import random
from collections import deque
from itertools import combinations, permutations
from types import SimpleNamespace
from typing import Any, Sequence

from xorcode.codec import CodedPacket, CodingScheme, SourceBlock
from xorcode.errors import (
    PacketIntegrityError,
    PartialDecodeError,
    ScheduleError,
    TopologyError,
)
from xorcode.gf2 import Basis, BitMatrix
from xorcode.latin import LatinRectangle
from xorcode.network import Network, Schedule, edge_disjoint_paths
from xorcode.security import EavesdropReport, PathPartition


def bit_matrix(rows: Sequence[Sequence[int] | str]) -> BitMatrix:
    """Matrix from rows of 0/1 entries or '0'/'1' strings; entry j of a row is column j."""
    cols = len(rows[0])
    assert all(len(r) == cols and set(map(int, r)) <= {0, 1} for r in rows)
    bits = tuple(sum(int(v) << j for j, v in enumerate(r)) for r in rows)
    return BitMatrix(len(rows), cols, bits)


def is_balanced(m: BitMatrix, k: int) -> bool:
    """True iff every row and every column has exactly k ones."""
    if not m.is_square():
        raise ValueError("balance check requires a square matrix")
    if any(row.bit_count() != k for row in m.row_bits):
        return False
    for j in range(m.cols):
        if sum((row >> j) & 1 for row in m.row_bits) != k:
            return False
    return True


def leibniz_determinant(m: BitMatrix) -> int:
    """Permanent-style expansion over all permutations; signs vanish mod 2."""
    assert m.is_square()
    n = m.rows
    total = 0
    for perm in permutations(range(n)):
        prod = 1
        for i, j in enumerate(perm):
            prod &= (m.row_bits[i] >> j) & 1
            if not prod:
                break
        total ^= prod
    return total


def exhaustive_in_rowspan(rows: list[int], target: int) -> bool:
    """Try all 2^len(rows) XOR combinations."""
    for size in range(len(rows) + 1):
        for combo in combinations(rows, size):
            acc = 0
            for r in combo:
                acc ^= r
            if acc == target:
                return True
    return False


def span_exposed(rows: Sequence[int], captured: set[int]) -> tuple[int, ...]:
    """1-based sources whose unit vector lies in the span of the captured rows.

    ``captured`` holds 1-based indexes into ``rows``; the captured rows go
    into one GF(2) basis and every unit vector is reduced against it.
    """
    basis = Basis()
    for i in captured:
        basis.add(rows[i - 1])
    return tuple([l + 1 for l in basis.spanned_units(len(rows))])


def subset_min_eavesdrop(scheme: CodingScheme, part: PathPartition) -> EavesdropReport:
    """Try path subsets by increasing size, lexicographically within a size.

    The first subset whose captured coding vectors span some unit vector is
    the witness; costs up to 2^f eliminations.
    """
    if part.n != scheme.n:
        raise ValueError(f"partition covers 1..{part.n}, scheme has {scheme.n} packets")
    f = part.maxflow
    for size in range(1, f + 1):
        for combo in combinations(range(f), size):
            captured: set[int] = set()
            for i in combo:
                captured.update(part[i])
            exposed = span_exposed(scheme.encode_matrix.row_bits, captured)
            if exposed:
                return EavesdropReport(
                    min_paths_to_decode=size,
                    witness_paths=tuple([i + 1 for i in combo]),
                    exposed_sources=exposed,
                    condition_holds=size == f,
                )
    raise AssertionError("unreachable: tapping all paths exposes every packet")


def mat_mul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Matrix product over GF(2); row i of A.B is the XOR of B's rows picked by row i of A."""
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    out = []
    for row in a.row_bits:
        acc = 0
        for j in range(a.cols):
            if (row >> j) & 1:
                acc ^= b.row_bits[j]
        out.append(acc)
    return BitMatrix(a.rows, b.cols, tuple(out))


def transpose(m: BitMatrix) -> BitMatrix:
    return BitMatrix(
        m.cols,
        m.rows,
        tuple(
            sum(((row >> j) & 1) << i for i, row in enumerate(m.row_bits))
            for j in range(m.cols)
        ),
    )


def xor_encode(rows: Sequence[int], packets: Sequence[bytes]) -> list[bytes]:
    """Per bit-packed row, the byte-wise XOR of the packets its set bits pick."""
    out = []
    for row in rows:
        acc = bytes(len(packets[0]))
        for j, packet in enumerate(packets):
            if (row >> j) & 1:
                acc = bytes(a ^ b for a, b in zip(acc, packet))
        out.append(acc)
    return out


def payload_elimination_decode(
    packets: Sequence[CodedPacket], n: int, original_len: int | None = None
) -> SourceBlock:
    """Decode with every payload carried through the header elimination.

    Each packet's header and payload int enter one ``Basis`` together. A
    dependent header must reduce to a zero payload too; at full rank,
    back-substitution leaves source l as the payload of unit row e_l.
    """
    if n < 1:
        raise ValueError("packet count must be >= 1")
    if not packets:
        raise PartialDecodeError(frozenset(), n)
    plen = len(packets[0].payload)
    if any(len(p.payload) != plen for p in packets):
        raise ValueError("received packets have unequal payload lengths")
    basis = Basis()
    for p in packets:
        if p.header[-1] > n:
            raise ValueError(f"packet {p.index} references source {p.header[-1]} > n={n}")
        vec, pay = basis.add(sum(1 << (j - 1) for j in p.header), int.from_bytes(p.payload, "little"))
        if not vec and pay:
            raise PacketIntegrityError(
                f"packet {p.index} is linearly dependent on earlier packets "
                "but its payload disagrees"
            )
    if len(basis) < n:
        raise PartialDecodeError(frozenset(l + 1 for l in basis.spanned_units(n)), n)
    solved = basis.solve()
    sources = tuple(solved[l].to_bytes(plen, "little") for l in range(n))
    return SourceBlock(sources, plen, plen * n if original_len is None else original_len)


def naive_mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            acc = 0
            for t in range(inner):
                acc ^= a[i][t] & b[t][j]
            out[i][j] = acc
    return out


def enumerate_latin_squares(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """All order-n Latin squares by cell-by-cell backtracking."""
    squares: list[tuple[tuple[int, ...], ...]] = []
    grid = [[0] * n for _ in range(n)]
    col_used = [set() for _ in range(n)]

    def fill(r: int, c: int):
        if r == n:
            squares.append(tuple(tuple(row) for row in grid))
            return
        nr, nc = (r, c + 1) if c + 1 < n else (r + 1, 0)
        row_used = set(grid[r][:c])
        for s in range(1, n + 1):
            if s not in row_used and s not in col_used[c]:
                grid[r][c] = s
                col_used[c].add(s)
                fill(nr, nc)
                col_used[c].remove(s)
        grid[r][c] = 0

    fill(0, 0)
    return squares


def reference_jm_generate(
    n: int, seed: int = 0, moves: int | None = None, counts: dict[str, int] | None = None
) -> LatinRectangle:
    """The Jacobson-Matthews walk as one flat loop with a proper/improper flag.

    Same random draws in the same order as ``latin.jm_generate``, so the same
    square for every (n, seed, moves); that walk splits each accepted move
    into a proper pivot and its improper excursion. Every step here writes
    all nine cells it flips: this is the oracle for that walk, whose
    improper steps write only the cells the next step does not rewrite.

    The draws: each try of a proper pivot is one ``random()``, x = int(random()
    * n^3), read as r = x // n^2 and (c, s) = divmod(x % n^2, n); each improper
    step is one ``getrandbits(3)``, whose bit 2 is the symbol coin, bit 1 the
    column coin and bit 0 the row coin, heads when set. Order 2 draws one
    ``random()`` and order 1 none. For n >= 3, a ``counts`` dict gets the
    number of pivot tries under "pivot_tries" and of improper steps under
    "improper_steps".
    """
    if n < 1:
        raise ValueError("order must be at least 1")
    gen = random.Random(seed)
    rnd = gen.random
    if n == 1:
        return LatinRectangle(((1,),))
    if n == 2:
        # Every accepted move swaps the two order-2 squares; one fair draw instead.
        return LatinRectangle(((2, 1), (1, 2)) if rnd() >= 0.5 else ((1, 2), (2, 1)))
    if moves is None:
        moves = n * n
    # sym_at[r*n+c]: symbol in the cell; col_at[r*n+s]: column of s in row r;
    # row_at[c*n+s]: row of s in column c. Start from the cyclic square.
    sym_at = [0] * (n * n)
    col_at = [0] * (n * n)
    row_at = [0] * (n * n)
    for r in range(n):
        rn = r * n
        for c in range(n):
            s = (r + c) % n
            sym_at[rn + c] = s
            col_at[rn + s] = c
    for c in range(n):
        cn = c * n
        for s in range(n):
            row_at[cn + s] = (s - c) % n
    proper = True
    nr = nc = ns = 0          # defect triple when improper
    x_sym = x_col = x_row = 0  # second entries of the defect's three lines
    accepted = pivot_tries = improper_steps = 0
    while accepted < moves:
        if proper:
            while True:
                x = int(rnd() * n**3)
                r = x // (n * n)
                c, s = divmod(x % (n * n), n)
                pivot_tries += 1
                if sym_at[r * n + c] != s:
                    break
            rn = r * n
            cn = c * n
            s2 = sym_at[rn + c]
            c2 = col_at[rn + s]
            r2 = row_at[cn + s]
            fill_sym, fill_col, fill_row = s, c, r
        else:
            r, c, s = nr, nc, ns
            rn = r * n
            cn = c * n
            coins = gen.getrandbits(3)
            improper_steps += 1
            if coins >> 2 & 1:
                s2, fill_sym = sym_at[rn + c], x_sym
            else:
                s2, fill_sym = x_sym, sym_at[rn + c]
            if coins >> 1 & 1:
                c2, fill_col = col_at[rn + s], x_col
            else:
                c2, fill_col = x_col, col_at[rn + s]
            if coins & 1:
                r2, fill_row = row_at[cn + s], x_row
            else:
                r2, fill_row = x_row, row_at[cn + s]
        r2n = r2 * n
        c2n = c2 * n
        sym_at[rn + c] = fill_sym
        sym_at[rn + c2] = s2
        sym_at[r2n + c] = s2
        col_at[rn + s] = fill_col
        col_at[rn + s2] = c2
        col_at[r2n + s] = c2
        row_at[cn + s] = fill_row
        row_at[cn + s2] = r2
        row_at[c2n + s] = r2
        if sym_at[r2n + c2] == s2:
            sym_at[r2n + c2] = s
            col_at[r2n + s2] = c
            row_at[c2n + s2] = r
            proper = True
            accepted += 1
        else:
            # The far corner turns negative: cell (r2,c2), row line (r2,.,s2)
            # and column line (.,c2,s2) each gain a second entry.
            nr, nc, ns = r2, c2, s2
            x_sym, x_col, x_row = s, c, r
            proper = False
    if counts is not None:
        counts["pivot_tries"] = pivot_tries
        counts["improper_steps"] = improper_steps
    cells = tuple(
        tuple(sym_at[r * n + c] + 1 for c in range(n)) for r in range(n)
    )
    return LatinRectangle(cells)


def header_phases_to_decode(scheme: CodingScheme, per_phase: Sequence[Sequence[int]]) -> int | None:
    """First phase after which the received packets' headers reach full rank, by elimination."""
    headers = Basis()
    for phase, idxs in enumerate(per_phase, start=1):
        # Packet i's header is the support of encoding row i.
        for i in idxs:
            headers.add(scheme.encode_matrix.row_bits[i - 1])
        if len(headers) == scheme.n:
            return phase
    return None


def lowest_unused_subsets(
    plain: Sequence[int], top: int, free: int, p: int
) -> list[tuple[int, ...]]:
    """Every p-combination of plain + top+1..top+free whose packets above top are top+1..top+j."""
    unused = list(range(top + 1, top + free + 1))
    return [
        combo
        for combo in combinations(list(plain) + unused, p)
        if [x for x in combo if x > top] == unused[: sum(x > top for x in combo)]
    ]


def reference_subset_labels(
    sink_classes: Sequence[Sequence[int]], f: int, p: int
) -> dict[int, tuple[int, ...]] | None:
    """The lexicographically first labelling of the classes, in order of first
    appearance, by ascending p-subsets of 1..f*p, with classes that share a sink
    disjoint; None if there is none.

    Depth-first search over each class's ``lowest_unused_subsets``: the packets
    in use are always 1..top, and unused packets are interchangeable."""
    order = list(dict.fromkeys(c for classes in sink_classes for c in classes))
    seqs: dict[int, tuple[int, ...]] = {}

    def place(k: int, top: int) -> bool:
        if k == len(order):
            return True
        c = order[k]
        held = [seqs[d] for classes in sink_classes if c in classes for d in classes if d in seqs]
        taken = {x for seq in held for x in seq}
        plain = [x for x in range(1, top + 1) if x not in taken]
        for seq in lowest_unused_subsets(plain, top, f * p - top, p):
            seqs[c] = seq
            if place(k + 1, max(top, seq[-1])):
                return True
        seqs.pop(c, None)
        return False

    return seqs if place(0, 0) else None


def whole_graph_edge_disjoint_paths(net: Network, sink: str) -> list[tuple[int, ...]]:
    """Unit-capacity max flow by BFS augmenting paths over every node and edge, then decomposed.

    Each BFS visits out-edges, then residual in-edges, in ascending edge id;
    the decomposition follows each node's lowest-id flow-carrying out-edge.
    """
    if sink not in net.sinks:
        raise ValueError(f"{sink!r} is not a sink of this network")
    edges = net.edges
    out_, in_ = net.adjacency
    flow = [0] * len(edges)
    value = 0
    while True:
        prev: dict[str, tuple[int, int] | None] = {net.source: None}
        queue = deque([net.source])
        while queue and sink not in prev:
            u = queue.popleft()
            for eid in out_[u]:
                v = edges[eid][1]
                if not flow[eid] and v not in prev:
                    prev[v] = (eid, 1)
                    queue.append(v)
            for eid in in_[u]:
                v = edges[eid][0]
                if flow[eid] and v not in prev:
                    prev[v] = (eid, -1)
                    queue.append(v)
        if sink not in prev:
            break
        node = sink
        while node != net.source:
            eid, direction = prev[node]  # type: ignore[misc]
            flow[eid] = 1 if direction == 1 else 0
            node = edges[eid][0] if direction == 1 else edges[eid][1]
        value += 1
    available: dict[str, list[int]] = {v: [] for v in net.nodes}
    for eid in range(len(flow) - 1, -1, -1):
        if flow[eid]:
            available[edges[eid][0]].append(eid)
    paths = []
    for _ in range(value):
        node = net.source
        path = []
        while node != sink:
            eid = available[node].pop()
            path.append(eid)
            node = edges[eid][1]
        paths.append(tuple(path))
    return paths


def exhaustive_schedule(net: Network, n: int) -> Schedule:
    """Cell-by-cell packet labelling search: the lexicographically first valid schedule.

    Sinks are processed in input order. For each, the packets forced onto its
    paths by edges already claimed are fixed first, then the remaining (path,
    phase) slots are filled with the smallest unused packet index, undoing
    choices on conflict. Paths of later sinks that share an edge with earlier
    ones inherit its per-phase packets, which is what makes shared relays
    deliver identical sets. Raises if sinks disagree on max flow or no
    consistent assignment exists.
    """
    if n < 1:
        raise ValueError("packet count must be >= 1")
    sink_paths = [edge_disjoint_paths(net, t) for t in net.sinks]
    flows = [len(paths) for paths in sink_paths]
    f = flows[0]
    if any(x != f for x in flows):
        detail = ", ".join(f"{t}={x}" for t, x in zip(net.sinks, flows))
        raise TopologyError(f"sinks have unequal max-flow: {detail}")
    if f == 0:
        raise TopologyError("sinks are unreachable from the source")
    p = -(-n // f)
    padded = p * f
    edge_phase: dict[tuple[int, int], int] = {}
    chosen: list[tuple[tuple[int, ...], ...]] = []

    def assign_sink(si: int) -> bool:
        if si == len(net.sinks):
            return True
        paths = sink_paths[si]
        forced: dict[tuple[int, int], int] = {}
        for j, path in enumerate(paths):
            for phase in range(p):
                vals = {edge_phase[(e, phase)] for e in path if (e, phase) in edge_phase}
                if len(vals) > 1:
                    return False
                if vals:
                    forced[(j, phase)] = vals.pop()
        if len(set(forced.values())) != len(forced):
            return False
        cells = [(j, phase) for j in range(f) for phase in range(p)]
        free = [cell for cell in cells if cell not in forced]
        grid = dict(forced)
        used = set(forced.values())

        def commit_and_recurse() -> bool:
            added = []
            for (j, phase), pkt in grid.items():
                for e in paths[j]:
                    key = (e, phase)
                    if key not in edge_phase:
                        edge_phase[key] = pkt
                        added.append(key)
            chosen.append(tuple(tuple(grid[(j, phase)] for phase in range(p)) for j in range(f)))
            if assign_sink(si + 1):
                return True
            chosen.pop()
            for key in added:
                del edge_phase[key]
            return False

        def fill(i: int) -> bool:
            if i == len(free):
                return commit_and_recurse()
            cell = free[i]
            for pkt in range(1, padded + 1):
                if pkt in used:
                    continue
                grid[cell] = pkt
                used.add(pkt)
                if fill(i + 1):
                    return True
                used.remove(pkt)
                del grid[cell]
            return False

        return fill(0)

    if not assign_sink(0):
        raise ScheduleError(
            f"no forwarding-only schedule for {padded} packets on {f} paths: "
            "shared edges impose conflicting packet sets"
        )
    return Schedule(
        network=net,
        n=padded,
        requested_n=n,
        phases=p,
        maxflow=f,
        sinks=net.sinks,
        paths=tuple(tuple(paths) for paths in sink_paths),
        assignment=tuple(chosen),
    )


def schedule_problems(net: Network, fields: dict[str, Any]) -> list[str]:
    """Every problem of a would-be schedule on ``net`` (empty = valid and fits).

    ``fields`` holds ``Schedule``'s fields, which need not be valid. This is
    the library's whole-schedule validator from before ``Schedule`` checked
    its own invariants: it compares per (edge, phase) slot, where the type
    compares whole per-edge sequences.
    """
    sched = SimpleNamespace(**fields)
    problems = []
    if sched.maxflow < 1 or sched.phases < 1:
        problems.append("non-positive maxflow or phase count")
        return problems
    if sched.n != sched.maxflow * sched.phases:
        problems.append(f"n={sched.n} is not phases*maxflow={sched.phases * sched.maxflow}")
    if not sched.n - sched.maxflow < sched.requested_n <= sched.n:
        problems.append(
            f"requested_n={sched.requested_n} is not in {sched.n - sched.maxflow + 1}..{sched.n}"
        )
    if set(sched.sinks) != set(net.sinks) or len(sched.sinks) != len(net.sinks):
        problems.append("schedule sinks do not match network sinks")
        return problems
    if not (len(sched.paths) == len(sched.assignment) == len(sched.sinks)):
        problems.append("per-sink path/assignment shape mismatch")
        return problems
    for si, sink in enumerate(sched.sinks):
        paths = sched.paths[si]
        if len(paths) != sched.maxflow:
            problems.append(f"sink {sink}: {len(paths)} paths, expected {sched.maxflow}")
        seen_edges: set[int] = set()
        for j, path in enumerate(paths):
            if not path:
                problems.append(f"sink {sink} path {j + 1}: empty")
                continue
            if any(not 0 <= e < len(net.edges) for e in path):
                problems.append(f"sink {sink} path {j + 1}: unknown edge id")
                continue
            if net.edges[path[0]][0] != net.source or net.edges[path[-1]][1] != sink:
                problems.append(f"sink {sink} path {j + 1}: does not run source->sink")
            for a, b in zip(path, path[1:]):
                if net.edges[a][1] != net.edges[b][0]:
                    problems.append(f"sink {sink} path {j + 1}: edges {a},{b} do not connect")
            if seen_edges & set(path):
                problems.append(f"sink {sink}: paths share an edge")
            seen_edges |= set(path)
        assign = sched.assignment[si]
        if len(assign) != len(paths):
            problems.append(f"sink {sink}: assignment rows != path count")
            continue
        flat: list[int] = []
        for j, seq in enumerate(assign):
            if len(seq) != sched.phases:
                problems.append(
                    f"sink {sink} path {j + 1}: {len(seq)} phases, expected {sched.phases}"
                )
            flat.extend(seq)
        if len(flat) != sched.n or sorted(flat) != list(range(1, sched.n + 1)):
            problems.append(f"sink {sink}: packet sets do not partition 1..{sched.n}")
    carried: dict[tuple[int, int], tuple[str, int]] = {}
    for si, sink in enumerate(sched.sinks):
        for path, seq in zip(sched.paths[si], sched.assignment[si]):
            for phase, pkt in enumerate(seq):
                for e in path:
                    prior = carried.get((e, phase))
                    if prior is None:
                        carried[(e, phase)] = (sink, pkt)
                    elif prior[1] != pkt:
                        problems.append(
                            f"edge {e} phase {phase + 1}: carries packet {prior[1]} "
                            f"for {prior[0]} but {pkt} for {sink}"
                        )
    return problems
