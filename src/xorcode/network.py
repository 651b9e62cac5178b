"""Single-source multicast DAGs: max-flow, phase schedules, delivery simulation.

Delivery is forwarding-only: the source emits one coded packet per
edge-disjoint path per phase and intermediate nodes copy bytes verbatim, so
an edge carries one fixed packet index in each phase. A schedule assigns
packet indexes to (sink, path, phase) slots such that every sink sees each
packet exactly once and paths sharing an edge agree phase by phase.

Both text formats take one directive per line; '#' starts a comment and
blank lines are skipped. Network text format:

    node <name>
    edge <from> <to>      # repeat for parallel edges
    source <name>
    sink <name>

Schedule text format:

    n <count> / requested_n <count> / phases <count> / maxflow <count>
    sink <name>
    path <node> <node> ... : <packet per phase> ...
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator, Sequence

from .codec import CodingScheme, SourceBlock, decode, encode
from .errors import ParseError, ScheduleError, TopologyError


@dataclass(frozen=True)
class Network:
    """Directed acyclic multigraph with one source and named sinks."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    source: str
    sinks: tuple[str, ...]

    def __post_init__(self):
        known = set(self.nodes)
        if len(known) != len(self.nodes):
            raise ValueError("duplicate node names")
        for v in self.nodes:  # the text formats split on whitespace and cut '#' comments
            if v.split() != [v] or "#" in v:
                raise ValueError(f"node name {v!r} is empty or holds whitespace or '#'")
        if self.source not in known:
            raise ValueError(f"unknown source {self.source!r}")
        if not self.sinks:
            raise ValueError("at least one sink is required")
        if len(set(self.sinks)) != len(self.sinks):
            raise ValueError("duplicate sink names")
        for t in self.sinks:
            if t not in known:
                raise ValueError(f"unknown sink {t!r}")
        if self.source in self.sinks:
            raise ValueError("source cannot also be a sink")
        for u, v in self.edges:
            if u not in known or v not in known:
                raise ValueError(f"edge ({u!r}, {v!r}) references unknown node")
            if u == v:
                raise TopologyError(f"self-loop on {u!r}")
        self._check_acyclic()

    @cached_property
    def adjacency(self) -> tuple[dict[str, list[int]], dict[str, list[int]]]:
        """Ids of the edges leaving and entering each node, in edge order."""
        out_: dict[str, list[int]] = {v: [] for v in self.nodes}
        in_: dict[str, list[int]] = {v: [] for v in self.nodes}
        for i, (u, v) in enumerate(self.edges):
            out_[u].append(i)
            in_[v].append(i)
        return out_, in_

    def _check_acyclic(self):
        out_, in_ = self.adjacency
        indeg = {v: len(in_[v]) for v in self.nodes}
        ready = [v for v in self.nodes if indeg[v] == 0]
        seen = 0
        while ready:
            u = ready.pop()
            seen += 1
            for eid in out_[u]:
                ev = self.edges[eid][1]
                indeg[ev] -= 1
                if indeg[ev] == 0:
                    ready.append(ev)
        if seen != len(self.nodes):
            raise TopologyError("network contains a cycle")


def _directives(text: str) -> Iterator[tuple[int, str, list[str]]]:
    """(line number, line, tokens) of each non-blank line, '#' comments cut.

    The line is not stripped; only error messages quote it, as ``line.strip()``."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0]
        toks = line.split()
        if toks:
            yield lineno, line, toks


_NETWORK_TOKENS = {"node": 2, "edge": 3, "source": 2, "sink": 2}  # keyword included


def parse_network(text: str) -> Network:
    nodes: dict[str, None] = {}  # names in order of first mention
    edges: list[tuple[str, str]] = []
    source: str | None = None
    sinks: list[str] = []
    for lineno, line, toks in _directives(text):
        if _NETWORK_TOKENS.get(toks[0]) != len(toks):
            raise ParseError(f"line {lineno}: bad directive {line.strip()!r}")
        if toks[0] == "edge":
            edges.append((toks[1], toks[2]))
        elif toks[0] == "source":
            if source is not None:
                raise ParseError(f"line {lineno}: second source directive")
            source = toks[1]
        elif toks[0] == "sink":
            sinks.append(toks[1])
        nodes[toks[1]] = nodes[toks[-1]] = None  # toks[-1] is toks[1] except in an edge
    if source is None:
        raise ParseError("missing source directive")
    try:
        return Network(tuple(nodes), tuple(edges), source, tuple(sinks))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _augmenting_flow(net: Network, sink: str, outs: dict[str, list[int]]) -> set[int]:
    """The edges of a max flow to sink found by BFS augmenting paths; outs holds
    each ancestor's out-edges among the ancestor edges, in ascending id."""
    edges = net.edges
    in_ = net.adjacency[1]
    used: set[int] = set()  # the edges carrying flow
    # The flow can fill no more than the sink's in-edges or the source's out-edges.
    for _ in range(min(len(in_[sink]), len(outs[net.source]))):
        prev: dict[str, tuple[int, str] | None] = {net.source: None}
        queue = [net.source]  # first in, first out: the loop reads what it appends
        for u in queue:
            for eid in outs[u]:
                v = edges[eid][1]
                if eid not in used and v not in prev:
                    prev[v] = (eid, u)
                    queue.append(v)
            for eid in in_[u]:
                v = edges[eid][0]
                if eid in used and v not in prev:
                    prev[v] = (eid, u)
                    queue.append(v)
            if sink in prev:
                break
        if sink not in prev:
            break
        node = sink
        while node != net.source:
            eid, node = prev[node]  # type: ignore[misc]
            used ^= {eid}  # a forward edge gains flow, a residual one loses it
    return used


def edge_disjoint_paths(net: Network, sink: str) -> list[tuple[int, ...]]:
    """Edge-id paths of a unit-capacity max flow, deterministic order ([] if unreachable).

    The flow is found on the sink's ancestor subgraph alone. Its edges are
    grouped once by tail, in ascending id, for the balance rule, the search
    and the decomposition. When every ancestor other than the source and
    the sink has as many in-edges as out-edges among them, those edges are
    themselves a flow, and its value, the source's out-degree among them,
    is the most any flow can carry. It is also the only max flow: another
    would be a subset of it, and the difference, a circulation of
    nonnegative flow, cannot exist in a DAG. So no search is needed and a
    call costs O(ancestor edges) beside the one sort. Otherwise BFS
    augmenting paths find the flow, at about O(f * ancestor edges) for max
    flow f, and the grouping is filtered down to its edges. Each path
    leaves a node by its lowest flow edge not yet taken.
    """
    if sink not in net.sinks:
        raise ValueError(f"{sink!r} is not a sink of this network")
    edges = net.edges
    in_ = net.adjacency[1]
    # Only the sink's ancestors lie on augmenting paths: an edge into one
    # leaves one, and a residual edge reverses a flow edge, which joins two.
    # So a BFS over the edges among them meets them in the whole network's
    # order and gives them the same prev links, and so the same flow.
    reaches = {sink}
    stack = [sink]
    sub: list[int] = []  # in-edges of the ancestors: the edges among them
    while stack:
        ins = in_[stack.pop()]
        sub += ins
        for eid in ins:
            u = edges[eid][0]
            if u not in reaches:
                reaches.add(u)
                stack.append(u)
    if net.source not in reaches:
        return []
    outs: dict[str, list[int]] = {}  # every ancestor but the sink has out-edges
    for eid in sorted(sub):
        outs.setdefault(edges[eid][0], []).append(eid)
    # The balance rule, on every ancestor but the source and the sink. It
    # implies that the source has no in-edge (walking in-edges back from one
    # ends at an ancestor with none, which is unbalanced), and so, by flow
    # conservation, that the source's out-degree is the sink's in-degree.
    source = net.source
    if any(len(in_[u]) != len(out) for u, out in outs.items() if u != source):
        used = _augmenting_flow(net, sink, outs)
        outs = {u: [eid for eid in out if eid in used] for u, out in outs.items()}
    untaken = {u: iter(out) for u, out in outs.items()}
    paths = []
    for eid in untaken[source]:
        path = [eid]
        while edges[eid][1] != sink:
            eid = next(untaken[edges[eid][1]])
            path.append(eid)
        paths.append(tuple(path))
    return paths


def path_nodes(net: Network, path: Sequence[int]) -> tuple[str, ...]:
    """The nodes a non-empty path of edge ids visits, source first."""
    return (net.edges[path[0]][0],) + tuple(net.edges[eid][1] for eid in path)


class PathPartition(tuple):
    """Packet-index tuples S_i, one per path, equal to the plain tuple of tuples.
    Built once under the path-partition rule: one or more non-empty paths of one size
    whose ints (no bool or float) hold 1..n once each. A PathPartition comes back as is."""

    __slots__ = ()

    def __new__(cls, seqs: Iterable[Sequence[int]]) -> PathPartition:
        if type(seqs) is cls:
            return seqs
        self = super().__new__(cls, [tuple(seq) for seq in seqs])
        if not self or not self[0] or set(map(len, self)) != {len(self[0])}:
            raise ValueError("partition needs one or more non-empty path sets of equal size")
        packets = list(chain.from_iterable(self))
        if set(map(type, packets)) != {int}:  # 1.0 and True sort and compare as 1
            raise ValueError("packet indexes must be ints")
        packets.sort()
        if packets != list(range(1, len(packets) + 1)):
            raise ValueError(f"packet sets do not partition 1..{len(packets)}")
        return self

    from_sequences = classmethod(__new__)

    @property
    def maxflow(self) -> int:
        return len(self)

    @property
    def n(self) -> int:
        return len(self) * len(self[0])


def _check_partitions(n: int, requested_n: int, phases: int, maxflow: int, partitions):
    """The list of each (sink, sequences) pair's ``PathPartition``, of maxflow paths
    of phases packets; raise ValueError unless the headers agree and each is built.
    A ``PathPartition`` comes back as is, so a row shared by sinks is proven once."""
    if maxflow < 1 or phases < 1:
        raise ValueError("non-positive maxflow or phase count")
    if n != phases * maxflow:
        raise ValueError(f"n={n} is not phases*maxflow={phases * maxflow}")
    # build_schedule pads the request up to the next multiple of maxflow.
    if not n - maxflow < requested_n <= n:
        raise ValueError(f"requested_n={requested_n} is not in {n - maxflow + 1}..{n}")
    parts = []
    for sink, seqs in partitions:
        try:
            part = PathPartition(seqs)
        except ValueError as exc:
            raise ValueError(f"sink {sink}: {exc}") from None
        if len(part) != maxflow or len(part[0]) != phases:
            raise ValueError(f"sink {sink}: needs {maxflow} paths of {phases} packets each")
        parts.append(part)
    return parts


@dataclass(frozen=True)
class Schedule:
    """Per-sink edge-disjoint paths of ``network`` with one packet index per path per phase.

    ``n`` is the delivered packet count; when the requested count is not a
    multiple of the max flow it is padded up, and ``requested_n`` keeps the
    original value. Valid and fitting its network by construction: the headers
    and rows pass ``_check_partitions``, and each row is kept as its ``PathPartition``;
    the sinks are the network's, each sink's paths are non-empty and run from the
    source to that sink along the network's edges, and paths through one edge
    carry one sequence, so a sink's paths are edge-disjoint.
    """

    network: Network
    n: int
    requested_n: int
    phases: int
    maxflow: int
    sinks: tuple[str, ...]
    paths: tuple[tuple[tuple[int, ...], ...], ...]
    assignment: tuple[PathPartition, ...]

    def __post_init__(self):
        if not len(self.paths) == len(self.assignment) == len(self.sinks):
            raise ValueError("per-sink path/assignment shape mismatch")
        header = (self.n, self.requested_n, self.phases, self.maxflow)
        parts = _check_partitions(*header, zip(self.sinks, self.assignment))
        object.__setattr__(self, "assignment", tuple(parts))
        net = self.network
        if sorted(self.sinks) != sorted(net.sinks):
            raise ValueError("schedule sinks do not match network sinks")
        edges, size, source = net.edges, len(net.edges), net.source
        carried: dict[int, tuple[int, ...]] = {}  # edge -> first sequence on it
        for sink, paths, seqs in zip(self.sinks, self.paths, self.assignment):
            if len(paths) != len(seqs) or not all(paths):
                raise ValueError(f"sink {sink}: needs {len(seqs)} non-empty paths")
            for j, (path, seq) in enumerate(zip(paths, seqs), 1):
                at, last = source, None  # the node the path has reached, by edge last
                for e in path:
                    if type(e) is not int or not 0 <= e < size:  # no bool, float or negative id
                        raise ValueError(f"sink {sink} path {j}: unknown edge id")
                    tail, head = edges[e]
                    if tail != at:
                        if last is None:
                            raise ValueError(f"sink {sink} path {j}: does not run source->sink")
                        raise ValueError(f"sink {sink} path {j}: edges {last},{e} do not connect")
                    carries = carried.setdefault(e, seq)
                    if carries is not seq and carries != seq:
                        t = next(t for t, ps in zip(self.sinks, self.paths) for q in ps if e in q)
                        raise ValueError(f"edge {e} carries {carries} for {t}, {seq} for {sink}")
                    at, last = head, e
                if at != sink:
                    raise ValueError(f"sink {sink} path {j}: does not run source->sink")

    @property
    def padding(self) -> int:
        return self.n - self.requested_n


def _colour_labels(
    sink_classes: Sequence[Sequence[int]], colours: int, slots: int
) -> dict[int, tuple[int, ...]] | None:
    """Each class's ascending slot colours in a slots-fold colouring of the
    conflict graph with the given number of colours, or None if there is none.

    Two classes conflict when one sink holds both; each sink holds f distinct
    classes. Depth-first search fills the (class, slot) pairs, classes in order
    of first appearance and a class's slots with ascending colours, each pair
    with the lowest colour that no sink holding the class has. The colours in
    use are always 0..top-1, and unused colours are interchangeable, so only
    the lowest of them, top, is tried. A colour is picked only if at least as
    many free colours lie above it as the class has slots left. Each sink's
    colours so far, and the colours a pair may try, are bitmasks.
    """
    sinks_of: dict[int, list[int]] = {}  # the sinks holding each class, classes by first appearance
    for si, classes in enumerate(sink_classes):
        for c in classes:
            sinks_of.setdefault(c, []).append(si)
    order = list(sinks_of.values())
    pairs = len(order) * slots  # pair k is slot k % slots of class k // slots
    full = (1 << colours) - 1
    masks = [0] * len(sink_classes)
    picks: list[int] = []
    tries = [1]  # colours 0..top before each pair on the branch, top capped at the last colour
    start = 0  # lowest colour the pair may take: above its class's last slot or a popped pick
    while len(picks) < pairs:
        k = len(picks)
        i, slot = divmod(k, slots)
        taken = 0
        for si in order[i]:
            taken |= masks[si]
        free = tries[k] >> start << start & ~taken
        x = (free & -free).bit_length() - 1
        left = slots - 1 - slot  # the class's slots after this pair
        if free and (not left or ((full & ~taken) >> (x + 1)).bit_count() >= left):
            bit = 1 << x
            for si in order[i]:
                masks[si] |= bit
            picks.append(x)
            tries.append(tries[k] | bit << 1 & full)
            start = x + 1 if left else 0
        elif picks:
            x = picks.pop()
            tries.pop()
            for si in order[(k - 1) // slots]:
                masks[si] ^= 1 << x
            start = x + 1
        else:
            return None
    return dict(zip(sinks_of, zip(*[iter(picks)] * slots)))  # picks in groups of slots


def build_schedule(net: Network, n: int) -> Schedule:
    """Search for a forwarding-only schedule delivering n packets to every sink.

    A path carries one packet per phase along its whole length, so paths of
    different sinks that share an edge carry the same sequence. Union-find
    groups the (sink, path) pairs into such classes; a sink with two paths in
    one class is rejected at once. Classes are labelled in order of first
    appearance (sinks in input order, paths in order), so that classes sharing
    a sink are disjoint: a p-fold colouring of their conflict graph with f*p
    colours. One search, ``_colour_labels``, runs in two passes, and colour x
    of a pass with w packets per colour gives packets x*w+1..x*w+w:

    - the block pass, an f-colouring with one slot per class (w = p);
    - the exact pass, f*p colours with p slots per class (w = 1), run only
      when the block pass fails, p >= 2 and f >= 3. At p = 1 the two passes
      are one problem. At f = 2 a sink's two classes hold complementary
      halves of 1..2p, so along the conflict graph the labels alternate
      between a set and its complement, and a p-fold colouring exists exactly
      when a 2-colouring does.

    The exact pass gives the lexicographically first valid labelling. Its
    search returns the lexicographically first colour vector over the
    ordered (class, slot) pairs that meets two rules: ascending slots within
    a class, and a new colour only as top. The lexicographically first valid
    vector meets both, since swapping two out-of-order slots of one class, or
    renaming a new colour to top, would give a smaller valid vector. So it is
    the first valid vector of all, and read class by class it is a list of
    ascending p-sets, the labelling, in the same order.

    If the block pass never backtracks, its labelling is that one too: while
    every class so far holds a block, the lowest free block is the p smallest
    packets free at the next class. A block pass that backtracks gives the
    lexicographically first labelling by blocks; that it is the first of all
    is not proven. Raises if sinks disagree on max flow or no consistent
    assignment exists.
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

    # Union-find over (sink, path) pairs, numbered si * f + j, joined by shared edges.
    parent = list(range(len(net.sinks) * f))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    owner: dict[int, int] = {}
    for si, paths in enumerate(sink_paths):
        for j, path in enumerate(paths):
            for e in path:
                if e in owner:
                    parent[find(si * f + j)] = find(owner[e])
                else:
                    owner[e] = si * f + j
    sink_classes = [[find(si * f + j) for j in range(f)] for si in range(len(net.sinks))]
    for sink, classes in zip(net.sinks, sink_classes):
        if len(set(classes)) < f:
            raise ScheduleError(
                f"no forwarding-only schedule: two paths of sink {sink} are joined "
                "by shared edges and would carry the same packets"
            )
    slots = 1
    colouring = _colour_labels(sink_classes, f, slots)
    if colouring is None and p > 1 and f > 2:
        slots = p
        colouring = _colour_labels(sink_classes, f * p, slots)
    if colouring is None:
        raise ScheduleError(
            f"no forwarding-only schedule for {p * f} packets on {f} paths: "
            "shared edges impose conflicting packet sets"
        )
    w = p // slots
    # One tuple per label, so Schedule's per-edge check meets equal sequences by identity.
    labels = {xs: tuple([y for x in xs for y in range(x * w + 1, x * w + w + 1)])
              for xs in set(colouring.values())}
    seqs = {c: labels[xs] for c, xs in colouring.items()}
    # The labels are ints, so equal rows are one partition, proven once.
    rows = [tuple([seqs[c] for c in classes]) for classes in sink_classes]
    parts = {row: PathPartition(row) for row in dict.fromkeys(rows)}
    return Schedule(
        network=net,
        n=p * f,
        requested_n=n,
        phases=p,
        maxflow=f,
        sinks=net.sinks,
        paths=tuple([tuple(paths) for paths in sink_paths]),
        assignment=tuple([parts[row] for row in rows]),
    )


def validate_schedule(net: Network, sched: Schedule) -> list[str]:
    """Why a schedule does not fit a network (empty if it does). A ``Schedule``
    fits its own ``network`` by construction, so this compares the two."""
    return [] if sched.network == net else ["schedule was made for another network"]


def format_schedule(sched: Schedule) -> str:
    lines = [
        f"n {sched.n}",
        f"requested_n {sched.requested_n}",
        f"phases {sched.phases}",
        f"maxflow {sched.maxflow}",
    ]
    for si, sink in enumerate(sched.sinks):
        lines.append(f"sink {sink}")
        for path, seq in zip(sched.paths[si], sched.assignment[si]):
            nodes = " ".join(path_nodes(sched.network, path))
            packets = " ".join(str(x) for x in seq)
            lines.append(f"path {nodes} : {packets}")
    return "\n".join(lines) + "\n"


def _resolve_path(net: Network, names: list[str], taken: set[int]) -> tuple[int, ...]:
    out_ = net.adjacency[0]
    path = []
    for a, b in zip(names, names[1:]):
        eid = next(
            (i for i in out_.get(a, ()) if net.edges[i][1] == b and i not in taken),
            None,
        )
        if eid is None:
            raise ParseError(f"no unused edge {a}->{b} available for path")
        taken.add(eid)
        path.append(eid)
    return tuple(path)


_SCHEDULE_HEADERS = ("n", "requested_n", "phases", "maxflow")


def _parse_schedule_lines(text: str) -> tuple[
    dict[str, int], dict[str, list[tuple[list[str], tuple[int, ...]]]]
]:
    """The four headers and each sink section's non-empty (node names, packets) rows."""
    header: dict[str, int] = {}
    sections: dict[str, list[tuple[list[str], tuple[int, ...]]]] = {}
    rows: list[tuple[list[str], tuple[int, ...]]] | None = None
    for lineno, line, toks in _directives(text):
        if toks[0] in _SCHEDULE_HEADERS:
            if len(toks) != 2 or not (toks[1].isascii() and toks[1].isdecimal()):
                raise ParseError(f"line {lineno}: bad header {line.strip()!r}")
            if toks[0] in header:
                raise ParseError(f"line {lineno}: second {toks[0]!r} header")
            header[toks[0]] = int(toks[1])
        elif toks[0] == "sink":
            if len(toks) != 2:
                raise ParseError(f"line {lineno}: bad sink directive")
            if toks[1] in sections:
                raise ParseError(f"line {lineno}: second section for sink {toks[1]!r}")
            rows = sections[toks[1]] = []
        elif toks[0] == "path":
            if rows is None:
                raise ParseError(f"line {lineno}: path before any sink")
            if ":" not in toks:
                raise ParseError(f"line {lineno}: path line missing ':'")
            # Packet tokens are decimal, so the last ':' ends the node names
            # even when a node is itself named ':'.
            sep = len(toks) - 1 - toks[::-1].index(":")
            names = toks[1:sep]
            if len(names) < 2:
                raise ParseError(f"line {lineno}: path needs at least two nodes: {names!r}")
            if not all(t.isascii() and t.isdecimal() and int(t) > 0 for t in toks[sep + 1:]):
                raise ParseError(f"line {lineno}: packet indexes must be integers from 1")
            rows.append((names, tuple(int(t) for t in toks[sep + 1:])))
        else:
            raise ParseError(f"line {lineno}: bad directive {line.strip()!r}")
    for key in _SCHEDULE_HEADERS:
        if key not in header:
            raise ParseError(f"schedule missing '{key}' header")
    if not sections:
        raise ParseError("schedule lists no sinks")
    for sink, rows in sections.items():
        if not rows:
            raise ParseError(f"sink {sink!r} section has no path lines")
    return header, sections


def parse_schedule(net: Network, text: str) -> Schedule:
    """A schedule that is valid and fits ``net``; anything else is a ParseError."""
    header, sections = _parse_schedule_lines(text)
    paths, seqs = [], []
    for rows in sections.values():
        taken: set[int] = set()
        paths.append(tuple(_resolve_path(net, names, taken) for names, _ in rows))
        seqs.append(tuple(packets for _, packets in rows))
    try:
        return Schedule(
            net, sinks=tuple(sections), paths=tuple(paths), assignment=tuple(seqs), **header
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_schedule_partitions(text: str) -> dict[str, PathPartition]:
    """Per-sink path partitions from a schedule file, no network needed; they
    and the headers must pass ``_check_partitions``."""
    header, sections = _parse_schedule_lines(text)
    seqs = [(sink, tuple(packets for _, packets in rows)) for sink, rows in sections.items()]
    try:
        return dict(zip(sections, _check_partitions(partitions=seqs, **header)))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


@dataclass(frozen=True)
class SinkReport:
    sink: str
    received: tuple[tuple[int, ...], ...]

    @property
    def phases_to_decode(self) -> int:
        # A valid schedule brings fewer than n packets before its last phase.
        return len(self.received)


@dataclass(frozen=True)
class SimulationReport:
    schedule: Schedule
    sinks: tuple[SinkReport, ...]
    all_decoded: bool


def simulate(
    net: Network, sched: Schedule, scheme: CodingScheme, block: SourceBlock
) -> SimulationReport:
    """Replay the phase schedule and decode from headers alone.

    A valid ``Schedule`` that fits ``net`` brings every sink the same n
    distinct coded packets, fewer than n of them before the last phase, so
    the first sink's packets are decoded once, in arrival order, and that
    verdict serves every sink.
    """
    problems = validate_schedule(net, sched)
    if problems:
        raise ScheduleError("; ".join(problems))
    if scheme.n != sched.n:
        raise ValueError(f"scheme carries {scheme.n} packets, schedule delivers {sched.n}")
    coded = encode(scheme, block)
    # Tuples from lists, not iterators, which would pin free tuples (see CodedPacket.header).
    sinks = tuple([
        SinkReport(sink, tuple([*zip(*seqs)])) for sink, seqs in zip(sched.sinks, sched.assignment)
    ])
    recovered = decode(
        [coded[i - 1] for idxs in sinks[0].received for i in idxs],
        scheme.n,
        original_len=block.original_len,
    )
    return SimulationReport(sched, sinks, recovered.packets == block.packets)


def format_simulation_report(report: SimulationReport) -> str:
    sched = report.schedule
    lines = [
        f"n={sched.n} requested_n={sched.requested_n} phases={sched.phases} "
        f"maxflow={sched.maxflow} padding={sched.padding}"
    ]
    status = "ok" if report.all_decoded else "fail"
    for r in report.sinks:
        for phase, idxs in enumerate(r.received, start=1):
            packets = ",".join(str(i) for i in idxs)
            lines.append(f"sink={r.sink} phase={phase} packets={packets}")
        lines.append(f"sink={r.sink} decode={status} phases_needed={r.phases_to_decode}")
    decoded = len(report.sinks) if report.all_decoded else 0
    lines.append(f"summary sinks={len(report.sinks)} decoded={decoded}")
    return "\n".join(lines) + "\n"
