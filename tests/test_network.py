import collections
import copy
import dataclasses
import hashlib
import itertools
import pickle
import random
import re
import tracemalloc
from typing import Iterator
from unittest import mock

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import EXAMPLE_SQUARE, FIG1_TEXT, FIG2_TEXT, FIG3_TEXT, TABLE1_SCHEDULE, L5X12
from oracles import (
    exhaustive_schedule,
    header_phases_to_decode,
    reference_subset_labels,
    schedule_problems,
    whole_graph_edge_disjoint_paths,
)
from xorcode import (
    MODE_BALANCED_DECODE,
    MODE_DIRECT,
    MODES,
    BitMatrix,
    CodingScheme,
    Network,
    ParseError,
    PathPartition,
    Schedule,
    ScheduleError,
    SourceBlock,
    TopologyError,
    build_schedule,
    decode,
    edge_disjoint_paths,
    encode,
    format_schedule,
    find_nonsingular_rectangle,
    format_simulation_report,
    make_scheme,
    parse_network,
    parse_schedule,
    parse_schedule_partitions,
    path_nodes,
    simulate,
    split_upper,
    validate_schedule,
)
from xorcode import network

CHAIN = "source s\nsink t\nedge s a\nedge a t\n"


def relay_ring(size: int) -> str:
    """size single-feed relays in a ring; sink i reads relays i and i+1."""
    relays = [f"r{i}" for i in range(size)]
    lines = ["source s"] + [f"sink t{i}" for i in range(size)]
    lines += [f"edge s {r}" for r in relays]
    for i in range(size):
        lines += [f"edge {relays[i]} t{i}", f"edge {relays[(i + 1) % size]} t{i}"]
    return "\n".join(lines) + "\n"


TRIANGLE = relay_ring(3)

# The second augmenting path s->b->c must cancel the first path's a->c edge
# and continue a->d->t, giving paths (0, 3, 6) and (1, 4, 5).
CANCELS_FLOW = (
    "source s\nsink t\n"
    "edge s a\nedge s b\nedge a c\nedge a d\nedge b c\nedge c t\nedge d t\n"
)

# CANCELS_FLOW inside a larger network: the source has an in-edge from z, x
# lies on no source-sink path, and a's and c's out-edges to the other sink u
# come before their edges towards t, so t's ancestors a and c have out-edges
# that its flow never uses. t's paths are (2, 6, 10) and (3, 7, 9).
CANCELS_FLOW_AMID_OTHERS = (
    "source s\nsink t\nsink u\n"
    "edge z s\nedge s x\nedge s a\nedge s b\nedge a u\nedge a c\nedge a d\n"
    "edge b c\nedge c u\nedge c t\nedge d t\nedge b u\n"
)

# The reverse walk from t expands a before b, so it collects m's out-edges as
# 2, then 1; the BFS must still try them in id order, which gives (0, 1, 3).
DESCENDING_WALK = "source s\nsink t\nedge s m\nedge m b\nedge m a\nedge b t\nedge a t\n"

# t2's first path s->a->t2 shares its s->a edge with t1's path s->a->t1 and
# its a->t2 edge with t1's path s->a->t2->t1, so those two t1 paths would have
# to carry the same packets.
JOINED_BY_OTHER_SINK = (
    "source s\nsink t1\nsink t2\n"
    "edge a t1\nedge a t2\nedge t2 t1\nedge a t1\nedge s a\nedge s a\n"
    "edge a t2\nedge s a\nedge s a\nedge a t2\n"
)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_network("edge a b\nsink b\n")  # no source
    with pytest.raises(ParseError):
        parse_network("source s\nedge s t\n")  # no sink
    with pytest.raises(ParseError):
        parse_network("source s\nsink t\nlink s t\n")
    with pytest.raises(ParseError, match="line 3: second source directive"):
        parse_network("source s\nsink t\nsource t\nedge s t\n")
    with pytest.raises(TopologyError, match="self-loop on 't'"):
        parse_network("source s\nsink t\nedge s t\nedge t t\n")
    headers_only = "n 4\nrequested_n 4\nphases 2\nmaxflow 2\n"
    with pytest.raises(ParseError, match="schedule lists no sinks"):
        parse_schedule_partitions(headers_only)
    with pytest.raises(ParseError, match="schedule lists no sinks"):
        parse_schedule(parse_network(CHAIN), headers_only)
    # A path that names no edge is reported before the sink's bad partition.
    lost = "n 2\nrequested_n 2\nphases 2\nmaxflow 1\nsink t\npath s b t : 1 1\n"
    with pytest.raises(ParseError, match="^sink t: packet sets do not partition 1..2$"):
        parse_schedule_partitions(lost)
    with pytest.raises(ParseError, match="^no unused edge s->b available for path$"):
        parse_schedule(parse_network(CHAIN), lost)


def test_network_invariants():
    with pytest.raises(TopologyError):
        Network(("a", "b", "s", "t"), (("a", "b"), ("b", "a"), ("s", "t")), "s", ("t",))
    with pytest.raises(ValueError):
        Network(("s",), (), "s", ("s",))
    for args, message in (
        ((("s", "t", "s"), (), "s", ("t",)), "duplicate node names"),
        ((("a", "t"), (), "s", ("t",)), "unknown source 's'"),
        ((("s", "t"), (), "s", ("u",)), "unknown sink 'u'"),
        ((("s", "t"), (("s", "x"),), "s", ("t",)), r"edge \('s', 'x'\) references unknown node"),
        ((("s", "t"), (), "s", ()), "at least one sink is required"),
    ):
        with pytest.raises(ValueError, match=message):
            Network(*args)


@pytest.mark.parametrize("name", ["", "a b", "a\tb", "a\u2028b", "#x", "x#"])
def test_network_rejects_names_the_text_formats_cannot_write(name):
    # Both formats split on whitespace and cut '#' comments: for a relay
    # "a b", format_schedule would write "path s a b t : 1 2".
    with pytest.raises(ValueError, match="is empty or holds whitespace or '#'"):
        Network(("s", name, "t"), (("s", name), (name, "t")), "s", ("t",))


def test_max_flow_examples(fig1, fig3):
    assert len(edge_disjoint_paths(fig1, "t1")) == 2
    assert len(edge_disjoint_paths(fig1, "t2")) == 2
    assert len(edge_disjoint_paths(fig3, "t1")) == 3
    chain = parse_network(CHAIN)
    assert len(edge_disjoint_paths(chain, "t")) == 1


def test_max_flow_unreachable():
    net = parse_network("source s\nsink t\nnode x\nedge s x\n")
    assert edge_disjoint_paths(net, "t") == []


def test_max_flow_requires_declared_sink(fig1):
    with pytest.raises(ValueError):
        edge_disjoint_paths(fig1, "u1")


def test_edge_disjoint_paths(fig1, fig3):
    for net, sink, expect in ((fig1, "t1", 2), (fig3, "t2", 3)):
        paths = edge_disjoint_paths(net, sink)
        assert len(paths) == expect
        seen = set()
        for path in paths:
            assert not (seen & set(path))
            seen |= set(path)
            nodes = path_nodes(net, path)
            assert nodes[0] == "s" and nodes[-1] == sink
    assert edge_disjoint_paths(parse_network(CANCELS_FLOW), "t") == [(0, 3, 6), (1, 4, 5)]
    assert edge_disjoint_paths(parse_network(CANCELS_FLOW_AMID_OTHERS), "t") == [(2, 6, 10), (3, 7, 9)]


def embed_cancels_flow(draw, names, source, edges):
    """Add CANCELS_FLOW on source and five new nodes; return its sink.

    Its edges go among the others in their own order, and no other edge
    touches its new nodes, so its sink's second path must cancel flow.
    """
    a, b, c, d, t = fresh = [f"v{len(names) + i}" for i in range(5)]
    names += fresh
    gadget = [(source, a), (source, b), (a, c), (a, d), (b, c), (c, t), (d, t)]
    spots = sorted(draw(st.lists(st.integers(0, len(edges)), min_size=7, max_size=7)))
    for offset, (spot, edge) in enumerate(zip(spots, gadget)):
        edges.insert(spot + offset, edge)
    return t


@st.composite
def dag_multigraphs(draw):
    """A DAG multigraph whose node and edge order do not follow its topology.

    Edges run up the numbering of v0..vk, some of them parallel, and are
    listed in a drawn order. The source is one of the lower half, so it may
    have in-edges; nodes on no source-sink path and sinks the source cannot
    reach are common. Random edges almost never make a flow cancel, so half
    the draws add CANCELS_FLOW on five new nodes, its end a sink.
    """
    k = draw(st.integers(2, 8))
    names = [f"v{i}" for i in range(k)]
    ends = st.integers(0, k - 1)
    wired = draw(st.lists(st.tuples(ends, ends, st.integers(1, 3)), min_size=2 * k, max_size=30))
    edges = [
        (names[min(u, v)], names[max(u, v)]) for u, v, copies in wired if u != v for _ in range(copies)
    ]
    source = names[draw(st.integers(0, k // 2))]
    others = [x for x in names if x != source]
    sinks = draw(st.lists(st.sampled_from(others), min_size=1, max_size=4, unique=True))
    rng = draw(st.randoms(use_true_random=False))
    rng.shuffle(edges)
    if draw(st.booleans()):
        sinks.append(embed_cancels_flow(draw, names, source, edges))
    rng.shuffle(names)
    return Network(tuple(names), tuple(edges), source, tuple(sinks))


@settings(deadline=None, max_examples=400)
@given(dag_multigraphs())
@example(parse_network(CANCELS_FLOW))
@example(parse_network(CANCELS_FLOW_AMID_OTHERS))
@example(parse_network(DESCENDING_WALK))
def test_edge_disjoint_paths_match_whole_graph_reference(net):
    # The max flow on each sink's ancestors gives the whole-network flow's paths.
    for t in net.sinks:
        assert edge_disjoint_paths(net, t) == whole_graph_edge_disjoint_paths(net, t)


@st.composite
def balanced_networks(draw):
    """A union of source-sink paths through shared relays, plus decoy edges.

    Each relay is fed once, by s or by an earlier relay, so the children of
    s root branches of relays. A sink reads one relay in each of some
    branches, or none, and may have edges straight from s: among a sink's
    ancestor edges every relay then feeds as often as it is fed. Relays that
    feed no sink and decoy nodes hung from any node add edges that reach no
    sink. Edges and nodes are listed in a drawn order.
    """
    relays = [f"r{i}" for i in range(draw(st.integers(1, 8)))]
    edges = []
    branch: dict[str, str] = {}
    for i, r in enumerate(relays):
        feed = draw(st.sampled_from(["s"] + relays[:i]))
        edges.append((feed, r))
        branch[r] = r if feed == "s" else branch[feed]
    sinks = [f"t{i}" for i in range(draw(st.integers(1, 4)))]
    for t in sinks:
        for root in draw(st.lists(st.sampled_from(sorted(set(branch.values()))), unique=True)):
            edges.append((draw(st.sampled_from([r for r in relays if branch[r] == root])), t))
        edges += [("s", t)] * draw(st.integers(0, 2))
    names = ["s"] + relays + sinks
    for i in range(draw(st.integers(0, 4))):
        tails = draw(st.lists(st.sampled_from(names), min_size=1, max_size=2))
        edges += [(u, f"d{i}") for u in tails]
        names.append(f"d{i}")
    rng = draw(st.randoms(use_true_random=False))
    rng.shuffle(edges)
    rng.shuffle(names)
    return Network(tuple(names), tuple(edges), "s", tuple(sinks))


@settings(deadline=None, max_examples=200)
@given(balanced_networks())
def test_balanced_sinks_match_whole_graph_reference_without_search(net):
    # A balanced sink's ancestor edges are the whole-network flow's edges.
    with mock.patch.object(network, "_augmenting_flow", side_effect=AssertionError("searched")):
        for t in net.sinks:
            assert edge_disjoint_paths(net, t) == whole_graph_edge_disjoint_paths(net, t)


def test_edge_disjoint_paths_parallel_edges():
    net = parse_network("source s\nsink t\nedge s t\nedge s t\n")
    paths = edge_disjoint_paths(net, "t")
    assert paths == [(0,), (1,)]


def test_num_phases(fig1, fig3):
    # ceil(n / maxflow) phases
    assert build_schedule(fig1, 4).phases == 2
    assert build_schedule(fig3, 12).phases == 4
    assert build_schedule(fig1, 5).phases == 3
    for n in (0, -1):
        with pytest.raises(ValueError):
            build_schedule(fig1, n)
    with pytest.raises(TopologyError, match="unreachable"):
        build_schedule(parse_network("source s\nsink t\nnode x\nedge s x\n"), 4)


def test_num_phases_covers_demand(fig1, fig3):
    # the fewest whole phases that carry n packets, padded up to a multiple of the flow
    for net, f in ((parse_network(CHAIN), 1), (fig1, 2), (fig3, 3)):
        for n in range(1, 20):
            sched = build_schedule(net, n)
            assert sched.maxflow == f and sched.requested_n == n
            assert sched.n == sched.phases * f
            assert n <= sched.n < n + f


def test_build_schedule_fig1(fig1):
    sched = build_schedule(fig1, 4)
    assert sched.phases == 2 and sched.maxflow == 2 and sched.padding == 0
    assert validate_schedule(fig1, sched) == []
    for sink in fig1.sinks:
        seqs = sched.assignment[sched.sinks.index(sink)]
        assert {frozenset(seq) for seq in seqs} == {frozenset({1, 2}), frozenset({3, 4})}


def test_build_schedule_fig2(fig2):
    sched = build_schedule(fig2, 4)
    assert sched.phases == 2
    assert validate_schedule(fig2, sched) == []


def test_build_schedule_fig3(fig3):
    sched = build_schedule(fig3, 12)
    assert sched.phases == 4
    assert validate_schedule(fig3, sched) == []
    # both sinks share all relays, so their partitions agree
    t1, t2 = (sched.assignment[sched.sinks.index(t)] for t in ("t1", "t2"))
    assert [frozenset(seq) for seq in t1] == [frozenset(seq) for seq in t2]


def test_build_schedule_single_path_chain():
    net = parse_network(CHAIN)
    sched = build_schedule(net, 3)
    assert sched.maxflow == 1 and sched.phases == 3
    assert sched.assignment == (((1, 2, 3),),)


def test_build_schedule_pads_to_flow_multiple(fig1):
    sched = build_schedule(fig1, 5)
    assert sched.n == 6 and sched.requested_n == 5 and sched.padding == 1
    assert sched.phases == 3
    assert validate_schedule(fig1, sched) == []


def test_build_schedule_unequal_flows():
    net = parse_network(
        "source s\nsink t1\nsink t2\nedge s a\nedge s b\nedge a t1\nedge b t1\nedge a t2\n"
    )
    with pytest.raises(TopologyError, match="unequal"):
        build_schedule(net, 4)


def test_build_schedule_infeasible_triangle():
    # three sinks pairing three single-feed relays force contradictory sets
    net = parse_network(
        "source s\nsink t1\nsink t2\nsink t3\n"
        "edge s a\nedge s b\nedge s c\n"
        "edge a t1\nedge b t1\nedge a t2\nedge c t2\nedge b t3\nedge c t3\n"
    )
    with pytest.raises(ScheduleError):
        build_schedule(net, 4)


def test_table1_assignment_passes_validator(fig2):
    sched = parse_schedule(fig2, TABLE1_SCHEDULE)
    assert validate_schedule(fig2, sched) == []
    # per-phase receptions at the first and last sinks
    si = sched.sinks.index("t1")
    phase1 = {sched.assignment[si][j][0] for j in range(2)}
    phase2 = {sched.assignment[si][j][1] for j in range(2)}
    assert (phase1, phase2) == ({4, 1}, {2, 3})
    si = sched.sinks.index("t6")
    assert {sched.assignment[si][j][0] for j in range(2)} == {3, 2}


def test_validator_rejects_inconsistent_shared_relay(fig2):
    # t2's copy of the s->u1 relay must carry the same per-phase packets as
    # t1's. Each sink's packets still partition 1..4, so only the network-free
    # reader accepts the file; parse_schedule rejects it where it enters.
    twisted = TABLE1_SCHEDULE.replace("path s u1 t2 : 4 2", "path s u1 t2 : 2 4")
    with pytest.raises(ParseError, match=re.escape("edge 0 carries (4, 2) for t1, (2, 4) for t2")):
        parse_schedule(fig2, twisted)
    assert parse_schedule_partitions(twisted)["t2"] == ((2, 4), (3, 1))


def test_validator_catches_problems(fig1):
    # Each invariant of Schedule, its fit to its network included, has a field
    # edit that breaks it, and the constructor names the first problem.
    sched = build_schedule(fig1, 4)  # t1: paths (0, 2), (1, 4) carry (1, 2), (3, 4)
    t1, t2 = sched.assignment
    cases = [
        (dict(maxflow=0), "non-positive maxflow or phase count"),
        (dict(n=0, requested_n=0, phases=0, assignment=(((), ()),) * 2), "non-positive maxflow"),
        (dict(n=6), "n=6 is not phases*maxflow=4"),
        (dict(requested_n=2), "requested_n=2 is not in 3..4"),
        (dict(sinks=("t1",)), "per-sink path/assignment shape mismatch"),
        (dict(assignment=(t1[:1], t2)), "sink t1: needs 2 paths of 2 packets each"),
        (
            dict(assignment=(((1, 2, 3), (4,)), t2)),
            "sink t1: partition needs one or more non-empty path sets of equal size",
        ),
        (dict(assignment=(((1, 2), (1, 4)), t2)), "sink t1: packet sets do not partition 1..4"),
        (dict(paths=(((0, 2), ()), sched.paths[1])), "sink t1: needs 2 non-empty paths"),
        (dict(paths=(sched.paths[0][:1], sched.paths[1])), "sink t1: needs 2 non-empty paths"),
        # Paths of one sink that share an edge carry two of its disjoint sequences.
        (dict(paths=(((0, 2), (0, 4)), sched.paths[1])), "carries (1, 2) for t1, (3, 4) for t1"),
        (dict(assignment=(((3, 4), (1, 2)), t2)), "edge 0 carries (3, 4) for t1, (1, 2) for t2"),
        (dict(sinks=("t1", "t3")), "schedule sinks do not match network sinks"),
        # Three fit problems; the first in sink and path order is named.
        (dict(paths=(((0, 2), (9, 4)), ((2, 3), (1, 5)))), "sink t1 path 2: unknown edge id"),
        (dict(paths=(sched.paths[0], ((2, 3), (1, 5)))), "sink t2 path 1: does not run source->sink"),
    ]
    for edit, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            dataclasses.replace(sched, **edit)
    # Swapping every class's packets keeps the schedule valid.
    assert dataclasses.replace(sched, assignment=((t1[1], t1[0]), (t2[1], t2[0])))


def test_schedule_paths_fit_the_network():
    # Edge 3 runs s->u, so (-1,) would be a valid path of u if -1 indexed
    # from the end; edge ids are 0..3, and a path must run from s to its own
    # sink along connected edges. Each case breaks only that rule.
    net = parse_network("source s\nsink t\nsink u\nedge s a\nedge a t\nedge a u\nedge s u\n")
    header = dict(n=2, requested_n=2, phases=2, maxflow=1)
    fields = dict(header, sinks=("t", "u"), assignment=(((1, 2),), ((1, 2),)))
    assert Schedule(net, paths=(((0, 1),), ((3,),)), **fields).network is net
    cases = [
        ((-1,), "sink u path 1: unknown edge id"),
        ((4,), "sink u path 1: unknown edge id"),
        ((0, 1), "sink u path 1: does not run source->sink"),
        ((3, 1), "sink u path 1: edges 3,1 do not connect"),
    ]
    for path, message in cases:
        with pytest.raises(ValueError) as exc:
            Schedule(net, paths=(((0, 1),), (path,)), **fields)
        assert str(exc.value) == message
    # The reader builds the same Schedule, so it names the same problem.
    text = "n 2\nrequested_n 2\nphases 2\nmaxflow 1\nsink t\npath s a t : 1 2\nsink u\n"
    assert parse_schedule(net, text + "path s u : 1 2\n").paths == (((0, 1),), ((3,),))
    with pytest.raises(ParseError, match="^sink u path 1: does not run source->sink$"):
        parse_schedule(net, text + "path s a t : 1 2\n")


def test_schedule_edge_ids_are_ints():
    # False and True index edges 0 and 1, and 0.0 is no tuple index; each is
    # rejected as an unknown edge id of the path that holds it.
    net = parse_network("source s\nsink t\nedge s a\nedge a t\n")
    sched = build_schedule(net, 2)
    for path in ((False, True), (0.0, 1)):
        with pytest.raises(ValueError) as exc:
            dataclasses.replace(sched, paths=((path,),))
        assert str(exc.value) == "sink t path 1: unknown edge id"


def test_network_without_a_sink_is_a_parse_error():
    # The constructor's check is the only one, and the reader reports it.
    with pytest.raises(ParseError, match="^at least one sink is required$"):
        parse_network("source s\nedge s t\n")


def test_schedule_names_the_first_carrier_of_a_conflicting_edge(fig1):
    # The constructor keeps only each edge's first sequence and finds the sink
    # that carried it when it raises.
    sched = build_schedule(fig1, 4)  # t1: (0, 2), (1, 4); t2: (0, 3), (1, 5); both (1, 2), (3, 4)
    # t1 reads relays a, b; t2 and t3 both read c, d, whose feeds are edges 2, 3.
    net = parse_network(
        "source s\nsink t1\nsink t2\nsink t3\n"
        + "".join(f"edge s {r}\n" for r in "abcd")
        + "".join(f"edge {r} {t}\n" for t, rs in (("t1", "ab"), ("t2", "cd"), ("t3", "cd")) for r in rs)
    )
    three = build_schedule(net, 4)  # every sink carries (1, 2), (3, 4)
    a1, a2, a3 = three.assignment
    cases = [
        # t1's second path carries edge 1 first.
        (
            sched,
            dict(paths=(sched.paths[0], sched.paths[1][::-1])),
            "edge 1 carries (3, 4) for t1, (1, 2) for t2",
        ),
        # t2, not sinks[0] and not the sink that conflicts, carries edge 2 first.
        (three, dict(assignment=(a1, a2, a3[::-1])), "edge 2 carries (1, 2) for t2, (3, 4) for t3"),
    ]
    for built, edit, message in cases:
        with pytest.raises(ValueError) as exc:
            dataclasses.replace(built, **edit)
        assert str(exc.value) == message


def test_schedule_rejects_non_int_packets(fig1):
    # 1.0 and True equal 1, so only the type check keeps format_schedule's
    # output readable by parse_schedule.
    sched = build_schedule(fig1, 4)
    for bad in (1.0, True):
        with pytest.raises(ValueError, match="sink t1: packet indexes must be ints"):
            dataclasses.replace(sched, assignment=(((bad, 2), (3, 4)), ((1, 2), (3, 4))))


def test_validator_checks_requested_n(fig3):
    # build_schedule pads a request for 10..12 packets on 3 paths up to 12.
    sched = build_schedule(fig3, 12)
    text = format_schedule(sched)
    for requested_n, flagged in ((40, True), (9, True), (10, False), (12, False)):
        edited = text.replace("requested_n 12", f"requested_n {requested_n}")
        if flagged:
            message = f"requested_n={requested_n} is not in 10..12"
            for parse in (lambda t: parse_schedule(fig3, t), parse_schedule_partitions):
                with pytest.raises(ParseError, match=message):
                    parse(edited)
            with pytest.raises(ValueError, match=message):
                dataclasses.replace(sched, requested_n=requested_n)
        else:
            assert parse_schedule(fig3, edited).requested_n == requested_n


def test_validator_cost_follows_the_schedule_not_its_n_header():
    # Schedules that claim a million packets on one path: rejecting one must
    # not build or sort 1..n to find that its packets are not n of them.
    net = parse_network(CHAIN)
    cases = [
        (1, 1, (1,), "n=1000000 is not phases*maxflow=1"),
        (1000, 1000, tuple(range(1, 1001)), "sink t: needs 1000 paths of 1000 packets each"),
    ]
    for phases, maxflow, packets, message in cases:
        header = dict(n=1000000, requested_n=1000000, phases=phases, maxflow=maxflow)
        text = "".join(f"{k} {v}\n" for k, v in header.items()) + "sink t\npath s a t :"
        text += "".join(f" {x}" for x in packets) + "\n"
        one_path = dict(sinks=("t",), paths=(((0, 1),),), assignment=((packets,),))
        readers = [
            (ParseError, lambda: parse_schedule(net, text)),
            (ParseError, lambda: parse_schedule_partitions(text)),
            (ValueError, lambda: Schedule(net, **header, **one_path)),
        ]
        for error, read in readers:
            tracemalloc.start()
            try:
                with pytest.raises(error, match=re.escape(message)):
                    read()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, (message, peak)


def test_simulate_rejects_invalid_schedule(fig1, fig2):
    # simulate decodes one sink's packets for all sinks, which is sound only
    # on the network the schedule was made for: a fig1 schedule names two of
    # fig2's six sinks, and on fig1 with its edges reversed its edge ids name
    # other edges.
    sched = build_schedule(fig1, 4)
    scheme = make_scheme(split_upper(EXAMPLE_SQUARE, 3), MODE_DIRECT)
    block = SourceBlock.from_packets([bytes([i]) * 3 for i in range(4)])
    reversed_edges = Network(fig1.nodes, fig1.edges[::-1], fig1.source, fig1.sinks)
    for net in (fig2, reversed_edges):
        with pytest.raises(ScheduleError, match="^schedule was made for another network$"):
            simulate(net, sched, scheme, block)
    assert simulate(fig1, sched, scheme, block).all_decoded


def test_schedule_text_roundtrip(fig3):
    # A relay named ':' puts the separator token among a path's node names.
    colon = parse_network(FIG1_TEXT.replace("u1", ":"))
    for net, n in ((fig3, 12), (colon, 4)):
        sched = build_schedule(net, n)
        text = format_schedule(sched)
        assert parse_schedule(net, text) == sched
        parts = parse_schedule_partitions(text)
        assert set(parts) == {"t1", "t2"}
        assert parts["t1"] == sched.assignment[sched.sinks.index("t1")]


# A searched flow keeps a higher-id parallel edge after cancelling a lower
# one, and the reader resolves a node pair to its lowest unused edge. The
# schedule format names no edge ids, so the library writes schedules it cannot
# read back; the fix is for the format to name the edges where it must.
PARALLEL_FLOW = (
    "source s\nsink t\n"
    "edge s a\nedge s a\nedge a c\nedge a c\nedge c t\nedge c t\n"
    "edge s b\nedge b c\nedge a d\nedge d t\n"
)
PARALLEL_FLOW_TWO_SINKS = (
    "source s\nsink t\nsink u\n"
    "edge s a\nedge a u\nedge a c\nedge s a\nedge c t\nedge a c\nedge d t\n"
    "edge c t\nedge c u\nedge a d\nedge b u\nedge b c\nedge s b\n"
)


@pytest.mark.xfail(
    raises=AssertionError, strict=True, reason="schedule files do not name parallel edges"
)
def test_schedule_with_a_cancelled_parallel_edge_roundtrips():
    net = parse_network(PARALLEL_FLOW)
    # t's paths (0, 3, 4), (1, 8, 9), (6, 7, 5) read back as (0, 2, 4), ...
    sched = build_schedule(net, 3)
    assert parse_schedule(net, format_schedule(sched)) == sched


@pytest.mark.xfail(
    raises=ParseError, strict=True, reason="schedule files do not name parallel edges"
)
def test_two_sink_schedule_with_a_cancelled_parallel_edge_roundtrips():
    net = parse_network(PARALLEL_FLOW_TWO_SINKS)
    # Read back, edge 2 carries (1,) for t and (2,) for u.
    sched = build_schedule(net, 3)
    assert parse_schedule(net, format_schedule(sched)) == sched


def test_schedule_readers_return_partitions(fig2, partition_proofs):
    # Both readers prove each sink's row once, into the PathPartition they hand
    # back; it equals the plain tuples the file lists. Table 1 has six sinks
    # and four distinct rows.
    table1 = {
        "t1": ((4, 2), (1, 3)), "t2": ((4, 2), (3, 1)), "t3": ((4, 2), (3, 1)),
        "t4": ((1, 3), (2, 4)), "t5": ((1, 3), (2, 4)), "t6": ((3, 1), (2, 4)),
    }
    parts = parse_schedule_partitions(TABLE1_SCHEDULE)
    assert parts == table1 and len(partition_proofs) == 6
    assert all(type(part) is PathPartition for part in parts.values())
    assert parts["t2"] == parts["t3"] and parts["t4"] == parts["t5"]
    sched = parse_schedule(fig2, TABLE1_SCHEDULE)
    assert sched.assignment == tuple(table1.values()) and len(partition_proofs) == 12
    assert all(type(row) is PathPartition for row in sched.assignment)
    assert sched.assignment[1] == sched.assignment[2]
    # A schedule built from another's rows takes them as they are.
    assert dataclasses.replace(sched).assignment[0] is sched.assignment[0]
    assert len(partition_proofs) == 12


def test_a_repeated_row_of_floats_is_still_proven(fig1, partition_proofs):
    # Every plain row is proven, so a row holding 1.0, which compares and
    # hashes equal to 1, fails beside an equal row of ints.
    sched = build_schedule(fig1, 4)
    row = tuple(map(tuple, sched.assignment[0]))
    floats = tuple(tuple(float(x) if x == 1 else x for x in seq) for seq in row)
    assert floats == row and hash(floats) == hash(row)
    del partition_proofs[:]
    with pytest.raises(ValueError, match="^sink t2: packet indexes must be ints$"):
        dataclasses.replace(sched, assignment=(row, floats))
    assert partition_proofs == [row, floats]
    # Only a PathPartition is taken as it is: the same plain row twice is proven twice.
    del partition_proofs[:]
    dataclasses.replace(sched, assignment=(row, row))
    assert partition_proofs == [row, row]


def test_sinks_with_equal_rows_share_one_partition(partition_proofs):
    # build_schedule labels with ints, so equal rows are one partition: it is
    # proven once and every sink that carries it holds the same object.
    rng = random.Random(20)  # the networks of test_build_schedule_layered_golden
    for i in range(20):
        f = 2 + i % 5
        p = rng.randint(2, 4)
        net = parse_network(layered_network(rng, f))
        del partition_proofs[:]
        sched = build_schedule(net, rng.randint((p - 1) * f + 1, p * f))
        first: dict[PathPartition, PathPartition] = {}
        for row in sched.assignment:
            assert type(row) is PathPartition
            assert first.setdefault(row, row) is row
        assert len(partition_proofs) == len(first) < len(sched.sinks)


def test_schedule_survives_pickle_and_deepcopy(fig3):
    sched = build_schedule(fig3, 12)
    copies = [pickle.loads(pickle.dumps(sched, protocol)) for protocol in (0, 5)]
    for twin in copies + [copy.deepcopy(sched)]:
        assert twin == sched
        assert all(type(row) is PathPartition for row in twin.assignment)
        assert twin.assignment[0] is twin.assignment[1]


def test_simulate_fig2_with_direct_scheme(fig2):
    sched = build_schedule(fig2, 4)
    scheme = make_scheme(split_upper(EXAMPLE_SQUARE, 3), MODE_DIRECT)
    rng = random.Random(0)
    block = SourceBlock.from_packets([rng.randbytes(5) for _ in range(4)])
    report = simulate(fig2, sched, scheme, block)
    assert report.all_decoded
    assert len(report.sinks) == 6
    assert all(r.phases_to_decode == 2 for r in report.sinks)


def test_simulate_fig3_balanced(fig3):
    sched = build_schedule(fig3, 12)
    scheme = make_scheme(L5X12, MODE_BALANCED_DECODE)
    rng = random.Random(1)
    block = SourceBlock.from_packets([rng.randbytes(4) for _ in range(12)])
    report = simulate(fig3, sched, scheme, block)
    assert report.all_decoded
    assert all(r.phases_to_decode == 4 for r in report.sinks)


def test_simulate_zero_payloads(fig1):
    sched = build_schedule(fig1, 4)
    scheme = make_scheme(split_upper(EXAMPLE_SQUARE, 3), MODE_DIRECT)
    block = SourceBlock.from_packets([b"\x00\x00"] * 4)
    report = simulate(fig1, sched, scheme, block)
    assert report.all_decoded


def test_simulate_rejects_mismatch(fig1):
    sched = build_schedule(fig1, 4)
    rect = split_upper(EXAMPLE_SQUARE, 3)
    scheme = make_scheme(rect, MODE_DIRECT)
    with pytest.raises(ValueError, match="block has 5 packets, scheme expects 4"):
        simulate(fig1, sched, scheme, SourceBlock.from_packets([b"x"] * 5))
    bad = build_schedule(fig1, 6)
    with pytest.raises(ValueError, match="scheme carries 4 packets, schedule delivers 6"):
        simulate(fig1, bad, scheme, SourceBlock.from_packets([b"x"] * 4))


def test_report_format(fig1):
    sched = build_schedule(fig1, 4)
    scheme = make_scheme(split_upper(EXAMPLE_SQUARE, 3), MODE_DIRECT)
    block = SourceBlock.from_packets([b"hi"] * 4)
    text = format_simulation_report(simulate(fig1, sched, scheme, block))
    assert "sink=t1 phase=1 packets=" in text
    assert "decode=ok" in text
    assert text.endswith("summary sinks=2 decoded=2\n")


def test_report_of_a_wrong_decode(fig1, corrupt_decode):
    # The one decode's verdict is every sink's: a wrong block fails them all.
    sched = build_schedule(fig1, 4)
    scheme = make_scheme(split_upper(EXAMPLE_SQUARE, 3), MODE_DIRECT)
    report = simulate(fig1, sched, scheme, SourceBlock.from_packets([b"hi"] * 4))
    assert report.all_decoded is False
    lines = format_simulation_report(report).splitlines()
    verdicts = [line for line in lines if " decode=" in line]
    assert verdicts == [f"sink={t} decode=fail phases_needed={sched.phases}" for t in fig1.sinks]
    assert lines[-1] == "summary sinks=2 decoded=0"


@pytest.mark.parametrize(
    ("text", "n"),
    [
        pytest.param(TRIANGLE, 8, id="triangle-8"),
        pytest.param(TRIANGLE, 10, id="triangle-10"),
        pytest.param(TRIANGLE, 40, id="triangle-40"),
        pytest.param(relay_ring(5), 6, id="5-cycle-6"),
        pytest.param(relay_ring(5), 40, id="5-cycle-40"),
    ],
)
def test_build_schedule_rejects_odd_relay_cycles(text, n):
    # two packet sets must alternate round the ring, which an odd ring cannot do
    with pytest.raises(ScheduleError):
        build_schedule(parse_network(text), n)


@pytest.mark.parametrize("n", [8, 40])
def test_build_schedule_even_relay_cycle(n):
    net = parse_network(relay_ring(4))
    sched = build_schedule(net, n)
    assert sched.phases == n // 2
    assert validate_schedule(net, sched) == []


def test_build_schedule_rejects_paths_joined_through_other_sink():
    net = parse_network(JOINED_BY_OTHER_SINK)
    with pytest.raises(ScheduleError, match="two paths of sink t1"):
        build_schedule(net, 4)


# s feeds relays a, b, e, f, g, c, d; t0 reads a b c d, t1 e f g d, t2 f g c d.
# Class e must equal class c, its last candidate, so the search backtracks
# through every earlier candidate of e.
SEVEN_RELAYS = (
    "source s\nsink t0\nsink t1\nsink t2\n"
    + "".join(f"edge s {r}\n" for r in "abefgcd")
    + "".join(f"edge {r} {t}\n" for t, rs in (("t0", "abcd"), ("t1", "efgd"), ("t2", "fgcd")) for r in rs)
)


@pytest.mark.parametrize(
    ("n", "digest"),
    [
        (12, "807aa569c07516babbdfad0cbc485ba6b7d6f1e2b72b52d53e8669f6cec9d2d5"),
        (16, "4d7b05c795456ac6c604f458cc2619ad1fde5ad5d1f7e1cbb606c8e0e7e41b42"),
    ],
)
def test_build_schedule_backtracking_golden(n, digest):
    # Beyond the exhaustive oracle's reach; any change in candidate order fails here.
    net = parse_network(SEVEN_RELAYS)
    text = format_schedule(build_schedule(net, n))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    ("n", "digest"),
    [
        (24, "cd7d9769531aca87a6f19debb3096c3d953dcd9dfc76dcf5a1f206acace38e56"),
        (64, "6d225e7d657f3d8cbe86ae5aafa0c165e645313d5a6b5201c68dbc619746cea5"),
        (1024, "0421732d16d12bd5623a2f81dbfe59885df61d7b5e70ddb1634f4aa8f1a6e5c3"),
    ],
)
def test_seven_relays_colour_without_the_subset_search(n, digest):
    # The block pass backtracks until e takes c's colour; its cost does not grow
    # with n, and the exact pass, whose colours grow with n, is never entered.
    net = parse_network(SEVEN_RELAYS)
    with mock.patch.object(network, "_colour_labels", wraps=network._colour_labels) as search:
        sched = build_schedule(net, n)
    assert [call.args[2] for call in search.call_args_list] == [1]  # one call, one slot a class
    p = n // 4
    blocks = [tuple(range(x * p + 1, x * p + p + 1)) for x in range(4)]
    assert sched.phases == p and all(set(row) == set(blocks) for row in sched.assignment)
    # t0 reads a b c d and t1 e f g d, in that path order.
    assert sched.assignment[1][0] == sched.assignment[0][2] == blocks[2]
    assert hashlib.sha256(format_schedule(sched).encode()).hexdigest() == digest


def gadget(vertices: int, edges: list[tuple[int, int]]) -> Network:
    """A relay per vertex and per edge uv, and a sink per edge reading u, v and uv:
    at n = 3 it schedules exactly when the graph is 3-colourable."""
    relays = [f"v{u}" for u in range(vertices)] + [f"w{u}_{v}" for u, v in edges]
    sinks = [f"t{u}_{v}" for u, v in edges]
    reads = [(r, t) for (u, v), t in zip(edges, sinks) for r in (f"v{u}", f"v{v}", f"w{u}_{v}")]
    links = [("s", r) for r in relays] + reads
    return Network(tuple(["s"] + relays + sinks), tuple(links), "s", tuple(sinks))


def test_colouring_gadget_schedules_exactly_the_3_colourable_graphs():
    outcomes = collections.Counter()
    for seed in range(300):
        rng = random.Random(seed)
        vertices = rng.randint(2, 8)
        density = rng.uniform(0.3, 0.8)
        pairs = itertools.combinations(range(vertices), 2)
        edges = [e for e in pairs if rng.random() < density] or [(0, 1)]
        colourable = any(
            all(colours[u] != colours[v] for u, v in edges)
            for colours in itertools.product(range(3), repeat=vertices)
        )
        schedules = outcome(build_schedule, gadget(vertices, edges), 3) is not ScheduleError
        assert schedules == colourable, (vertices, edges)
        outcomes[colourable] += 1
    assert min(outcomes.values()) >= 50, outcomes


def first_fit(sink_classes: list[list[int]], f: int) -> bool:
    """Whether colouring classes by first appearance, each with its lowest colour
    free at all its sinks, succeeds without backtracking."""
    colour: dict[int, int] = {}
    for classes in sink_classes:
        for c in classes:
            if c not in colour:
                taken = {colour[d] for row in sink_classes if c in row for d in row if d in colour}
                colour[c] = min(set(range(f)) - taken, default=None)
                if colour[c] is None:
                    return False
    return True


def packet_labels(colouring: dict[int, tuple[int, ...]] | None, w: int):
    """build_schedule's packet rule: colour x gives packets x*w+1..x*w+w."""
    if colouring is None:
        return None
    return {c: tuple(y for x in xs for y in range(x * w + 1, x * w + w + 1))
            for c, xs in colouring.items()}


def test_colour_labels_match_the_subset_search_on_class_instances():
    # Sinks choose f of m abstract classes. The exact pass gives the reference
    # p-subset search's labelling or fails with it; wherever an f-colouring
    # exists, its blocks are that labelling too, and at p = 1 the two fail together.
    outcomes = collections.Counter()
    for seed in range(3000):
        rng = random.Random(seed)
        f, p = rng.randint(2, 4), rng.randint(1, 3)
        m = rng.randint(f + 1, 8)
        sink_classes = [rng.sample(range(m), f) for _ in range(rng.randint(2, 7))]
        exact = reference_subset_labels(sink_classes, f, p)
        assert packet_labels(network._colour_labels(sink_classes, f * p, p), 1) == exact, seed
        coloured = packet_labels(network._colour_labels(sink_classes, f, 1), p)
        assert coloured == exact or (coloured is None and p > 1), (seed, sink_classes, p)
        if coloured is None:
            outcomes["uncoloured"] += 1
        else:
            outcomes["first fit" if first_fit(sink_classes, f) else "backtracked"] += 1
    assert min(outcomes.values()) >= 30, outcomes


def test_build_schedule_matches_the_subset_search_alone():
    # Random relay networks: the block pass first gives the schedule, or the
    # error, that the exact pass gives with the block pass switched off, and
    # both give the reference p-subset search's labelling of the relays. At
    # p = 1 or f = 2 no exact pass runs, so the reference alone is compared.
    search = network._colour_labels

    def exact_only(sink_classes, colours, slots):
        return None if slots == 1 else search(sink_classes, colours, slots)

    outcomes = collections.Counter()
    for seed in range(1500):
        rng = random.Random(seed)
        relays = [f"r{i}" for i in range(rng.randint(3, 9))]
        f, p = rng.randint(2, min(4, len(relays) - 1)), rng.randint(1, 3)
        sinks = [f"t{j}" for j in range(rng.randint(2, 8))]
        # Each relay is a class; a sink's paths run through its relays in feed order.
        sink_classes = [sorted(rng.sample(range(len(relays)), f)) for _ in sinks]
        edges = [("s", r) for r in relays]
        edges += [(relays[c], t) for t, classes in zip(sinks, sink_classes) for c in classes]
        net = Network(tuple(["s"] + relays + sinks), tuple(edges), "s", tuple(sinks))
        n = rng.randint((p - 1) * f + 1, p * f)
        got = outcome(build_schedule, net, n)
        if p > 1 and f > 2:
            with mock.patch.object(network, "_colour_labels", exact_only):
                assert got == outcome(build_schedule, net, n), (seed, net, n)
        labels = reference_subset_labels(sink_classes, f, p)
        rows = labels and tuple(tuple(labels[c] for c in cs) for cs in sink_classes)
        assert (None if got is ScheduleError else got.assignment) == rows, (seed, net, n)
        if got is ScheduleError:
            outcomes["rejected"] += 1
        else:
            outcomes["first fit" if first_fit(sink_classes, f) else "backtracked"] += 1
    assert min(outcomes.values()) >= 10, outcomes


def perfect_matchings(points: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
    """The perfect matchings of points, lowest point paired first, in lexicographic order."""
    if not points:
        yield ()
        return
    a, rest = points[0], points[1:]
    for i, b in enumerate(rest):
        for m in perfect_matchings(rest[:i] + rest[i + 1:]):
            yield ((a, b),) + m


# One relay r<a><b> per 2-subset of 1..6, fed once from s, and one sink per
# perfect matching of 1..6 reading the relays of its three pairs.
KNESER_MATCHINGS = list(perfect_matchings((1, 2, 3, 4, 5, 6)))
KNESER_RELAYS = (
    "source s\n"
    + "".join(f"sink t{a}{b}_{c}{d}_{e}{f}\n" for (a, b), (c, d), (e, f) in KNESER_MATCHINGS)
    + "".join(f"edge s r{a}{b}\n" for a, b in itertools.combinations(range(1, 7), 2))
    + "".join(
        f"edge r{x}{y} t{a}{b}_{c}{d}_{e}{f}\n"
        for (a, b), (c, d), (e, f) in KNESER_MATCHINGS
        for x, y in ((a, b), (c, d), (e, f))
    )
)


def test_build_schedule_labels_a_class_graph_with_no_f_colouring():
    # Each relay is a class, and two conflict when a sink reads both, that is
    # when their pairs are disjoint: the conflict graph is the Kneser graph
    # KG(6,2). A schedule from an f-colouring (colour i taking packets
    # (i-1)p+1..ip) would need a proper 3-colouring, and there is none.
    pairs = list(itertools.combinations(range(1, 7), 2))
    conflicts = {frozenset(two) for m in KNESER_MATCHINGS for two in itertools.combinations(m, 2)}
    assert len(KNESER_MATCHINGS) == 15 and len(conflicts) == 45
    colour: list[int] = []

    def colours():  # exhaustive depth-first search over proper 3-colourings
        if len(colour) == len(pairs):
            return True
        i = len(colour)
        for c in range(3):
            if all(colour[j] != c or {pairs[i], pairs[j]} not in conflicts for j in range(i)):
                colour.append(c)
                if colours():
                    return True
                colour.pop()
        return False

    assert not colours()
    # The exact pass labels each relay with its own pair.
    net = parse_network(KNESER_RELAYS)
    sched = build_schedule(net, 6)
    assert (sched.maxflow, sched.phases) == (3, 2)
    assert sched.assignment[0] == ((1, 2), (3, 4), (5, 6))
    for m, seqs in zip(KNESER_MATCHINGS, sched.assignment):
        assert seqs == m
    digest = hashlib.sha256(format_schedule(sched).encode()).hexdigest()
    assert digest == "27760a8e9661444f6191973691ef4a1db802e13ba1fc83e938d7b307cf14fd2c"


def test_exact_pass_matches_the_subset_search_on_kneser_instances():
    # Each sink holds 3 disjoint pairs of 6 or 7 points, each pair a class, so
    # the conflict graph is part of a Kneser graph: often it has no 3-colouring
    # but has a p-fold colouring with 3p colours, which only the exact pass
    # finds. Where the block pass fails, the exact pass gives the reference's
    # labelling or fails with it. At p = 3 sinks are capped at 7: with more,
    # both searches can take seconds to prove an instance infeasible.
    outcomes = collections.Counter()
    for seed in range(1200):
        rng = random.Random(seed)
        points, p = rng.choice((6, 7)), rng.randint(2, 3)
        pairs = list(itertools.combinations(range(points), 2))
        sink_classes = []
        for _ in range(rng.randint(6, 18) if p == 2 else rng.randint(4, 7)):
            chosen = rng.sample(range(points), 6)
            sink_classes.append([pairs.index(tuple(sorted(chosen[i:i + 2]))) for i in (0, 2, 4)])
        if network._colour_labels(sink_classes, 3, 1) is not None:
            outcomes["block"] += 1
            continue
        exact = packet_labels(network._colour_labels(sink_classes, 3 * p, p), 1)
        assert exact == reference_subset_labels(sink_classes, 3, p), seed
        outcomes["exact only" if exact else "infeasible"] += 1
    assert min(outcomes.values()) >= 50, outcomes


def test_two_paths_schedule_exactly_when_two_colours_do():
    # At f = 2 a sink's classes hold complementary halves of 1..2p, so a
    # p-fold colouring exists exactly when a 2-colouring does.
    outcomes = collections.Counter()
    for seed in range(2000):
        rng = random.Random(seed)
        p, m = rng.randint(2, 5), rng.randint(3, 8)
        sink_classes = [rng.sample(range(m), 2) for _ in range(rng.randint(2, 8))]
        coloured = network._colour_labels(sink_classes, 2, 1) is not None
        assert coloured == (reference_subset_labels(sink_classes, 2, p) is not None), seed
        outcomes[coloured] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_odd_ring_rejects_at_large_n_without_the_exact_pass():
    net = parse_network(relay_ring(9))
    with mock.patch.object(network, "_colour_labels", wraps=network._colour_labels) as search:
        with pytest.raises(ScheduleError, match="conflicting packet sets"):
            build_schedule(net, 4000)
    assert [call.args[2] for call in search.call_args_list] == [1]


def layered_network(rng: random.Random, f: int) -> str:
    """f classes of 2-4 relays fed once from s; each of 4-12 sinks reads one relay per class."""
    classes = [[f"r{c}_{i}" for i in range(rng.randint(2, 4))] for c in range(f)]
    sinks = [f"t{j}" for j in range(rng.randint(4, 12))]
    lines = ["source s"] + [f"sink {t}" for t in sinks]
    lines += [f"edge s {r}" for relays in classes for r in relays]
    lines += [f"edge {rng.choice(relays)} {t}" for t in sinks for relays in classes]
    return "\n".join(lines) + "\n"


def test_build_schedule_layered_golden():
    # Twenty networks of the benchmark's multicast family, f = 2..6 with 2..4
    # phases, then the triangle's error: any change in paths, packets or the
    # message fails here.
    rng = random.Random(20)
    texts = []
    for i in range(20):
        f = 2 + i % 5
        p = rng.randint(2, 4)
        net = parse_network(layered_network(rng, f))
        texts.append(format_schedule(build_schedule(net, rng.randint((p - 1) * f + 1, p * f))))
    with pytest.raises(ScheduleError) as exc:
        build_schedule(parse_network(TRIANGLE), 6)
    texts.append(str(exc.value))
    digest = hashlib.sha256("".join(texts).encode()).hexdigest()
    assert digest == "22a8e77bf028cc87a1db2b197e79160446aaeb5ab11c14951de2e53719f6609d"


def test_only_unbalanced_sinks_search(fig1, fig2, fig3):
    # Relay networks skip the search; a flow that must cancel needs it.
    nets = [fig1, fig2, fig3, parse_network(relay_ring(4)), parse_network(SEVEN_RELAYS)]
    rng = random.Random(20)  # the networks of test_build_schedule_layered_golden
    for i in range(20):
        f = 2 + i % 5
        p = rng.randint(2, 4)
        nets.append(parse_network(layered_network(rng, f)))
        rng.randint((p - 1) * f + 1, p * f)
    with mock.patch.object(network, "_augmenting_flow", side_effect=AssertionError("searched")):
        for net in nets:
            for t in net.sinks:
                assert edge_disjoint_paths(net, t) == whole_graph_edge_disjoint_paths(net, t) != []
    with mock.patch.object(network, "_augmenting_flow", wraps=network._augmenting_flow) as search:
        for calls, text in enumerate((CANCELS_FLOW, CANCELS_FLOW_AMID_OTHERS), 1):
            edge_disjoint_paths(parse_network(text), "t")
            assert search.call_count == calls


def mutant_fields(rng: random.Random, net: Network, sched: Schedule) -> dict:
    """sched's fields after one to three random edits, some of which keep it valid."""
    header = {k: getattr(sched, k) for k in ("n", "requested_n", "phases", "maxflow")}
    sinks = list(sched.sinks)
    paths = [[list(path) for path in ps] for ps in sched.paths]
    assign = [[list(seq) for seq in seqs] for seqs in sched.assignment]
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(10)
        si = rng.randrange(len(sinks)) if sinks else None
        if kind == 0:  # a header off by one or two
            key = rng.choice(list(header))
            header[key] += rng.choice((-2, -1, 1, 2))
        elif kind == 1:  # swap two packet labels everywhere: stays valid
            a, b = rng.randint(1, sched.n), rng.randint(1, sched.n)
            swap = {a: b, b: a}
            assign = [[[swap.get(x, x) for x in seq] for seq in seqs] for seqs in assign]
        elif kind == 2:  # permute the phases of every sequence alike: stays valid
            order = rng.sample(range(sched.phases), sched.phases)
            assign = [[[seq[i] for i in order if i < len(seq)] for seq in seqs] for seqs in assign]
        elif kind == 3 and si is not None and assign[si] and assign[si][0]:
            # swap two slots of one sink: still a partition, shared edges may disagree
            slots = [(j, i) for j, seq in enumerate(assign[si]) for i in range(len(seq))]
            (j1, i1), (j2, i2) = rng.choice(slots), rng.choice(slots)
            seqs = assign[si]
            seqs[j1][i1], seqs[j2][i2] = seqs[j2][i2], seqs[j1][i1]
        elif kind == 4 and si is not None and assign[si] and assign[si][0]:
            seq = rng.choice(assign[si])
            seq[rng.randrange(len(seq))] = rng.randint(0, sched.n + 1)
        elif kind == 5 and si is not None and paths[si]:
            # change one edge id, or cut a path short, maybe to nothing
            path = rng.choice(paths[si])
            if path and rng.random() < 0.8:
                path[rng.randrange(len(path))] = rng.randint(-1, len(net.edges))
            elif path:
                del path[rng.randrange(len(path)):]
        elif kind == 6 and si is not None and len(paths[si]) >= 2:
            # swap two paths of a sink, with their packets (valid) or without
            j1, j2 = rng.sample(range(len(paths[si])), 2)
            paths[si][j1], paths[si][j2] = paths[si][j2], paths[si][j1]
            if rng.random() < 0.5 and len(assign[si]) == len(paths[si]):
                assign[si][j1], assign[si][j2] = assign[si][j2], assign[si][j1]
        elif kind == 7 and si is not None:
            # drop a path, a sequence, a phase, a whole sink, or only its name
            what = rng.randrange(5)
            if what == 0 and paths[si]:
                paths[si].pop()
            elif what == 1 and assign[si]:
                assign[si].pop()
            elif what == 2 and assign[si] and assign[si][0]:
                assign[si][0].pop()
            elif what == 3:
                del sinks[si], paths[si], assign[si]
            elif what == 4:
                del sinks[si]
        elif kind == 8 and si is not None:
            # reorder the sinks with their rows (valid), repeat one, or rename one
            what = rng.randrange(3)
            if what == 0:
                order = rng.sample(range(len(sinks)), len(sinks))
                sinks, paths, assign = ([xs[i] for i in order] for xs in (sinks, paths, assign))
            elif what == 1:
                sinks, paths, assign = (xs + [xs[si]] for xs in (sinks, paths, assign))
            else:
                sinks[si] = rng.choice(list(net.sinks) + ["x"])
        elif kind == 9 and si is not None and len(assign[si]) >= 2 and rng.random() < 0.3:
            # move one packet between two sequences wherever they occur: the
            # sink's packets still partition 1..n, in sequences of unequal length
            a, b = (tuple(seq) for seq in rng.sample(assign[si], 2))
            if a:
                moved = {a: list(a[:-1]), b: list(b + a[-1:])}
                assign = [[moved.get(tuple(seq), seq) for seq in seqs] for seqs in assign]
        elif kind == 9 and si is not None and paths[si]:
            # give a path of one sink another sink's path (and maybe its packets)
            sk = rng.randrange(len(sinks))
            if paths[sk] and len(paths[sk]) == len(assign[sk]):
                j, l = rng.randrange(len(paths[si])), rng.randrange(len(paths[sk]))
                paths[si][j] = list(paths[sk][l])
                if rng.random() < 0.5 and j < len(assign[si]):
                    assign[si][j] = list(assign[sk][l])
    return dict(
        header,
        sinks=tuple(sinks),
        paths=tuple(tuple(tuple(path) for path in ps) for ps in paths),
        assignment=tuple(tuple(tuple(seq) for seq in seqs) for seqs in assign),
    )


MUTANT_SOURCES = [
    (FIG1_TEXT, 4), (FIG1_TEXT, 5), (FIG2_TEXT, 4), (FIG3_TEXT, 6), (FIG3_TEXT, 12),
    (CHAIN, 3), (relay_ring(4), 8), (SEVEN_RELAYS, 12), (FIG2_TEXT, None),
]


def test_constructor_and_fit_match_whole_schedule_oracle():
    # A mutant constructs and fits its network exactly when the pre-split
    # validator finds no problem; both outcomes occur often.
    pool = []
    for text, n in MUTANT_SOURCES:
        net = parse_network(text)
        pool.append((net, parse_schedule(net, TABLE1_SCHEDULE) if n is None else build_schedule(net, n)))
    outcomes = collections.Counter()
    for seed in range(3000):
        rng = random.Random(seed)
        net, sched = rng.choice(pool)
        fields = mutant_fields(rng, net, sched)
        try:
            fits = Schedule(net, **fields).network is net
        except ValueError:
            fits = False
        assert fits == (schedule_problems(net, fields) == []), (seed, fields)
        outcomes[fits] += 1
    assert min(outcomes.values()) >= 300, outcomes


@st.composite
def small_dags(draw):
    """A DAG whose edges run up the node numbering, with sink max-flows of at most 3.

    Either three or four relays fed once from s, with two to four sinks each
    reading f of them (f < relays, so odd rings of shared relays make some
    schedules infeasible), or up to three source edges plus arbitrary edges
    with parallels on s, v1..vk, where sink max-flows often differ. Half of
    the latter add CANCELS_FLOW on five new nodes, its end a sink.
    """
    if draw(st.booleans()):
        relays = [f"r{i}" for i in range(draw(st.integers(3, 4)))]
        sinks = [f"t{i}" for i in range(draw(st.integers(2, 4)))]
        f = draw(st.integers(2, min(3, len(relays) - 1)))
        rng = draw(st.randoms(use_true_random=False))
        edges = [("s", r) for r in relays]
        for t in sinks:
            edges += [(r, t) for r in rng.sample(relays, f)]
        return Network(tuple(["s"] + relays + sinks), tuple(edges), "s", tuple(sinks))
    k = draw(st.integers(2, 6))
    names = ["s"] + [f"v{i}" for i in range(1, k + 1)]
    edges = [("s", draw(st.sampled_from(names[1:]))) for _ in range(draw(st.integers(1, 3)))]
    pairs = st.integers(1, k - 1).flatmap(lambda u: st.tuples(st.just(u), st.integers(u + 1, k)))
    edges += [(names[u], names[v]) for u, v in draw(st.lists(pairs, min_size=1, max_size=10))]
    sinks = draw(st.lists(st.sampled_from(names[1:]), min_size=1, max_size=3, unique=True))
    if draw(st.booleans()):
        sinks.append(embed_cancels_flow(draw, names, "s", edges))
    return Network(tuple(names), tuple(edges), "s", tuple(sinks))


def outcome(build, net, n):
    try:
        return build(net, n)
    except (ScheduleError, TopologyError) as exc:
        return type(exc)


@settings(deadline=None, max_examples=300)
@given(small_dags(), st.integers(1, 6))
@example(parse_network(FIG1_TEXT), 4)
@example(parse_network(FIG2_TEXT), 4)
@example(parse_network(FIG3_TEXT), 6)
@example(parse_network(CHAIN), 3)
@example(parse_network(TRIANGLE), 6)
@example(parse_network(JOINED_BY_OTHER_SINK), 4)
@example(parse_network(CANCELS_FLOW), 4)
def test_build_schedule_matches_exhaustive_oracle(net, n):
    # The class search returns the labelling search's schedule, or the same error.
    assert outcome(build_schedule, net, n) == outcome(exhaustive_schedule, net, n)
    graph = nx.DiGraph()
    graph.add_nodes_from(net.nodes)
    for u, v in net.edges:
        cap = graph.edges[u, v]["capacity"] + 1 if graph.has_edge(u, v) else 1
        graph.add_edge(u, v, capacity=cap)
    for t in net.sinks:
        assert len(edge_disjoint_paths(net, t)) == nx.maximum_flow_value(graph, net.source, t)


@settings(deadline=None, max_examples=200)
@given(small_dags(), st.integers(1, 6), st.data())
def test_simulate_phases_match_header_rank(net, n, data):
    # Every sink reaches full header rank in the last phase, and decoding its
    # own buffer, in arrival order, gives the report's one verdict. Checked on a
    # designed or a random invertible E: a singular E makes no scheme.
    try:
        sched = build_schedule(net, n)
    except (ScheduleError, TopologyError):
        return
    m = sched.n
    if data.draw(st.booleans(), label="designed"):
        rect, _ = find_nonsingular_rectangle(m, seed=data.draw(st.integers(0, 2**32), label="seed"))
        scheme = make_scheme(rect, data.draw(st.sampled_from(MODES), label="mode"))
    else:
        # A row permutation of I with random row additions stays invertible.
        rows = [1 << j for j in data.draw(st.permutations(range(m)), label="perm")]
        if m > 1:
            additions = st.tuples(st.integers(0, m - 1), st.integers(1, m - 1))
            for i, d in data.draw(st.lists(additions, max_size=3 * m), label="additions"):
                rows[i] ^= rows[(i + d) % m]
        scheme = CodingScheme(BitMatrix(m, m, tuple(rows)), MODE_DIRECT)
    rng = random.Random(m)
    block = SourceBlock.from_packets([rng.randbytes(3) for _ in range(m)])
    coded = encode(scheme, block)
    report = simulate(net, sched, scheme, block)
    for r in report.sinks:
        assert r.phases_to_decode == header_phases_to_decode(scheme, r.received) == sched.phases
        buffer = [coded[i - 1] for idxs in r.received for i in idxs]
        out = decode(buffer, m, original_len=block.original_len)
        assert (out.packets == block.packets) is report.all_decoded


@settings(deadline=None, max_examples=300)
@given(st.one_of(small_dags(), dag_multigraphs()), st.integers(1, 6))
def test_built_schedules_pass_the_full_fit_check(net, n):
    # The constructor checks a built schedule's fit to the network it holds;
    # the whole-schedule oracle agrees, and an equal network is fit too.
    try:
        sched = build_schedule(net, n)
    except (ScheduleError, TopologyError):
        return
    assert sched.network is net
    fields = {f.name: getattr(sched, f.name) for f in dataclasses.fields(sched)}
    assert schedule_problems(net, fields) == []
    twin = dataclasses.replace(net)
    assert twin == net and twin is not net
    assert validate_schedule(twin, sched) == []


def test_simulate_rejects_a_built_schedule_on_another_network(fig1):
    # fig1 with its edges listed backwards has the same sinks, but the schedule's
    # edge ids name other edges there.
    sched = build_schedule(fig1, 4)
    backwards = Network(fig1.nodes, fig1.edges[::-1], fig1.source, fig1.sinks)
    assert validate_schedule(backwards, sched) == ["schedule was made for another network"]
    # A copy made by replace, or by hand, holds the same network; moving it to
    # the other one fails the fit check.
    fields = {f.name: getattr(sched, f.name) for f in dataclasses.fields(sched)}
    for copy in (dataclasses.replace(sched), Schedule(**fields)):
        assert copy == sched and copy.network is fig1
        assert validate_schedule(fig1, copy) == []
    with pytest.raises(ValueError, match="^sink t1 path 1: does not run source->sink$"):
        dataclasses.replace(sched, network=backwards)
    scheme = make_scheme(split_upper(EXAMPLE_SQUARE, 3))
    block = SourceBlock.from_packets([bytes([i]) for i in range(4)])
    with pytest.raises(ScheduleError, match="^schedule was made for another network$"):
        simulate(backwards, sched, scheme, block)
    assert simulate(fig1, sched, scheme, block).all_decoded
