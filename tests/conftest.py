import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from xorcode import LatinRectangle, PathPartition, network, parse_network

# 4x4 square whose 3-row upper rectangle drives the small worked example.
EXAMPLE_SQUARE = LatinRectangle(((2, 4, 1, 3), (1, 3, 2, 4), (3, 2, 4, 1), (4, 1, 3, 2)))

EXAMPLE_M_ROWS = ("1110", "0111", "1101", "1011")

# 5x12 rectangle of the security example.
L5X12 = LatinRectangle((
    (4, 2, 11, 8, 12, 1, 9, 5, 10, 7, 6, 3),
    (2, 8, 12, 3, 6, 10, 4, 11, 5, 1, 9, 7),
    (3, 4, 2, 9, 11, 12, 5, 6, 7, 8, 10, 1),
    (9, 10, 1, 6, 3, 7, 2, 8, 4, 11, 12, 5),
    (6, 5, 7, 10, 1, 11, 8, 3, 12, 4, 2, 9),
))

# Row supports of the 12x12 block-incidence matrix of L5X12 (coded packet i
# XORs these sources) and of its inverse (source l needs these coded packets).
INCIDENCE_SUPPORTS = [
    {2, 3, 4, 6, 9}, {2, 4, 5, 8, 10}, {1, 2, 7, 11, 12}, {3, 6, 8, 9, 10},
    {1, 3, 6, 11, 12}, {1, 7, 10, 11, 12}, {2, 4, 5, 8, 9}, {3, 5, 6, 8, 11},
    {4, 5, 7, 10, 12}, {1, 4, 7, 8, 11}, {2, 6, 9, 10, 12}, {1, 3, 5, 7, 9},
]
INVERSE_SUPPORTS = [
    {2, 5, 10, 11, 12}, {1, 3, 5, 6, 7, 9, 10}, {3, 5, 6, 7, 8, 9, 12},
    {4, 5, 6, 7, 8, 9, 10, 11, 12}, {1, 2, 4}, {1, 2, 4, 6, 7, 10, 11},
    {2, 3, 4, 5, 6, 7, 8, 11, 12}, {1, 3, 5, 7, 8, 9, 10, 11, 12},
    {1, 2, 5, 9, 10}, {1, 5, 7, 9, 10}, {1, 7, 8}, {3, 4, 5, 7, 9},
]

# Three-path routing used with L5X12: per-path packet order over 4 phases.
ROUTING_PATHS = ((3, 10, 7, 2), (8, 4, 11, 9), (1, 6, 5, 12))

# Two-relay butterfly-style net: both sinks reachable through u1 and u2.
FIG1_TEXT = """
source s
sink t1
sink t2
edge s u1
edge s u2
edge u1 t1
edge u1 t2
edge u2 t1
edge u2 t2
"""

# Four relays, six sinks, each fed by a pair of relays.
FIG2_TEXT = """
source s
sink t1
sink t2
sink t3
sink t4
sink t5
sink t6
edge s u1
edge s u2
edge s u3
edge s u4
edge u1 t1
edge u2 t1
edge u1 t2
edge u3 t2
edge u1 t3
edge u3 t3
edge u2 t4
edge u4 t4
edge u2 t5
edge u4 t5
edge u3 t6
edge u4 t6
"""

# Three relays, two sinks, max-flow 3 each.
FIG3_TEXT = """
source s
sink t1
sink t2
edge s u1
edge s u2
edge s u3
edge u1 t1
edge u1 t2
edge u2 t1
edge u2 t2
edge u3 t1
edge u3 t2
"""

# Reference per-phase delivery table for the six-sink network:
# relay sequences u1=[4,2], u2=[1,3], u3=[3,1], u4=[2,4].
TABLE1_SCHEDULE = """
n 4
requested_n 4
phases 2
maxflow 2
sink t1
path s u1 t1 : 4 2
path s u2 t1 : 1 3
sink t2
path s u1 t2 : 4 2
path s u3 t2 : 3 1
sink t3
path s u1 t3 : 4 2
path s u3 t3 : 3 1
sink t4
path s u2 t4 : 1 3
path s u4 t4 : 2 4
sink t5
path s u2 t5 : 1 3
path s u4 t5 : 2 4
sink t6
path s u3 t6 : 3 1
path s u4 t6 : 2 4
"""

# Schedules for the FIG3 network whose headers disagree with their paths.
# The first is the README's n=12 schedule with its headers edited to 6
# packets in 2 phases, while its paths still carry 4 packets each. The second
# claims 12 packets in 4 phases on 3 paths but gives each sink two paths of 6.
SHORT_HEADER_SCHEDULE = """
n 6
requested_n 6
phases 2
maxflow 3
sink t1
path s u1 t1 : 1 2 3 4
path s u2 t1 : 5 6 7 8
path s u3 t1 : 9 10 11 12
sink t2
path s u1 t2 : 1 2 3 4
path s u2 t2 : 5 6 7 8
path s u3 t2 : 9 10 11 12
"""
TWO_PATH_SCHEDULE = """
n 12
requested_n 12
phases 4
maxflow 3
sink t1
path s u1 t1 : 1 2 3 4 5 6
path s u2 t1 : 7 8 9 10 11 12
sink t2
path s u1 t2 : 1 2 3 4 5 6
path s u2 t2 : 7 8 9 10 11 12
"""


@pytest.fixture
def example_square():
    return EXAMPLE_SQUARE


@pytest.fixture
def l5x12():
    return L5X12


@pytest.fixture
def fig1():
    return parse_network(FIG1_TEXT)


@pytest.fixture
def fig2():
    return parse_network(FIG2_TEXT)


@pytest.fixture
def fig3():
    return parse_network(FIG3_TEXT)


@pytest.fixture
def corrupt_decode(monkeypatch):
    """Make ``simulate``'s decode return its block with the first byte flipped."""
    real = network.decode

    def flipped(*args, **kwargs):
        block = real(*args, **kwargs)
        first = bytes([block.packets[0][0] ^ 1]) + block.packets[0][1:]
        return dataclasses.replace(block, packets=(first, *block.packets[1:]))

    monkeypatch.setattr(network, "decode", flipped)


@pytest.fixture
def partition_proofs(monkeypatch):
    """A list that gets the argument of each run of the path-partition rule:
    every ``PathPartition`` built from anything but a ``PathPartition``. The
    schedule readers prove each sink's row; ``build_schedule`` proves each
    distinct row once, and the ``Schedule`` it builds takes them as they are."""
    proofs = []
    new = PathPartition.__new__

    def counted(cls, seqs):
        if not isinstance(seqs, cls):
            proofs.append(seqs)
        return new(cls, seqs)

    monkeypatch.setattr(PathPartition, "__new__", counted)
    monkeypatch.setattr(PathPartition, "from_sequences", classmethod(counted))
    return proofs
