"""Eavesdropping analysis for path-partitioned XOR coding.

The adversary model is a passive, computationally unbounded linear one: it
taps whole edge-disjoint paths, reads every header on them, and may XOR any
subset of the captured packets. "No single source exposed" is the
weak-security criterion of Bhattad & Narayanan (NetCod 2005).

The audit needs no search over tapped subsets. The encoding matrix E is
invertible, so its rows are independent and the only XOR of coded packets
that equals source l is row l of E^-1. Source l therefore leaks exactly when
every coded packet in the support of that row has been captured, and the
paths an adversary must tap to read it are the paths carrying those packets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .codec import CodingScheme
from .gf2 import invert
from .latin import LatinRectangle


@dataclass(frozen=True)
class PathPartition:
    """Coded-packet index sets S_i, one per edge-disjoint path."""

    sets: tuple[frozenset[int], ...]

    def __post_init__(self):
        if not self.sets:
            raise ValueError("partition needs at least one path")
        if any(not s for s in self.sets):
            raise ValueError("every path must carry at least one packet")

    @property
    def maxflow(self) -> int:
        return len(self.sets)

    @property
    def total(self) -> int:
        return sum(len(s) for s in self.sets)

    @classmethod
    def from_sequences(cls, seqs: Iterable[Sequence[int]]) -> PathPartition:
        return cls(tuple([frozenset(seq) for seq in seqs]))

    def check(self, n: int):
        """Raise unless the sets partition 1..n into equal-size parts."""
        union: set[int] = set()
        for s in self.sets:
            if union & s:
                raise ValueError("path packet sets overlap")
            union |= s
        if union != set(range(1, n + 1)):
            raise ValueError(f"path sets do not cover 1..{n}")
        sizes = {len(s) for s in self.sets}
        if len(sizes) != 1:
            raise ValueError("path sets have unequal sizes")


@dataclass(frozen=True)
class EavesdropReport:
    """Fewest paths that expose a source, optionally paired with the column test.

    ``witness_paths`` is the lexicographically first smallest path set whose
    packets cover the support of some row of E^-1; ``exposed_sources`` are the
    sources whose row needs exactly those paths.
    """

    min_paths_to_decode: int
    witness_paths: tuple[int, ...]
    exposed_sources: tuple[int, ...]
    condition_holds: bool | None = None
    discrepancy: bool = False

    def summary_line(self) -> str:
        cond = "unknown" if self.condition_holds is None else str(self.condition_holds).lower()
        witness = ",".join(str(i) for i in self.witness_paths)
        exposed = ",".join(str(i) for i in self.exposed_sources)
        return (
            f"condition={cond} min_paths={self.min_paths_to_decode} "
            f"witness_paths={witness} exposed={exposed}"
        )


def check_condition(rect: LatinRectangle, part: PathPartition) -> bool:
    """True iff every column's symbol set meets every path's packet set.

    When decoding multiplies by the block-incidence matrix, source j is the
    XOR of the coded packets named by column j, so a column that avoids some
    path is decodable without tapping that path.
    """
    part.check(rect.n)
    for j in range(rect.n):
        col = rect.column_symbols(j)
        for s in part.sets:
            if not col & s:
                return False
    return True


def min_eavesdrop_paths(scheme: CodingScheme, part: PathPartition) -> EavesdropReport:
    """Smallest number of tapped paths that exposes at least one source packet.

    A tapped path set exposes source l iff it contains need[l], the paths whose
    packets meet row l of E^-1 (see the module docstring). So the smallest
    exposing sets are the shortest need[l]: the witness is the lexicographically
    first of them, and the exposed sources are those whose need equals it.
    E^-1 is recomputed rather than read from ``scheme.decode_matrix``, so a
    singular E raises ``SingularMatrixError``.
    """
    part.check(scheme.n)
    masks = [sum(1 << (i - 1) for i in s) for s in part.sets]
    need = [
        tuple([j + 1 for j, mask in enumerate(masks) if mask & row])
        for row in invert(scheme.encode_matrix).row_bits
    ]
    witness = min(need, key=lambda paths: (len(paths), paths))
    return EavesdropReport(
        min_paths_to_decode=len(witness),
        witness_paths=witness,
        exposed_sources=tuple([l + 1 for l, paths in enumerate(need) if paths == witness]),
    )


def audit(rect: LatinRectangle, scheme: CodingScheme, part: PathPartition) -> EavesdropReport:
    """Column test plus the exact minimum of ``min_eavesdrop_paths``; flags any disagreement."""
    condition = check_condition(rect, part)
    bare = min_eavesdrop_paths(scheme, part)
    discrepancy = condition != (bare.min_paths_to_decode == part.maxflow)
    return EavesdropReport(
        min_paths_to_decode=bare.min_paths_to_decode,
        witness_paths=bare.witness_paths,
        exposed_sources=bare.exposed_sources,
        condition_holds=condition,
        discrepancy=discrepancy,
    )
