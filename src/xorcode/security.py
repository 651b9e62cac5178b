"""Eavesdropping analysis for path-partitioned XOR coding.

The adversary model is a passive, computationally unbounded linear one: she
taps whole edge-disjoint paths, reads every header on them, and may XOR any
subset of the captured packets. A source packet leaks as soon as its unit
vector enters the span of the captured coding vectors, so the brute-force
minimum below is an honest bound rather than an argument about one
particular decoding rule. "No single source exposed" is the weak-security
criterion of Bhattad & Narayanan (NetCod 2005).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .codec import CodingScheme
from .gf2 import Basis
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
    """Outcome of the tapping search, optionally paired with the column test."""

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


def _exposed(scheme: CodingScheme, indexes: set[int]) -> tuple[int, ...]:
    """Sources whose unit vector lies in the span of the captured coding vectors."""
    basis = Basis()
    for i in indexes:
        basis.add(scheme.encode_matrix.row_bits[i - 1])
    return tuple([l + 1 for l in basis.spanned_units(scheme.n)])


def min_eavesdrop_paths(scheme: CodingScheme, part: PathPartition) -> EavesdropReport:
    """Smallest number of tapped paths that exposes at least one source packet.

    Path subsets are tried by increasing size, lexicographically within a
    size, stopping at the first leak, so the witness is deterministic. Each
    subset's captured coding vectors go into one GF(2) basis, and every
    source is then tested against that basis.
    """
    part.check(scheme.n)
    f = part.maxflow
    for size in range(1, f + 1):
        for combo in itertools.combinations(range(f), size):
            captured: set[int] = set()
            for i in combo:
                captured |= part.sets[i]
            exposed = _exposed(scheme, captured)
            if exposed:
                return EavesdropReport(
                    min_paths_to_decode=size,
                    witness_paths=tuple([i + 1 for i in combo]),
                    exposed_sources=exposed,
                )
    raise AssertionError("unreachable: tapping all paths exposes every packet")


def audit(rect: LatinRectangle, scheme: CodingScheme, part: PathPartition) -> EavesdropReport:
    """Column test plus brute-force minimum; flags any disagreement between them."""
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
