"""Bit-packed linear algebra over GF(2).

Vectors and matrix rows are stored as Python ints with little-endian bit
order: bit j holds element j, so adding two rows is a single integer XOR and
serialization via ``int.to_bytes(..., "little")`` is byte-stable.

``Basis`` is the one elimination kernel: rank, determinant, decoding, the
eavesdropping audit and the inversion of any matrix without a design's
structure all reduce rows against it. A design matrix at the default row
count is inverted in closed form from that structure (``invert``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import xor
from typing import Sequence

from .errors import SingularMatrixError


class Basis:
    """Incremental row basis over GF(2) with lowest-set-bit pivots.

    ``rows[p]`` is a stored row ``(vec, pay)`` whose lowest set bit is p.
    ``pay`` is an int carried through every XOR applied to ``vec``, such as a
    packet payload or the set of input rows combined so far.
    """

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: dict[int, tuple[int, int]] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def reduce(self, vec: int, pay: int = 0) -> tuple[int, int]:
        """Clear pivots from the low end of vec; stops at its first non-pivot bit."""
        rows = self.rows
        while vec:
            row = rows.get((vec & -vec).bit_length() - 1)
            if row is None:
                break
            vec ^= row[0]
            pay ^= row[1]
        return vec, pay

    def add(self, vec: int, pay: int = 0) -> tuple[int, int]:
        """Reduce (vec, pay) and keep it if it is independent.

        Returns the reduced pair; vec is 0 iff the row was already in the span.
        """
        vec, pay = self.reduce(vec, pay)
        if vec:
            self.rows[(vec & -vec).bit_length() - 1] = (vec, pay)
        return vec, pay

    def spanned_units(self, n: int) -> tuple[int, ...]:
        """Positions l < n whose unit vector lies in the span, ascending."""
        return tuple([l for l in range(n) if not self.reduce(1 << l)[0]])

    def solve(self) -> dict[int, int]:
        """Back-substitute to unit rows: the payload of e_p for every pivot p.

        Requires every set bit of every stored row to be a pivot, which holds
        once the basis has full rank over the columns in use.
        """
        out: dict[int, int] = {}
        for piv in sorted(self.rows, reverse=True):
            vec, pay = self.rows[piv]
            rest = vec ^ (1 << piv)
            while rest:
                low = rest & -rest
                pay ^= out[low.bit_length() - 1]
                rest ^= low
            out[piv] = pay
        return out


@dataclass(frozen=True)
class BitMatrix:
    """Dense GF(2) matrix; ``row_bits[i]`` packs row i, bit j = column j."""

    rows: int
    cols: int
    row_bits: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("matrix must have at least one row and one column")
        if len(self.row_bits) != self.rows:
            raise ValueError("row count does not match row data")
        for bits in self.row_bits:
            if bits < 0 or bits >> self.cols:
                raise ValueError("row has set bits beyond declared width")

    def row_support(self, i: int) -> tuple[int, ...]:
        """Positions of the set bits of row i, ascending, 0-based."""
        bits = self.row_bits[i]
        return tuple([j for j in range(self.cols) if (bits >> j) & 1])

    def is_square(self) -> bool:
        return self.rows == self.cols

    def to_text(self) -> str:
        lines = [f"{self.rows} {self.cols}"]
        lines.extend(format(bits, f"0{self.cols}b")[::-1] for bits in self.row_bits)
        return "\n".join(lines) + "\n"


def rank(m: BitMatrix) -> int:
    """GF(2) row rank."""
    basis = Basis()
    for row in m.row_bits:
        basis.add(row)
    return len(basis)


def determinant(m: BitMatrix) -> int:
    """1 iff the square matrix is nonsingular over GF(2), else 0."""
    if not m.is_square():
        raise ValueError("determinant requires a square matrix")
    return 1 if rank(m) == m.rows else 0


def invert(m: BitMatrix) -> BitMatrix:
    """Inverse over GF(2); raises if singular.

    A design matrix at the default row count is inverted in closed form
    (``_design_inverse``). Any other matrix goes through ``Basis``: row i
    enters carrying payload e_i, so after back-substitution the payload of
    unit row e_j names the rows of M that sum to e_j, which is row j of the
    inverse.
    """
    if not m.is_square():
        raise ValueError("inverse requires a square matrix")
    n = m.rows
    rows = _design_inverse(m.row_bits)
    if rows is None:
        basis = Basis()
        for i, row in enumerate(m.row_bits):
            basis.add(row, 1 << i)
        if len(basis) != n:
            raise SingularMatrixError(f"{n}x{n} matrix is singular over GF(2)")
        solved = basis.solve()
        rows = [solved[j] for j in range(n)]
    return BitMatrix(n, n, tuple(rows))


def design_cycle(pairs: Sequence[tuple[int, int]]) -> list[tuple[int, int]] | None:
    """The one cycle that n columns, each missing two symbols, form; or None.

    ``pairs[j]`` holds the two distinct 0-based symbols that column j misses.
    Column j is an edge between them, so when every symbol is missed by
    exactly two columns the graph is a union of cycles. If it is one cycle
    through all n columns, returns [(j_1, s_1), ..., (j_n, s_n)] in cycle
    order, where column j_i misses s_(i-1) and s_i and s_0 = s_n. Otherwise,
    and when some symbol is not missed exactly twice, returns None.
    """
    missed_by: list[list[int]] = [[] for _ in pairs]
    for j, (a, b) in enumerate(pairs):
        missed_by[a].append(j)
        missed_by[b].append(j)
    if any(len(cols) != 2 for cols in missed_by):
        return None
    order = []
    j, s = 0, pairs[0][1]
    while True:
        order.append((j, s))
        c0, c1 = missed_by[s]
        j = c1 if c0 == j else c0
        if j == 0:
            return order if len(order) == len(pairs) else None
        a, b = pairs[j]
        s = b if a == s else a


def _design_inverse(rows: Sequence[int]) -> list[int] | None:
    """Rows of B^-1 in closed form from M = J xor B, or None if M has no such form.

    Row j of B (a column of the design) marks the symbols it holds, so row j
    of M marks those it misses. At the default row count M is a permutation
    matrix P (even n, k = n-1) or has two ones in every row and column (odd
    n, k = n-2); None for any other M, which the caller eliminates.

    Even n: (J xor P)(J xor P^T) = nJ xor J xor J xor I = I, so row s of
    B^-1 is all ones xor e_j, for the column j that misses s.

    Two ones per row and column: write x_s for row s of B^-1 and T for the
    sum of all x_s. Row j of B B^-1 = I, for a column j missing a and b,
    reads T xor x_a xor x_b = e_j. Summed around a cycle of l columns (see
    ``design_cycle``) each x_s of the cycle appears twice, so l T = the sum
    of e_j over the cycle's columns. That is impossible for even l, and two
    odd cycles would give T two values. So B is nonsingular iff M is one
    cycle of n columns, n odd; then T = 1 (all ones) and, in cycle order,
    x_(s_i) = x_(s_(i-1)) xor 1 xor e_(j_i). That fixes every row up to one
    vector c added to all of them, and as n is odd, c shifts T by c: the
    rows are built from x_(s_0) = 0 and then c is chosen so that T = 1.
    A singular M of either form returns None, and elimination raises.
    """
    n = len(rows)
    full = (1 << n) - 1
    miss = [full ^ row for row in rows]
    inv = [0] * n
    if n % 2 == 0:
        if any(bits.bit_count() != 1 for bits in miss) or len(set(miss)) != n:
            return None
        for j, bits in enumerate(miss):
            inv[bits.bit_length() - 1] = full ^ (1 << j)
        return inv
    if any(bits.bit_count() != 2 for bits in miss):
        return None
    order = design_cycle([((bits & -bits).bit_length() - 1, bits.bit_length() - 1)
                          for bits in miss])
    if order is None:
        return None
    x = 0
    for j, s in order:
        x ^= full ^ (1 << j)
        inv[s] = x
    shift = full ^ reduce(xor, inv)
    return [row ^ shift for row in inv]
