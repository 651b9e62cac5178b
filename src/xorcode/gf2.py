"""Bit-packed linear algebra over GF(2).

Vectors and matrix rows are stored as Python ints with little-endian bit
order: bit j holds element j, so adding two rows is a single integer XOR and
serialization via ``int.to_bytes(..., "little")`` is byte-stable.

``Basis`` is the one elimination kernel: rank, determinant, inversion,
decoding and the eavesdropping audit all reduce rows against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import ParseError, SingularMatrixError


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

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> BitMatrix:
        if not rows:
            raise ValueError("matrix must have at least one row")
        cols = len(rows[0])
        if any(len(r) != cols for r in rows):
            raise ValueError("rows have unequal lengths")
        bits = []
        for r in rows:
            if any(v not in (0, 1) for v in r):
                raise ValueError(f"non-binary entry in row {list(r)!r}")
            bits.append(sum(v << j for j, v in enumerate(r)))
        return cls(len(rows), cols, tuple(bits))

    @classmethod
    def from_strings(cls, rows: Sequence[str]) -> BitMatrix:
        return cls.from_rows([[int(ch) for ch in row] for row in rows])

    @classmethod
    def identity(cls, n: int) -> BitMatrix:
        return cls(n, n, tuple(1 << i for i in range(n)))

    def row_support(self, i: int) -> tuple[int, ...]:
        """Positions of the set bits of row i, ascending, 0-based."""
        bits = self.row_bits[i]
        # A list, not a generator: CPython 3.11 builds tuple(generator) at a
        # guessed length, resizes it, and on release parks it in the free list
        # of its final size, so per-packet calls pin up to ~4 MB of free tuples
        # between full collections. The library builds per-packet tuples this way.
        return tuple([j for j in range(self.cols) if (bits >> j) & 1])

    def is_square(self) -> bool:
        return self.rows == self.cols

    def to_text(self) -> str:
        lines = [f"{self.rows} {self.cols}"]
        lines.extend(format(bits, f"0{self.cols}b")[::-1] for bits in self.row_bits)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> BitMatrix:
        lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
        if not lines:
            raise ParseError("empty matrix text")
        head = lines[0].split()
        if len(head) != 2 or not all(t.isdecimal() for t in head):
            raise ParseError(f"bad matrix header {lines[0]!r}, expected 'rows cols'")
        rows, cols = int(head[0]), int(head[1])
        if rows < 1 or cols < 1:
            raise ParseError(f"matrix must have at least one row and one column, got {rows}x{cols}")
        if len(lines) != rows + 1:
            raise ParseError(f"expected {rows} matrix rows, found {len(lines) - 1}")
        bits = []
        for i, line in enumerate(lines[1:]):
            if len(line) != cols or set(line) - {"0", "1"}:
                raise ParseError(f"bad matrix row {i + 1}: {line!r}")
            bits.append(sum(1 << j for j, ch in enumerate(line) if ch == "1"))
        return cls(rows, cols, tuple(bits))


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

    Row i enters the basis carrying payload e_i, so after back-substitution
    the payload of unit row e_j names the rows of M that sum to e_j, which is
    row j of the inverse.
    """
    if not m.is_square():
        raise ValueError("inverse requires a square matrix")
    n = m.rows
    basis = Basis()
    for i, row in enumerate(m.row_bits):
        basis.add(row, 1 << i)
    if len(basis) != n:
        raise SingularMatrixError(f"{n}x{n} matrix is singular over GF(2)")
    solved = basis.solve()
    return BitMatrix(n, n, tuple([solved[j] for j in range(n)]))
