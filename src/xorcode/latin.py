"""Latin squares and rectangles: a checked type, random sampling, block incidence.

Symbols are 1..n. The block-incidence matrix of a k x n rectangle is the
n x n 0-1 matrix whose row j marks the symbols appearing in column j. It is
balanced with k ones per row and column, and a nonsingular one requires
odd k.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from .errors import DesignSearchError, ParseError
from .gf2 import BitMatrix, determinant


@dataclass(frozen=True)
class LatinRectangle:
    """k x n array of ints, valid by construction: every row is a permutation
    of 1..n (n the length of row 0) and no column repeats a symbol, so k <= n."""

    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.cells or not self.cells[0]:
            raise ValueError("rectangle must have at least one row and one column")
        n = len(self.cells[0])
        symbols = set(range(1, n + 1))
        for i, row in enumerate(self.cells, 1):
            if len(row) != n or set(row) != symbols:
                raise ValueError(f"not a Latin rectangle: row {i} is not a permutation of 1..{n}")
            if any(type(v) is not int for v in row):
                raise ValueError(f"not a Latin rectangle: row {i} holds a non-int entry")
        for j, col in enumerate(zip(*self.cells), 1):
            if len(set(col)) != len(col):
                raise ValueError(f"not a Latin rectangle: column {j} repeats a symbol")

    @property
    def k(self) -> int:
        return len(self.cells)

    @property
    def n(self) -> int:
        return len(self.cells[0])

    def to_text(self) -> str:
        lines = [f"{self.k} {self.n}"]
        lines.extend(" ".join(str(v) for v in row) for row in self.cells)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> LatinRectangle:
        lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
        if not lines:
            raise ParseError("empty rectangle text")
        head = lines[0].split()
        if len(head) != 2 or not all(t.isdecimal() for t in head):
            raise ParseError(f"bad rectangle header {lines[0]!r}, expected 'k n'")
        k, n = int(head[0]), int(head[1])
        if not 1 <= k <= n:
            raise ParseError(f"rectangle shape {k}x{n} needs 1 <= k <= n")
        if len(lines) != k + 1:
            raise ParseError(f"expected {k} rectangle rows, found {len(lines) - 1}")
        rows = []
        for i, line in enumerate(lines[1:]):
            toks = line.split()
            if len(toks) != n:
                raise ParseError(f"row {i + 1} has {len(toks)} entries, expected {n}")
            if not all(t.isdecimal() for t in toks):
                raise ParseError(f"non-integer entry in row {i + 1}: {line!r}")
            rows.append(tuple(int(t) for t in toks))
        try:
            return cls(tuple(rows))
        except ValueError as exc:
            raise ParseError(str(exc)) from None


def split_upper(square: LatinRectangle, k: int) -> LatinRectangle:
    """First k rows of a rectangle, itself a valid Latin rectangle."""
    if not 1 <= k <= square.k:
        raise ValueError(f"k must be in 1..{square.k}, got {k}")
    return LatinRectangle(square.cells[:k])


def block_incidence(rect: LatinRectangle) -> BitMatrix:
    """n x n matrix whose row j marks the symbols of column j of the rectangle."""
    n = rect.n
    bits = []
    for j in range(n):
        acc = 0
        for row in rect.cells:
            acc |= 1 << (row[j] - 1)
        bits.append(acc)
    return BitMatrix(n, n, tuple(bits))


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


def jm_generate(n: int, seed: int = 0, moves: int | None = None) -> LatinRectangle:
    """Sample a random Latin square of order n by an incidence-cube walk.

    The square is viewed as a 0-1 cube f(r, c, s) with unit line sums; each
    step flips the corners of a random 2x2x2 subcube, which either keeps the
    cube proper or leaves a single -1 defect. From a proper state the pivot
    is a random empty cell/symbol triple; from an improper state it is the
    defect, with the three paired lines resolved by coin flips. A move is
    accepted only when the step lands in a proper square; the square seen
    after ``moves`` accepted moves (default n^3) is emitted. Stopping at the
    first proper state after a raw step count would instead over-sample
    squares that terminate long improper excursions.
    Output is deterministic for fixed (n, seed, moves).
    """
    if n < 1:
        raise ValueError("order must be at least 1")
    return next(_jm_walk(n, seed, n ** 3 if moves is None else moves, 1))


def _jm_walk(n: int, seed: int, moves: int, step: int) -> Iterator[LatinRectangle]:
    """``jm_generate``'s walk, resumable: yield the square after ``moves``
    accepted moves, then after every ``step`` more, on one random stream."""
    if n == 1:
        while True:
            yield LatinRectangle(((1,),))
    rnd = random.Random(seed).random
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
    # One accepted move per pass of the for loop. It starts from a proper
    # pivot, a random empty (cell, symbol) triple, and steps until the far
    # corner (r2, c2, s2) closes. A corner that does not close becomes the
    # defect: the next pivot, whose cell, row line and column line each hold
    # a second entry (far, the column of s2 in row r2, the row of s2 in
    # column c2) besides the old (s, c, r); a coin flip per line picks which
    # entry the step moves. random() >= 0.5 is exactly int(random() * 2) == 1.
    while True:
        for _ in range(moves):
            while True:
                r = int(rnd() * n)
                c = int(rnd() * n)
                s = int(rnd() * n)
                rn = r * n
                s2 = sym_at[rn + c]
                if s2 != s:
                    break
            cn = c * n
            c2 = col_at[rn + s]
            r2 = row_at[cn + s]
            fill_sym, fill_col, fill_row = s, c, r
            while True:
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
                far = sym_at[r2n + c2]
                if far == s2:
                    sym_at[r2n + c2] = s
                    col_at[r2n + s2] = c
                    row_at[c2n + s2] = r
                    break
                rn, cn = r2n, c2n
                if rnd() >= 0.5:
                    fill_sym = s
                    s, s2 = s2, far
                else:
                    fill_sym = far
                    s, s2 = s2, s
                t = col_at[rn + s]
                if rnd() >= 0.5:
                    fill_col = c
                    c, c2 = c2, t
                else:
                    fill_col = t
                    c, c2 = c2, c
                t = row_at[cn + s]
                if rnd() >= 0.5:
                    fill_row = r
                    r, r2 = r2, t
                else:
                    fill_row = t
                    r, r2 = r2, r
        cells = tuple(
            tuple(sym_at[r * n + c] + 1 for c in range(n)) for r in range(n)
        )
        yield LatinRectangle(cells)
        moves = step


def auto_rows(n: int) -> int:
    """Default odd row count for a nonsingular design: n-1 for even n, n-2 for odd."""
    if n < 1:
        raise ValueError("order must be at least 1")
    if n == 1:
        return 1
    return n - 1 if n % 2 == 0 else n - 2


def find_nonsingular_rectangle(
    n: int,
    k: int | None = None,
    seed: int = 0,
    max_retries: int = 64,
    moves: int | None = None,
) -> tuple[LatinRectangle, BitMatrix]:
    """Search for a k x n Latin rectangle with nonsingular block incidence.

    One walk serves the whole search. It is seeded with the first
    ``getrandbits(63)`` of ``random.Random(seed)``, call it s0, and sample j
    (from 0) is the square after ``moves + j * max(1, moves // n)`` accepted
    moves, exactly ``jm_generate(n, s0, moves + j * max(1, moves // n))``;
    ``moves`` defaults to n^3. The first sample whose upper k rows have a
    nonsingular block incidence is returned, and ``max_retries`` bounds the
    samples tested. Even k is rejected outright: with an even number of ones
    in every row, the XOR of all columns is zero, so the matrix is singular
    over GF(2).
    """
    if n < 1:
        raise ValueError("order must be at least 1")
    if k is None:
        k = auto_rows(n)
    if not 1 <= k <= n:
        raise ValueError(f"row count must be in 1..{n}, got {k}")
    if k % 2 == 0:
        raise ValueError(
            f"row count {k} is even; the incidence matrix of an even-row "
            "rectangle is always singular over GF(2)"
        )
    if moves is None:
        moves = n ** 3
    walk = _jm_walk(n, random.Random(seed).getrandbits(63), moves, max(1, moves // n))
    for _ in range(max_retries):
        rect = split_upper(next(walk), k)
        m = block_incidence(rect)
        if determinant(m):
            return rect, m
    raise DesignSearchError(
        f"no nonsingular {k}x{n} rectangle found in {max_retries} attempts",
        attempts=max_retries,
    )
