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
from .gf2 import BitMatrix, design_cycle, determinant


@dataclass(frozen=True)
class LatinRectangle:
    """k x n array of ints, valid by construction: every row is a permutation
    of 1..n (n the length of row 0) and no column repeats a symbol, so k <= n.

    The constructor checks the columns through their symbol bitsets and keeps
    them as the block incidence (``block_incidence``), a plain attribute that
    equality, hashing and ``repr`` ignore."""

    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.cells or not self.cells[0]:
            raise ValueError("rectangle must have at least one row and one column")
        n = len(self.cells[0])
        symbols = set(range(1, n + 1))
        for i, row in enumerate(self.cells, 1):
            if len(row) != n or set(row) != symbols:
                raise ValueError(f"not a Latin rectangle: row {i} is not a permutation of 1..{n}")
            if set(map(type, row)) != {int}:
                raise ValueError(f"not a Latin rectangle: row {i} holds a non-int entry")
        # Bit v-1 of column j's bitset marks symbol v; k set bits mean k distinct symbols.
        bit = [0] + [1 << v for v in range(n)]
        columns = [0] * n
        for row in self.cells:
            columns = [acc | bit[v] for acc, v in zip(columns, row)]
        k = len(self.cells)
        for j, acc in enumerate(columns, 1):
            if acc.bit_count() != k:
                raise ValueError(f"not a Latin rectangle: column {j} repeats a symbol")
        object.__setattr__(self, "_incidence", BitMatrix(n, n, tuple(columns)))

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
        if len(head) != 2 or not all(t.isascii() and t.isdecimal() for t in head):
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
            if not all(t.isascii() and t.isdecimal() for t in toks):
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
    """n x n matrix whose row j marks the symbols of column j of the rectangle.

    The constructor built it while checking the columns; this returns it."""
    return rect._incidence


def jm_generate(n: int, seed: int = 0, moves: int | None = None) -> LatinRectangle:
    """Sample a random Latin square of order n by an incidence-cube walk.

    The square is viewed as a 0-1 cube f(r, c, s) with unit line sums; each
    step flips the corners of a random 2x2x2 subcube, which either keeps the
    cube proper or leaves a single -1 defect. From a proper state the pivot
    is a random empty cell/symbol triple; from an improper state it is the
    defect, with the three paired lines resolved by coin flips. A move is
    accepted only when the step lands in a proper square; the square seen
    after ``moves`` accepted moves (default n^2) is emitted. Stopping at the
    first proper state after a raw step count would instead over-sample
    squares that terminate long improper excursions.

    No mixing-time bound is known for this walk (Jacobson & Matthews,
    J. Combin. Des. 1996), so n^2 is a measured length: by then the share of
    cells that keep their start symbol is within sampling error of 1/n at
    n = 16 and 32, and exact chi-squared tests against full enumeration pass
    at orders 3 and 4 (``scripts/walk_mixing.py``); order 4 fails at n^2/2.
    Orders 1 and 2 are drawn directly: every move of the order-2 walk swaps
    its two squares, so a fixed move count would fix the square.
    Output is deterministic for fixed (n, seed, moves).
    """
    if n < 1:
        raise ValueError("order must be at least 1")
    if moves is None:
        moves = n * n
    if moves < 0:
        raise ValueError(f"moves must be at least 0, got {moves}")
    return _rows(next(_jm_walk(n, seed, moves)), n, n)


def _jm_walk(n: int, seed: int, moves: int) -> Iterator[list[int]]:
    """``jm_generate``'s walk, resumable: after every ``moves`` accepted moves
    on one random stream, yield the square as its live, row-major list of
    0-based symbols, valid until the walk resumes.

    Every raw step makes one draw. A pivot try is one ``random()``: x =
    int(random() * n^3) gives r = x // n^2 and (c, s) = divmod(x % n^2, n).
    An improper step is one ``getrandbits(3)``: bit 2 is the symbol coin,
    bit 1 the column coin and bit 0 the row coin, each heads when set.
    Orders 1 and 2 draw one ``random()`` per sample instead."""
    gen = random.Random(seed)
    rnd = gen.random
    if n <= 2:  # one draw per sample; the order-2 walk is periodic
        squares = ([0, 1, 1, 0], [1, 0, 0, 1]) if n == 2 else ([0],)
        while True:
            yield squares[int(rnd() * n)]
    getrandbits = gen.getrandbits
    n3 = n * n * n
    # sym_at[r*n+c]: symbol in the cell; col_at[r*n+s]: column of s in row r;
    # row_at[c*n+s]: row of s in column c, stored as r*n. A row is only ever
    # used as r*n, so rn and r2n stand for r and r2, and likewise cn and c2n
    # for c and c2 where a column indexes row_at. Start from the cyclic
    # square: row r of sym_at is 0..n-1 rotated left by r, (r + c) % n; row r
    # of col_at and column c of row_at rotate it right, (s - r) % n, the
    # latter on the n-scaled copy.
    sym_at = []
    col_at = []
    row_at = []
    ring = [*range(n)] * 2
    ring_n = [*range(0, n * n, n)] * 2
    for r in range(n):
        sym_at += ring[r:r + n]
        col_at += ring[n - r:2 * n - r]
        row_at += ring_n[n - r:2 * n - r]
    # One accepted move per pass of the for loop. It starts from a proper
    # pivot, a random empty (cell, symbol) triple, and steps until the far
    # corner (r2, c2, s2) closes. A corner that does not close becomes the
    # defect: the next pivot, whose cell, row line and column line each hold
    # a second entry (far, the column of s2 in row r2, the row of s2 in
    # column c2) besides the old (s, c, r); a coin flip per line picks which
    # entry the step moves. One draw per raw step has the law of one
    # random() per coordinate and per coin: getrandbits(3) is three fair,
    # independent bits, and x = int(random() * n^3) is uniform on 0..n^3-1
    # up to the 2^-53 grain that int(random() * n) has too (n^3 < 2^53 for
    # every n up to the u16 limit), so its base-n digits r, c, s are
    # independent and uniform. divmod(x, n) is (r*n + c, s).
    #
    # A step flips nine cells, but an improper step writes only those the
    # walk keeps. A closing step writes all nine. Otherwise each coin pairs
    # with three cells, which it writes on heads and skips on tails:
    #   symbol coin: col[r2,s]=c2, row[c2,s]=r2 and sym[r2,c2]=s;
    #   column coin: sym[r2,c]=s2, row[c,s2]=r2 and col[r2,s2]=c;
    #   row coin:    sym[r,c2]=s2, col[r,s2]=c2 and row[c2,s2]=r.
    # The skip is exact. The last cell of each line is the next pivot's fill,
    # and on tails it already holds it: far for the symbol line, and for the
    # column and row lines the entry that heads reads into t, so tails reads
    # no line at all. The other two are flips the next step makes itself:
    #   symbol tail: the next s2 is s, so the next row coin writes col[r2,s]
    #     and the next column coin row[c2,s];
    #   column tail: the next c2 is c, so the next row coin writes sym[r2,c]
    #     and the next symbol coin row[c,s2];
    #   row tail: the next r2 is r, so the next column coin writes sym[r,c2]
    #     and the next symbol coin col[r,s2].
    # A tail there hands the cell on to the step after by the same rule, and
    # the closing step writes all it is handed, so each move ends with the
    # arrays of the nine-write step. On the way no read meets a cell still
    # owed: a step reads only sym[r2,c2], and on heads col[r2,s2] and
    # row[c2,s2], and as r2 != r, c2 != c and s2 != s, none of them is one of
    # its six flips.
    while True:
        for _ in range(moves):
            while True:
                rc, s = divmod(int(rnd() * n3), n)
                s2 = sym_at[rc]
                if s2 != s:
                    break
            c = rc % n
            rn = rc - c
            cn = c * n
            c2 = col_at[rn + s]
            c2n = c2 * n
            r2n = row_at[cn + s]
            sym_at[rc] = s
            col_at[rn + s] = c
            row_at[cn + s] = rn
            while True:
                far = sym_at[r2n + c2]
                if far == s2:
                    sym_at[rn + c2] = s2
                    sym_at[r2n + c] = s2
                    sym_at[r2n + c2] = s
                    col_at[rn + s2] = c2
                    col_at[r2n + s] = c2
                    col_at[r2n + s2] = c
                    row_at[cn + s2] = r2n
                    row_at[c2n + s] = r2n
                    row_at[c2n + s2] = rn
                    break
                # The coins are compared, not masked: CPython's specialising
                # interpreter (3.11 on) quickens int comparisons and int
                # subtraction but leaves & a generic BINARY_OP through 3.13,
                # so a mask costs a full dispatch per coin. On 3.10, which
                # specialises neither, the two cost the same.
                coins = getrandbits(3)
                if coins >= 4:
                    col_at[r2n + s] = c2
                    row_at[c2n + s] = r2n
                    sym_at[r2n + c2] = s
                    s, s2 = s2, far
                    coins -= 4
                else:
                    s, s2 = s2, s
                # s is the old s2 from here on.
                if coins >= 2:
                    t = col_at[r2n + s]
                    sym_at[r2n + c] = s
                    row_at[cn + s] = r2n
                    col_at[r2n + s] = c
                    c, c2 = c2, t
                    cn, c2n = c2n, t * n
                    coins -= 2
                else:
                    c, c2 = c2, c
                    cn, c2n = c2n, cn
                if coins:
                    t = row_at[cn + s]
                    sym_at[rn + c] = s
                    col_at[rn + s] = c
                    row_at[cn + s] = rn
                    rn, r2n = r2n, t
                else:
                    rn, r2n = r2n, rn
        yield sym_at


def _rows(sym_at: list[int], n: int, k: int) -> LatinRectangle:
    """The first k rows of a walk's square as a rectangle."""
    return LatinRectangle(
        tuple([tuple([v + 1 for v in sym_at[rn:rn + n]]) for rn in range(0, k * n, n)])
    )


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
    max_retries: int | None = None,
    moves: int | None = None,
) -> tuple[LatinRectangle, BitMatrix]:
    """Search for a k x n Latin rectangle with nonsingular block incidence.

    One walk serves the whole search. It is seeded with the first
    ``getrandbits(63)`` of ``random.Random(seed)``, call it s0, and sample j
    (from 0) is the square after ``(j + 1) * moves`` accepted moves, exactly
    ``jm_generate(n, s0, (j + 1) * moves)``: after a singular sample the walk
    runs one more full length. ``moves`` defaults to n^2, ``jm_generate``'s
    length, and must be at least 1. The first sample whose upper k rows have
    a nonsingular block incidence is returned, and ``max_retries``, at least
    1, bounds the samples tested. It defaults to max(64, 4n): at odd n about
    e/n of the samples pass, so a fixed bound fails more often as n grows,
    while 4n samples all fail with chance about e^(-4e), 2 * 10^-5. Even k
    is rejected outright: with an even number of ones in every row, the XOR
    of all columns is zero, so the matrix is singular over GF(2). So is
    k = n > 1: every column of a full square holds every symbol, so the
    incidence is all ones, of rank 1.

    At the default k a sample is tested without building its incidence. At
    even n (k = n-1) every sample passes. At odd n (k = n-2) a sample passes
    exactly when the map from each column's symbol in square row n-2 to its
    symbol in row n-1 is one n-cycle, an O(n) test (``gf2.design_cycle``).
    Any other k tests the ``determinant`` of the sample's incidence.
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
    if k == n > 1:
        raise ValueError(
            f"row count {k} fills the square; the incidence matrix of a full "
            "Latin square is all ones, always singular over GF(2)"
        )
    if moves is None:
        moves = n * n
    if moves < 1:
        raise ValueError(f"moves must be at least 1, got {moves}")
    if max_retries is None:
        max_retries = max(64, 4 * n)
    if max_retries < 1:
        raise ValueError(f"max_retries must be at least 1, got {max_retries}")
    walk = _jm_walk(n, random.Random(seed).getrandbits(63), moves)
    kn = k * n
    for _ in range(max_retries):
        sym_at = next(walk)
        if k == n - 1:
            # n is even (k is odd) and B = J xor P, which is always
            # nonsingular: (J xor P)(J xor P^T) = I (gf2._design_inverse).
            passes = True
        elif k == n - 2:
            # n is odd. Column c misses its symbols in the last two rows, and
            # B is nonsingular iff those pairs form one cycle (gf2._design_inverse).
            passes = design_cycle(list(zip(sym_at[kn:kn + n], sym_at[kn + n:]))) is not None
        else:
            # Row c of the incidence marks the (distinct) symbols of column
            # c's first k cells; only the sample that passes becomes a rectangle.
            passes = determinant(
                BitMatrix(n, n, tuple([sum([1 << v for v in sym_at[c:kn:n]]) for c in range(n)]))
            )
        if passes:
            rect = _rows(sym_at, n, k)
            return rect, block_incidence(rect)
    raise DesignSearchError(
        f"no nonsingular {k}x{n} rectangle found in {max_retries} attempts",
        attempts=max_retries,
    )
