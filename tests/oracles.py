"""Independent brute-force references the fast implementations are tested against."""

from __future__ import annotations

from itertools import combinations, permutations
from typing import Sequence

from xorcode.gf2 import BitMatrix


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
