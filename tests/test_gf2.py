import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EXAMPLE_M_ROWS, INVERSE_SUPPORTS, L5X12
from oracles import (
    exhaustive_in_rowspan,
    leibniz_determinant,
    mat_mul,
    naive_mat_mul,
    transpose,
)
from xorcode import (
    Basis,
    BitMatrix,
    SingularMatrixError,
    block_incidence,
    determinant,
    invert,
    rank,
    split_upper,
)


def random_matrix(rng, rows, cols):
    return BitMatrix(rows, cols, tuple(rng.getrandbits(cols) for _ in range(rows)))


@st.composite
def matrices(draw, square=False):
    cols = draw(st.integers(1, 6))
    rows = cols if square else draw(st.integers(1, 6))
    bits = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows))
    return BitMatrix(rows, cols, tuple(bits))


def test_mat_mul_identity_and_scalar():
    m = BitMatrix.from_strings(EXAMPLE_M_ROWS)
    assert mat_mul(m, BitMatrix.identity(4)) == m
    one = BitMatrix.from_strings(["1"])
    assert mat_mul(one, one) == one


def test_mat_mul_inverse_roundtrip():
    m = BitMatrix.from_strings(EXAMPLE_M_ROWS)
    assert mat_mul(m, invert(m)) == BitMatrix.identity(4)
    assert mat_mul(invert(m), m) == BitMatrix.identity(4)


def test_mat_mul_against_naive():
    rng = random.Random(11)
    for _ in range(30):
        r, k, c = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        a = random_matrix(rng, r, k)
        b = random_matrix(rng, k, c)
        want = naive_mat_mul(
            [[(a.row_bits[i] >> j) & 1 for j in range(k)] for i in range(r)],
            [[(b.row_bits[i] >> j) & 1 for j in range(c)] for i in range(k)],
        )
        assert mat_mul(a, b) == BitMatrix.from_rows(want)


def test_mat_mul_dimension_error():
    with pytest.raises(ValueError):
        mat_mul(BitMatrix.identity(3), BitMatrix.identity(4))


def test_determinant_examples():
    assert determinant(BitMatrix.from_strings(EXAMPLE_M_ROWS)) == 1
    assert determinant(BitMatrix.from_strings(["11", "11"])) == 0
    # even-row rectangle incidence must be singular
    even = block_incidence(split_upper(L5X12, 2))
    assert determinant(even) == 0
    with pytest.raises(ValueError):
        determinant(BitMatrix.from_strings(["10", "01", "11"]))


@settings(deadline=None)
@given(matrices(square=True))
def test_determinant_matches_leibniz(m):
    det = leibniz_determinant(m)
    assert determinant(m) == det
    assert (rank(m) == m.rows) == bool(det)


def test_invert_identity_and_errors():
    assert invert(BitMatrix.identity(5)) == BitMatrix.identity(5)
    with pytest.raises(SingularMatrixError):
        invert(BitMatrix.from_strings(["11", "11"]))
    with pytest.raises(ValueError):
        invert(BitMatrix.from_strings(["10", "01", "11"]))


def test_invert_block_incidence_of_l5x12():
    b = block_incidence(L5X12)
    b_inv = invert(b)
    assert set(j + 1 for j in b_inv.row_support(0)) == {2, 5, 10, 11, 12}
    got = [set(j + 1 for j in b_inv.row_support(i)) for i in range(12)]
    assert got == INVERSE_SUPPORTS
    assert mat_mul(b, b_inv) == BitMatrix.identity(12)


@settings(deadline=None)
@given(matrices(square=True))
def test_invert_det_consistency(m):
    if determinant(m):
        inv = invert(m)
        assert mat_mul(m, inv) == BitMatrix.identity(m.rows)
        assert mat_mul(inv, m) == BitMatrix.identity(m.rows)
    else:
        with pytest.raises(SingularMatrixError):
            invert(m)


def test_rank_examples():
    assert rank(BitMatrix.identity(5)) == 5
    assert rank(BitMatrix.from_strings(["101", "101"])) == 1
    assert rank(block_incidence(L5X12)) == 12


@settings(deadline=None)
@given(matrices())
def test_rank_transpose_invariant(m):
    assert rank(m) == rank(transpose(m))


def test_mul_associativity():
    rng = random.Random(31)
    for _ in range(40):
        r, k, c = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        a = random_matrix(rng, r, k)
        b = random_matrix(rng, k, c)
        x = random_matrix(rng, c, 1)
        assert mat_mul(mat_mul(a, b), x) == mat_mul(a, mat_mul(b, x))


def basis_of(rows):
    basis = Basis()
    for row in rows:
        basis.add(row)
    return basis


def test_in_rowspan_examples():
    basis = basis_of([0b011, 0b010])
    assert basis.reduce(0)[0] == 0
    assert basis.reduce(0b001)[0] == 0  # sum of the two rows
    assert basis.reduce(0b100)[0] != 0
    assert basis.spanned_units(3) == (0, 1)
    assert len(basis) == 2
    assert basis.add(0b001) == (0, 0)  # dependent: nothing added
    assert len(basis) == 2


def test_in_rowspan_two_routing_paths_expose_nothing():
    b_inv = invert(block_incidence(L5X12))
    captured = (3, 10, 7, 2, 8, 4, 11, 9)  # packets on two of the three paths
    basis = basis_of(b_inv.row_bits[i - 1] for i in captured)
    assert basis.spanned_units(12) == ()


@settings(deadline=None)
@given(matrices(), st.data())
def test_in_rowspan_matches_exhaustive(m, data):
    rows = list(m.row_bits)
    target = data.draw(st.integers(0, (1 << m.cols) - 1))
    basis = basis_of(rows)
    assert (basis.reduce(target)[0] == 0) == exhaustive_in_rowspan(rows, target)
    assert basis.spanned_units(m.cols) == tuple(
        l for l in range(m.cols) if exhaustive_in_rowspan(rows, 1 << l)
    )


def test_matrix_text_roundtrip():
    m = BitMatrix.from_strings(EXAMPLE_M_ROWS)
    assert BitMatrix.from_text(m.to_text()) == m
    assert m.to_text().splitlines()[0] == "4 4"
