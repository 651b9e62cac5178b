import hashlib
import math
import random
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EXAMPLE_M_ROWS, EXAMPLE_SQUARE, INCIDENCE_SUPPORTS, L5X12
from oracles import (
    bit_matrix,
    enumerate_latin_squares,
    is_balanced,
    mat_mul,
    reference_jm_generate,
    transpose,
)
from xorcode import (
    BitMatrix,
    DesignSearchError,
    LatinRectangle,
    auto_rows,
    block_incidence,
    determinant,
    find_nonsingular_rectangle,
    invert,
    jm_generate,
    split_upper,
)


def test_validate_examples():
    # The Latin check lives in the constructor: valid arrays construct, invalid ones raise.
    assert LatinRectangle(EXAMPLE_SQUARE.cells) == EXAMPLE_SQUARE
    assert LatinRectangle(L5X12.cells) == L5X12
    with pytest.raises(ValueError, match="column 1 repeats"):
        LatinRectangle(((1, 2), (1, 2)))
    with pytest.raises(ValueError, match="row 1 is not a permutation"):
        LatinRectangle(((1, 1),))
    with pytest.raises(ValueError, match="row 1 is not a permutation"):
        LatinRectangle(((1, 3),))  # 3 is out of range for n=2


ORDER_4_SQUARES = enumerate_latin_squares(4)
# Every Latin rectangle extends to a square by adding rows below it, so the
# k-row prefixes of the 576 order-4 squares are all the k x 4 rectangles.
ORDER_4_PREFIXES = {sq[:k] for sq in ORDER_4_SQUARES for k in range(1, 5)}


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_constructor_accepts_exactly_the_latin_prefixes(data):
    k = data.draw(st.integers(1, 4))
    if data.draw(st.booleans()):
        # Permutation rows drawn independently: only the column rule can fail.
        rows = [list(data.draw(st.permutations(range(1, 5)))) for _ in range(k)]
    else:
        rows = [list(row) for row in data.draw(st.sampled_from(ORDER_4_SQUARES))[:k]]
        if data.draw(st.booleans()):
            rows[data.draw(st.integers(0, k - 1))][data.draw(st.integers(0, 3))] = data.draw(
                st.integers(0, 5)
            )
    cells = tuple(tuple(row) for row in rows)
    if cells in ORDER_4_PREFIXES:
        assert LatinRectangle(cells).cells == cells
    else:
        with pytest.raises(ValueError):
            LatinRectangle(cells)


def test_constructor_rejects_non_int_cells():
    # 1.0 and True equal 1, so only the type check keeps to_text's output
    # readable by from_text.
    for row in ((1.0, 2), (True, 2), (2, 1.0)):
        with pytest.raises(ValueError, match="row 1 holds a non-int entry"):
            LatinRectangle((row,))
    with pytest.raises(ValueError, match="row 2 holds a non-int entry"):
        LatinRectangle(((1, 2), (2, True)))


def test_rectangle_shape_errors():
    with pytest.raises(ValueError, match="at least one row and one column"):
        LatinRectangle(())
    with pytest.raises(ValueError):
        LatinRectangle(((1, 2), (2, 1), (1, 2)))  # more rows than columns
    with pytest.raises(ValueError):
        LatinRectangle(((1, 2), (1,)))
    with pytest.raises(ValueError):
        LatinRectangle(((1, 2), (2, 1, 1)))  # holds the symbols 1..n but is too long


def test_split_upper():
    r = split_upper(EXAMPLE_SQUARE, 3)
    assert r.cells == ((2, 4, 1, 3), (1, 3, 2, 4), (3, 2, 4, 1))
    assert split_upper(EXAMPLE_SQUARE, 4) == EXAMPLE_SQUARE
    assert split_upper(EXAMPLE_SQUARE, 1).k == 1
    with pytest.raises(ValueError):
        split_upper(EXAMPLE_SQUARE, 0)
    with pytest.raises(ValueError):
        split_upper(EXAMPLE_SQUARE, 5)


def test_block_incidence_reproduces_known_matrix():
    m = block_incidence(split_upper(EXAMPLE_SQUARE, 3))
    assert tuple(m.to_text().splitlines()[1:]) == EXAMPLE_M_ROWS


def test_block_incidence_of_permutation_row():
    r = LatinRectangle(((3, 1, 4, 2),))
    m = block_incidence(r)
    for j in range(4):
        assert m.row_support(j) == (r.cells[0][j] - 1,)


def test_block_incidence_l5x12_supports():
    m = block_incidence(L5X12)
    got = [set(x + 1 for x in m.row_support(j)) for j in range(12)]
    assert got == INCIDENCE_SUPPORTS


def test_block_incidence_rejects_invalid():
    # A non-Latin array never reaches block_incidence: the constructor raises first.
    with pytest.raises(ValueError):
        block_incidence(LatinRectangle(((1, 2), (1, 2))))


def test_is_balanced():
    m = block_incidence(split_upper(EXAMPLE_SQUARE, 3))
    assert is_balanced(m, 3)
    assert not is_balanced(m, 2)
    assert is_balanced(bit_matrix(["1000", "0100", "0010", "0001"]), 1)
    flipped = BitMatrix(4, 4, (m.row_bits[0] ^ 1,) + m.row_bits[1:])
    assert not is_balanced(flipped, 3)
    with pytest.raises(ValueError):
        is_balanced(bit_matrix(["10", "01", "11"]), 1)


def test_balance_holds_for_random_rectangles():
    rng = random.Random(9)
    for _ in range(60):
        n = rng.randint(3, 10)
        k = rng.randint(1, n)
        rect = split_upper(jm_generate(n, seed=rng.getrandbits(32), moves=4 * n * n), k)
        assert is_balanced(block_incidence(rect), k)


def test_even_rows_always_singular():
    rng = random.Random(10)
    for _ in range(60):
        n = rng.randint(3, 10)
        k = rng.randrange(2, n + 1, 2)
        rect = split_upper(jm_generate(n, seed=rng.getrandbits(32), moves=4 * n * n), k)
        assert determinant(block_incidence(rect)) == 0


def test_odd_rows_not_sufficient():
    # odd row count does not guarantee nonsingularity; search must find a
    # singular odd-row instance
    rng = random.Random(11)
    found = None
    for _ in range(3000):
        n = rng.randint(4, 8)
        k = rng.choice([x for x in range(3, n) if x % 2 == 1])
        rect = split_upper(jm_generate(n, seed=rng.getrandbits(32), moves=4 * n * n), k)
        if determinant(block_incidence(rect)) == 0:
            found = (n, k)
            break
    assert found is not None


def test_jm_trivial_orders():
    assert jm_generate(1).cells == ((1,),)
    assert jm_generate(2, seed=3).n == 2
    with pytest.raises(ValueError):
        jm_generate(0)
    with pytest.raises(ValueError, match="moves must be at least 0"):
        jm_generate(4, moves=-1)  # used to return the start square


def test_order_two_draws_both_squares_evenly():
    # Every accepted move of the order-2 walk swaps its two squares, so a walk
    # of fixed length returned the same square for every seed.
    samples = 4000
    for moves in (None, 1, 8):
        counts = Counter(jm_generate(2, seed, moves).cells for seed in range(samples))
        assert set(counts) == {((1, 2), (2, 1)), ((2, 1), (1, 2))}
        for count in counts.values():
            assert abs(count - samples / 2) <= 4 * math.sqrt(samples / 4), (moves, counts)


def start_agreement(n: int, moves: int | None, seeds: int) -> float:
    """Share of cells, over seeds 0..seeds-1, that keep the cyclic start symbol."""
    kept = 0
    for seed in range(seeds):
        cells = jm_generate(n, seed, moves).cells
        kept += sum(cells[r][c] == (r + c) % n + 1 for r in range(n) for c in range(n))
    return kept / (seeds * n * n)


def test_default_walk_forgets_the_start_square():
    # A uniform square keeps 1/n of its start symbols. Over 40 seeds at n=16
    # one standard error is about 0.0025, so 0.2/n is about five of them; a
    # walk of n moves is far outside it.
    n = 16
    assert abs(start_agreement(n, None, 40) - 1 / n) <= 0.2 / n
    assert start_agreement(n, n, 40) - 1 / n > 0.2 / n


def test_order_three_chi_squared_at_default_length():
    # All 12 order-3 squares equally often; 31.26 is the 0.1 % point of
    # chi-squared on 11 degrees of freedom. A 2-move walk fails the same test.
    squares = enumerate_latin_squares(3)
    samples = 6000

    def chi2(moves):
        counts = Counter(jm_generate(3, seed, moves).cells for seed in range(samples))
        mean = samples / len(squares)
        return sum((counts[sq] - mean) ** 2 for sq in squares) / mean

    assert chi2(None) < 31.26
    assert chi2(2) > 31.26


def test_jm_always_valid():
    count = 0
    for n in range(2, 11):
        for seed in range(112):
            jm_generate(n, seed=seed, moves=2 * n * n)  # the constructor checks it
            count += 1
    assert count >= 1000


def test_jm_deterministic_per_seed():
    assert jm_generate(8, seed=42) == jm_generate(8, seed=42)
    assert jm_generate(8, seed=42) != jm_generate(8, seed=43)


JM_GOLDEN_SHA256 = "1e05827bde87efdbba3e0764680de207414eef0aba29d35b565c2b9d47e35b78"


def test_jm_generate_golden():
    # Seeded squares are part of the contract: designs, README and CLI
    # digests all derive from them.
    digest = hashlib.sha256()
    for n in range(1, 14):
        for seed in range(8):
            for moves in (None, 0, 1, 5, 37):
                digest.update(jm_generate(n, seed, moves).to_text().encode())
    assert digest.hexdigest() == JM_GOLDEN_SHA256


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 12), st.integers(0, 2**63 - 1), st.none() | st.integers(0, 200))
def test_jm_generate_matches_reference_walk(n, seed, moves):
    assert jm_generate(n, seed, moves) == reference_jm_generate(n, seed, moves)


def test_jm_generate_matches_reference_walk_at_larger_orders():
    # The property above stops at n = 12; the walk's step is the same at
    # every order, but its excursions grow with n.
    rng = random.Random(22)
    for n in range(13, 25):
        for moves in (None, 1, 2 * n):
            seed = rng.getrandbits(63)
            assert jm_generate(n, seed, moves) == reference_jm_generate(n, seed, moves)


class CountingRandom(random.Random):
    """random.Random that counts its random() calls and its getrandbits calls by width."""

    def __init__(self, seed):
        self.calls = Counter()
        super().__init__(seed)

    def random(self):
        self.calls["random"] += 1
        return super().random()

    def getrandbits(self, k):
        self.calls[f"getrandbits({k})"] += 1
        return super().getrandbits(k)


def test_walk_makes_one_draw_per_raw_step(monkeypatch):
    # One random() per pivot try and one getrandbits(3) per improper step,
    # counted against the reference walk's own tally.
    made = []

    def counting_random(seed):
        made.append(CountingRandom(seed))
        return made[-1]

    monkeypatch.setattr("xorcode.latin.random", SimpleNamespace(Random=counting_random))
    improper_steps = 0
    for n in range(1, 15):
        for seed in range(3):
            for moves in (None, 1, 2 * n):
                counts = {}
                square = reference_jm_generate(n, seed, moves, counts)
                assert jm_generate(n, seed, moves) == square
                if n <= 2:  # one random() per sample
                    assert made[-1].calls == Counter(random=1)
                    continue
                assert made[-1].calls == Counter(
                    {"random": counts["pivot_tries"], "getrandbits(3)": counts["improper_steps"]}
                ), (n, seed, moves)
                improper_steps += counts["improper_steps"]
    assert improper_steps > 0


def test_column_supports_match_square_columns():
    rng = random.Random(12)
    for _ in range(20):
        n = rng.randint(2, 9)
        k = rng.randint(1, n)
        sq = jm_generate(n, seed=rng.getrandbits(32), moves=4 * n * n)
        rect = split_upper(sq, k)
        m = block_incidence(rect)
        for j in range(n):
            head = set(sq.cells[i][j] for i in range(k))
            assert set(x + 1 for x in m.row_support(j)) == head


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(range(4, 17, 2)), st.integers(0, 2**63 - 1))
def test_even_order_top_rows_invert_in_closed_form(n, seed):
    # B = J xor P, P the permutation to each column's missing symbol; for even
    # n, (J xor P)(J xor I) = J.J xor J xor J xor P = P, so B^-1 = (J xor I) P^T.
    square = jm_generate(n, seed=seed)
    full = (1 << n) - 1
    perm = BitMatrix(n, n, tuple(1 << (sym - 1) for sym in square.cells[n - 1]))
    b = block_incidence(split_upper(square, n - 1))
    assert b.row_bits == tuple(full ^ row for row in perm.row_bits)
    assert determinant(b) == 1
    j_plus_i = BitMatrix(n, n, tuple(full ^ (1 << i) for i in range(n)))
    assert invert(b) == mat_mul(j_plus_i, transpose(perm))


def test_cyclic_square_top_rows_are_nonsingular():
    # simulate's design. Even n leaves out one row, so B = J xor P; odd n
    # leaves out rows n-2 and n-1, which differ by the shift by one, an n-cycle.
    for n in range(1, 130):
        rect = split_upper(jm_generate(n, moves=0), auto_rows(n))
        assert determinant(block_incidence(rect)) == 1, n


def test_auto_rows():
    assert auto_rows(1) == 1
    assert auto_rows(4) == 3
    assert auto_rows(9) == 7
    assert auto_rows(12) == 11
    with pytest.raises(ValueError, match="order must be at least 1"):
        auto_rows(0)


def test_find_nonsingular_auto():
    rect, m = find_nonsingular_rectangle(4, seed=7)
    assert rect.k == 3 and rect.n == 4
    assert determinant(m) == 1
    assert is_balanced(m, 3)


def test_find_nonsingular_given_k():
    rect, m = find_nonsingular_rectangle(12, k=5, seed=1)
    assert rect.k == 5
    assert determinant(m) == 1


def test_find_nonsingular_continues_one_walk():
    # One walk per search, seeded like the first fresh walk used to be:
    # sample j is the reference walk after (j + 1) * M accepted moves, and the
    # search returns the first sample that passes.
    samples_needed = {}
    for n, k in ((12, 5), (13, None), (9, 7), (16, 7), (5, 3)):
        rows = auto_rows(n) if k is None else k
        for seed in range(3):
            for moves in (None, 4 * n * n, n - 2):
                length = n * n if moves is None else moves
                s0 = random.Random(seed).getrandbits(63)
                for j in range(64):
                    rect = split_upper(reference_jm_generate(n, s0, (j + 1) * length), rows)
                    if determinant(block_incidence(rect)):
                        break
                assert find_nonsingular_rectangle(n, k, seed, moves=moves)[0] == rect
                samples_needed[n, rows, seed, moves] = j
    assert max(samples_needed.values()) >= 2


def test_find_nonsingular_later_samples_at_odd_orders():
    # Odd orders retry most, so these searches return a late sample of the
    # walk: each is the reference walk after (j + 1) * n^2 moves.
    for n, k, seed in ((17, None, 0), (19, 15, 3), (21, None, 6)):
        rows = auto_rows(n) if k is None else k
        s0 = random.Random(seed).getrandbits(63)
        for j in range(64):
            rect = split_upper(reference_jm_generate(n, s0, (j + 1) * n * n), rows)
            if determinant(block_incidence(rect)):
                break
        assert j >= 2
        assert find_nonsingular_rectangle(n, k, seed)[0] == rect


def test_find_nonsingular_returns_the_rectangle_and_its_incidence():
    # The search tests an incidence built from the walk's raw square and
    # builds only the accepted rectangle, so the two must agree.
    rng = random.Random(8)
    for n in range(1, 15):
        for k in range(1, n + 1, 2):
            seed = rng.getrandbits(63)
            if k == n > 1:  # a full square's incidence is all ones
                with pytest.raises(ValueError, match="fills the square"):
                    find_nonsingular_rectangle(n, k, seed, max_retries=2)
                continue
            rect, m = find_nonsingular_rectangle(n, k, seed)
            assert (rect.k, rect.n) == (k, n)
            assert m == block_incidence(rect)
            assert determinant(m) == 1


def test_find_nonsingular_rejects_even_k():
    with pytest.raises(ValueError, match="even"):
        find_nonsingular_rectangle(4, k=2)
    with pytest.raises(ValueError, match="order must be at least 1"):
        find_nonsingular_rectangle(0)
    for k in (0, -1, 6):
        with pytest.raises(ValueError, match=f"row count must be in 1..5, got {k}"):
            find_nonsingular_rectangle(5, k=k)


def test_find_nonsingular_rejects_an_empty_walk():
    # Every sample of a zero-move walk would be the start square.
    with pytest.raises(ValueError, match="moves must be at least 1"):
        find_nonsingular_rectangle(5, moves=0)


def test_find_nonsingular_rejects_no_retries():
    # Without a tested sample there is no failed search to report.
    for max_retries in (0, -3):
        with pytest.raises(ValueError, match=f"max_retries must be at least 1, got {max_retries}"):
            find_nonsingular_rectangle(8, max_retries=max_retries)


def test_find_nonsingular_search_failure(monkeypatch):
    # Every sample is singular, so the search tests all it may.
    monkeypatch.setattr("xorcode.latin.determinant", lambda m: 0)
    with pytest.raises(DesignSearchError) as exc:
        find_nonsingular_rectangle(3, k=1, max_retries=5)
    assert exc.value.attempts == 5
    # By default the search tests max(64, 4n) samples.
    for n, attempts in ((5, 64), (21, 84)):
        with pytest.raises(DesignSearchError) as exc:
            find_nonsingular_rectangle(n)
        assert exc.value.attempts == attempts


def test_find_nonsingular_rejects_a_full_square_without_walking(monkeypatch):
    # A full square's incidence is all ones; no sample is drawn to learn that.
    monkeypatch.setattr("xorcode.latin._jm_walk", None)
    for n in (3, 9, 201):
        with pytest.raises(ValueError, match=f"row count {n} fills the square"):
            find_nonsingular_rectangle(n, k=n)


def test_rectangle_text_roundtrip():
    text = L5X12.to_text()
    assert LatinRectangle.from_text(text) == L5X12
    assert text.splitlines()[0] == "5 12"
