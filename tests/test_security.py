import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import EXAMPLE_SQUARE, L5X12, ROUTING_PATHS
from oracles import span_exposed, subset_min_eavesdrop
from xorcode import (
    MODE_BALANCED_DECODE,
    MODE_DIRECT,
    MODES,
    BitMatrix,
    CodingScheme,
    DesignSearchError,
    LatinRectangle,
    PathPartition,
    SingularMatrixError,
    audit,
    check_condition,
    find_nonsingular_rectangle,
    invert,
    make_scheme,
    min_eavesdrop_paths,
)

FIG3_PARTITION = PathPartition.from_sequences(ROUTING_PATHS)


def contiguous_partition(n, f):
    p = n // f
    return PathPartition.from_sequences(
        [tuple(range(i * p + 1, (i + 1) * p + 1)) for i in range(f)]
    )


def random_partition(rng, n, f):
    idxs = list(range(1, n + 1))
    rng.shuffle(idxs)
    p = n // f
    return PathPartition.from_sequences(
        [tuple(idxs[i * p:(i + 1) * p]) for i in range(f)]
    )


def test_partition_validation():
    part = PathPartition.from_sequences([(1, 2), (3, 4)])
    part.check(4)
    with pytest.raises(ValueError):
        PathPartition.from_sequences([(1, 2), ()])
    with pytest.raises(ValueError):
        PathPartition.from_sequences([(1, 2), (2, 3)]).check(3)
    with pytest.raises(ValueError):
        PathPartition.from_sequences([(1, 2), (3,)]).check(3)
    with pytest.raises(ValueError):
        PathPartition.from_sequences([(1, 2), (3, 5)]).check(4)


def test_check_condition_routing_example():
    assert check_condition(L5X12, FIG3_PARTITION)


def test_check_condition_full_square_any_partition():
    rng = random.Random(2)
    for f in (2, 4):
        assert check_condition(EXAMPLE_SQUARE, random_partition(rng, 4, f))


def test_check_condition_violation():
    # keep all of column 1's five symbols off the third path
    col = sorted(L5X12.column_symbols(0))
    others = [i for i in range(1, 13) if i not in col]
    part = PathPartition.from_sequences(
        [tuple(col[:4]), tuple([col[4]] + others[:3]), tuple(others[3:])]
    )
    part.check(12)
    assert not check_condition(L5X12, part)


def test_min_eavesdrop_routing_example():
    scheme = make_scheme(L5X12, MODE_BALANCED_DECODE)
    report = min_eavesdrop_paths(scheme, FIG3_PARTITION)
    assert report.min_paths_to_decode == 3
    assert report.witness_paths == (1, 2, 3)
    assert report.exposed_sources == tuple(range(1, 13))


def test_two_tapped_paths_expose_nothing():
    scheme = make_scheme(L5X12, MODE_BALANCED_DECODE)
    rows = scheme.encode_matrix.row_bits
    for a in range(3):
        for b in range(a + 1, 3):
            captured = set(FIG3_PARTITION.sets[a]) | set(FIG3_PARTITION.sets[b])
            assert span_exposed(rows, captured) == ()


def test_plain_packet_leaks_immediately():
    # direct scheme with a weight-1 encode row: a 1x1 sub-design embedded via k=1
    rect = LatinRectangle(((2, 1, 4, 3),))
    scheme = make_scheme(rect, MODE_DIRECT)
    part = contiguous_partition(4, 2)
    report = min_eavesdrop_paths(scheme, part)
    assert report.min_paths_to_decode == 1
    assert report.witness_paths == (1,)


def test_audit_routing_example():
    scheme = make_scheme(L5X12, MODE_BALANCED_DECODE)
    report = audit(L5X12, scheme, FIG3_PARTITION)
    assert report.condition_holds is True
    assert report.min_paths_to_decode == 3
    assert not report.discrepancy
    assert report.summary_line().startswith("condition=true min_paths=3")


def test_audit_degenerate_single_path():
    rect = LatinRectangle(((1,),))
    scheme = make_scheme(rect, MODE_BALANCED_DECODE)
    part = PathPartition.from_sequences([(1,)])
    report = audit(rect, scheme, part)
    assert report.condition_holds is True
    assert report.min_paths_to_decode == 1
    assert not report.discrepancy


def test_singular_encoding_matrix_is_typed_error():
    # a caller-built scheme whose encoding matrix has no inverse
    e = BitMatrix.from_rows([[1, 1], [1, 1]])
    scheme = CodingScheme(2, 1, e, e, MODE_DIRECT)
    part = PathPartition.from_sequences([(1,), (2,)])
    with pytest.raises(SingularMatrixError):
        min_eavesdrop_paths(scheme, part)
    with pytest.raises(SingularMatrixError):
        audit(LatinRectangle(((1, 2),)), scheme, part)


def test_audit_violated_condition_consistent():
    scheme = make_scheme(L5X12, MODE_BALANCED_DECODE)
    rng = random.Random(6)
    seen_violation = False
    for _ in range(200):
        part = random_partition(rng, 12, 3)
        report = audit(L5X12, scheme, part)
        assert not report.discrepancy
        if not report.condition_holds:
            seen_violation = True
            assert report.min_paths_to_decode < 3
    assert seen_violation


def test_monotone_in_tapped_paths():
    scheme = make_scheme(L5X12, MODE_BALANCED_DECODE)
    rows = scheme.encode_matrix.row_bits
    rng = random.Random(7)
    part = random_partition(rng, 12, 3)
    sets = [set(s) for s in part.sets]
    single = set(span_exposed(rows, sets[0]))
    double = set(span_exposed(rows, sets[0] | sets[1]))
    triple = set(span_exposed(rows, sets[0] | sets[1] | sets[2]))
    assert single <= double <= triple


def test_equivalence_random_instances():
    rng = random.Random(8)
    for _ in range(60):
        n = rng.choice([4, 6, 8, 9, 12])
        k = rng.choice([x for x in range(1, n - 1) if x % 2 == 1])
        f = rng.choice([x for x in (2, 3, 4) if n % x == 0])
        rect, _ = find_nonsingular_rectangle(
            n, k=k, seed=rng.getrandbits(32), moves=4 * n * n
        )
        scheme = make_scheme(rect, MODE_BALANCED_DECODE)
        part = random_partition(rng, n, f)
        report = audit(rect, scheme, part)
        assert not report.discrepancy, (rect, part)


def test_high_row_designs_force_all_paths():
    # with n-1 or n-2 rows, every decoding needs more packets than f-1 paths carry
    rng = random.Random(9)
    for n in (4, 6, 8, 9, 12):
        for f in (2, 3, 4):
            if n % f or f == n:
                continue
            rect, _ = find_nonsingular_rectangle(n, seed=rng.getrandbits(32))
            scheme = make_scheme(rect, MODE_BALANCED_DECODE)
            for _ in range(3):
                part = random_partition(rng, n, f)
                report = min_eavesdrop_paths(scheme, part)
                assert report.min_paths_to_decode == f, (n, f, part)
    # Wide audits: a search over tapped subsets would try up to 2^f of them.
    for n, f in ((40, 20), (64, 16)):
        rect, _ = find_nonsingular_rectangle(n, seed=rng.getrandbits(32), moves=n * n)
        scheme = make_scheme(rect, MODE_BALANCED_DECODE)
        report = min_eavesdrop_paths(scheme, random_partition(rng, n, f))
        assert report.min_paths_to_decode == f
        assert report.witness_paths == tuple(range(1, f + 1))


def test_brute_force_matches_exhaustive_combinations():
    from itertools import combinations

    rng = random.Random(10)
    rect, _ = find_nonsingular_rectangle(6, k=3, seed=4, moves=100)
    scheme = make_scheme(rect, MODE_BALANCED_DECODE)
    rows = scheme.encode_matrix.row_bits
    for _ in range(20):
        captured = set(rng.sample(range(1, 7), rng.randint(1, 5)))
        want = set()
        vecs = [rows[i - 1] for i in sorted(captured)]
        for size in range(1, len(vecs) + 1):
            for combo in combinations(vecs, size):
                acc = 0
                for v in combo:
                    acc ^= v
                if acc and acc & (acc - 1) == 0:
                    want.add(acc.bit_length())
        assert set(span_exposed(rows, captured)) == want


@st.composite
def schemes(draw):
    """A real design's scheme in either mode, or a random invertible scheme.

    The random encoding matrix is a row permutation of I with random row
    additions applied, so it is invertible and may keep weight-1 rows.
    """
    n = draw(st.integers(2, 16))
    if draw(st.booleans()):
        k = draw(st.sampled_from(range(1, n, 2)))
        seed = draw(st.integers(0, 2**32 - 1))
        try:
            rect, _ = find_nonsingular_rectangle(n, k=k, seed=seed, moves=4 * n * n)
        except DesignSearchError:
            assume(False)  # some small (n, k) are rarely nonsingular
        return make_scheme(rect, draw(st.sampled_from(MODES)))
    rows = [1 << j for j in draw(st.permutations(range(n)))]
    additions = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1))
    for i, d in draw(st.lists(additions, max_size=3 * n)):
        rows[i] ^= rows[(i + d) % n]  # row i += another row
    e = BitMatrix(n, n, tuple(rows))
    return CodingScheme(n, 1, e, invert(e), MODE_DIRECT)


@st.composite
def scheme_and_partition(draw):
    scheme = draw(schemes())
    n = scheme.n
    f = draw(st.sampled_from([f for f in range(1, 9) if n % f == 0]))
    idxs = draw(st.permutations(range(1, n + 1)))
    p = n // f
    return scheme, PathPartition.from_sequences([idxs[i * p:(i + 1) * p] for i in range(f)])


@settings(deadline=None, max_examples=300)
@given(scheme_and_partition())
def test_min_eavesdrop_matches_subset_oracle(case):
    scheme, part = case
    assert min_eavesdrop_paths(scheme, part) == subset_min_eavesdrop(scheme, part)
