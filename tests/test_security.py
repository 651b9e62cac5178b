import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import EXAMPLE_SQUARE, L5X12, ROUTING_PATHS
from oracles import bit_matrix, span_exposed, subset_min_eavesdrop
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
    # The constructor checks the partition; n is the sets' total size.
    part = PathPartition.from_sequences([(1, 2), (3, 4)])
    assert (part.n, part.maxflow) == (4, 2)
    cases = [
        ([], "at least one path"),
        ([(1, 2), ()], "non-empty and of equal size"),
        ([(1, 2), (3,)], "non-empty and of equal size"),
        ([(1, 2), (2, 3)], "do not partition 1..4"),
        ([(1, 2), (3, 5)], "do not partition 1..4"),
        # a packet repeated within one path is not merged into one entry
        ([(1, 2), (3, 3, 4)], "path 2 carries a packet more than once"),
    ]
    for seqs, message in cases:
        with pytest.raises(ValueError, match=message):
            PathPartition.from_sequences(seqs)
    scheme = make_scheme(L5X12, MODE_BALANCED_DECODE)
    with pytest.raises(ValueError, match="partition covers 1..4, design has 12 packets"):
        min_eavesdrop_paths(scheme, part)
    with pytest.raises(ValueError, match="partition covers 1..4, design has 12 packets"):
        check_condition(L5X12, part)


def test_partition_rejects_non_int_packets():
    # 1.0 and True equal 1 and hash alike, so only the type check stops them.
    for bad in (1.0, True):
        with pytest.raises(ValueError, match="path sets must hold int packet indexes"):
            PathPartition.from_sequences([(bad, 2), (3, 4)])


@st.composite
def split_permutations(draw):
    """f sequences of p packets over a shuffled 1..f*p, often with one packet
    changed, dropped or added."""
    f, p = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    idxs = draw(st.permutations(range(1, f * p + 1)))
    seqs = [list(idxs[i * p:(i + 1) * p]) for i in range(f)]
    edit = draw(st.sampled_from(["none", "change", "drop", "add"]))
    if seqs and edit != "none":
        seq = draw(st.sampled_from(seqs))
        if edit == "add" or not seq:
            seq.append(draw(st.integers(0, f * p + 1)))
        elif edit == "drop":
            seq.pop()
        else:
            seq[draw(st.integers(0, len(seq) - 1))] = draw(st.integers(0, f * p + 1))
    return seqs


ANY_SEQUENCES = st.lists(st.lists(st.integers(0, 9), max_size=4), max_size=4)


@settings(max_examples=300)
@given(st.one_of(split_permutations(), ANY_SEQUENCES))
def test_partition_constructs_exactly_on_equal_size_partitions(seqs):
    # Sequences of packets construct exactly when their concatenation sorts
    # to 1..N for some N >= 1 and all have one size.
    flat = sorted(x for seq in seqs for x in seq)
    valid = flat == list(range(1, len(flat) + 1)) != [] and len({len(seq) for seq in seqs}) == 1
    try:
        part = PathPartition.from_sequences(seqs)
    except ValueError:
        assert not valid
    else:
        assert valid and part.n == len(flat)


def test_check_condition_routing_example():
    assert check_condition(L5X12, FIG3_PARTITION)


def test_check_condition_full_square_any_partition():
    rng = random.Random(2)
    for f in (2, 4):
        assert check_condition(EXAMPLE_SQUARE, random_partition(rng, 4, f))


def test_check_condition_violation():
    # keep all of column 1's five symbols off the third path
    col = sorted(row[0] for row in L5X12.cells)
    others = [i for i in range(1, 13) if i not in col]
    part = PathPartition.from_sequences(
        [tuple(col[:4]), tuple([col[4]] + others[:3]), tuple(others[3:])]
    )
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
    report = min_eavesdrop_paths(scheme, FIG3_PARTITION)
    assert check_condition(L5X12, FIG3_PARTITION) is True
    assert report.condition_holds is True
    assert report.min_paths_to_decode == 3
    assert report.summary_line().startswith("condition=true min_paths=3")
    assert audit(L5X12, scheme, FIG3_PARTITION) == report


def test_audit_degenerate_single_path():
    rect = LatinRectangle(((1,),))
    scheme = make_scheme(rect, MODE_BALANCED_DECODE)
    part = PathPartition.from_sequences([(1,)])
    report = min_eavesdrop_paths(scheme, part)
    assert check_condition(rect, part) is True
    assert report.condition_holds is True
    assert report.min_paths_to_decode == 1


def test_singular_encoding_matrix_is_typed_error():
    # a caller-built scheme whose encoding matrix has no inverse
    e = bit_matrix([[1, 1], [1, 1]])
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
        report = min_eavesdrop_paths(scheme, part)
        assert check_condition(L5X12, part) == (report.min_paths_to_decode == 3), part
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
        report = min_eavesdrop_paths(scheme, part)
        assert check_condition(rect, part) == (report.min_paths_to_decode == f), (rect, part)


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


def test_even_order_top_rows_need_all_paths_unless_one_packet_each():
    # For even n and k = n - 1, B = J + P for a permutation matrix P, and
    # (J + P)(J + P^T) = nJ + I = I, so in both modes every row of E^-1 has
    # weight n - 1: it misses one packet. A path of p >= 2 packets always
    # meets such a row; a path of one packet misses exactly one row.
    rng = random.Random(11)
    for n in (2, 4, 6, 8, 10, 12, 16):
        rect, _ = find_nonsingular_rectangle(n, seed=rng.getrandbits(32), moves=4 * n * n)
        assert rect.k == n - 1
        for mode in MODES:
            scheme = make_scheme(rect, mode)
            inverse = invert(scheme.encode_matrix)
            assert all(row.bit_count() == n - 1 for row in inverse.row_bits), (n, mode)
            for f in [f for f in range(1, n + 1) if n % f == 0]:
                want = f if n // f >= 2 else f - 1
                for _ in range(3):
                    report = min_eavesdrop_paths(scheme, random_partition(rng, n, f))
                    assert report.min_paths_to_decode == want, (n, mode, f)
                    assert report.condition_holds == (want == f)


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


def draw_design(draw):
    """A nonsingular design with odd k and n <= 16."""
    n = draw(st.integers(2, 16))
    k = draw(st.sampled_from(range(1, n, 2)))
    seed = draw(st.integers(0, 2**32 - 1))
    try:
        rect, _ = find_nonsingular_rectangle(n, k=k, seed=seed, moves=4 * n * n)
    except DesignSearchError:
        assume(False)  # some small (n, k) are rarely nonsingular
    return rect


def draw_partition(draw, n, path_counts):
    """Equal-size path sets over 1..n, for a path count f in path_counts dividing n."""
    f = draw(st.sampled_from([f for f in path_counts if n % f == 0]))
    idxs = draw(st.permutations(range(1, n + 1)))
    p = n // f
    return PathPartition.from_sequences([idxs[i * p:(i + 1) * p] for i in range(f)])


@st.composite
def schemes(draw):
    """A real design's scheme in either mode, or a random invertible scheme.

    The random encoding matrix is a row permutation of I with random row
    additions applied, so it is invertible and may keep weight-1 rows.
    """
    if draw(st.booleans()):
        return make_scheme(draw_design(draw), draw(st.sampled_from(MODES)))
    n = draw(st.integers(2, 16))
    rows = [1 << j for j in draw(st.permutations(range(n)))]
    additions = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1))
    for i, d in draw(st.lists(additions, max_size=3 * n)):
        rows[i] ^= rows[(i + d) % n]  # row i += another row
    e = BitMatrix(n, n, tuple(rows))
    return CodingScheme(n, 1, e, invert(e), MODE_DIRECT)


@st.composite
def scheme_and_partition(draw):
    scheme = draw(schemes())
    return scheme, draw_partition(draw, scheme.n, range(1, 9))


@settings(deadline=None, max_examples=300)
@given(scheme_and_partition())
def test_min_eavesdrop_matches_subset_oracle(case):
    scheme, part = case
    assert min_eavesdrop_paths(scheme, part) == subset_min_eavesdrop(scheme, part)


@st.composite
def design_and_partition(draw):
    rect = draw_design(draw)
    return rect, draw_partition(draw, rect.n, range(1, rect.n + 1))


@settings(deadline=None, max_examples=200)
@given(design_and_partition())
def test_column_test_is_balanced_decode_condition(case):
    rect, part = case
    scheme = make_scheme(rect, MODE_BALANCED_DECODE)
    assert check_condition(rect, part) == min_eavesdrop_paths(scheme, part).condition_holds
