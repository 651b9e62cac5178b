"""Acceptance suite: one test per shipped guarantee, exact tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Total runtime is well under two minutes on a laptop.
"""

import math
import random
import time
from collections import Counter

from conftest import (
    EXAMPLE_M_ROWS,
    EXAMPLE_SQUARE,
    INCIDENCE_SUPPORTS,
    INVERSE_SUPPORTS,
    L5X12,
    ROUTING_PATHS,
    TABLE1_SCHEDULE,
)
from oracles import enumerate_latin_squares, span_exposed
from xorcode import (
    MODE_BALANCED_DECODE,
    MODE_DIRECT,
    PathPartition,
    SourceBlock,
    audit,
    block_incidence,
    build_schedule,
    check_condition,
    decode,
    determinant,
    encode,
    find_nonsingular_rectangle,
    invert,
    is_balanced,
    jm_generate,
    make_scheme,
    min_eavesdrop_paths,
    parse_schedule,
    simulate,
    split_upper,
    validate_schedule,
)


def ok(num, msg):
    print(f"\n[PASS] criterion {num}: {msg}")


def test_criterion_1_small_example_reproduction():
    rect = split_upper(EXAMPLE_SQUARE, 3)
    m = block_incidence(rect)
    assert tuple(m.to_text().splitlines()[1:]) == EXAMPLE_M_ROWS

    scheme = make_scheme(rect, MODE_DIRECT)
    rng = random.Random(1)
    x = [rng.randbytes(6) for _ in range(4)]
    packets = encode(scheme, SourceBlock.from_packets(x))
    expected_headers = [(1, 2, 3), (2, 3, 4), (1, 2, 4), (1, 3, 4)]
    for p, header in zip(packets, expected_headers):
        assert p.header == header
        want = bytes(6)
        for j in header:
            want = bytes(a ^ b for a, b in zip(want, x[j - 1]))
        assert p.payload == want
    out = decode(packets, 4)
    assert out.packets == tuple(x)
    ok(1, "4x4 design reproduces the known incidence matrix, XOR equations and round trip")


def test_criterion_2_large_example_reproduction():
    b = block_incidence(L5X12)
    got = [set(j + 1 for j in b.row_support(i)) for i in range(12)]
    assert got == INCIDENCE_SUPPORTS

    b_inv = invert(b)
    got_inv = [set(j + 1 for j in b_inv.row_support(i)) for i in range(12)]
    assert got_inv == INVERSE_SUPPORTS
    assert got_inv[0] == {2, 5, 10, 11, 12}
    weights = [row.bit_count() for row in b_inv.row_bits]
    assert weights[4] == 3 and weights[10] == 3
    assert weights[3] == 9 and weights[6] == 9 and weights[7] == 9
    ok(2, "5x12 design reproduces all 24 reference support sets and the weight profile")


def test_criterion_3_security_bound():
    scheme = make_scheme(L5X12, MODE_BALANCED_DECODE)
    part = PathPartition.from_sequences(ROUTING_PATHS)
    assert check_condition(L5X12, part) is True
    report = min_eavesdrop_paths(scheme, part)
    assert report.min_paths_to_decode == 3

    for a in range(3):
        for b in range(a + 1, 3):
            captured = set(part.sets[a]) | set(part.sets[b])
            assert span_exposed(scheme.encode_matrix.row_bits, captured) == ()
    ok(3, "routing partition needs all 3 paths tapped; any 2 expose zero sources")


def test_criterion_4_balance_and_parity_suite():
    rng = random.Random(404)
    singular_odd = 0
    checked = 0
    for n in range(3, 13):
        squares = [jm_generate(n, seed=rng.getrandbits(48)) for _ in range(100)]
        for k in range(1, n + 1):
            for sq in squares:
                m = block_incidence(split_upper(sq, k))
                assert is_balanced(m, k), f"balance violated at n={n} k={k}"
                det = determinant(m)
                if k % 2 == 0:
                    assert det == 0, f"even k={k} nonsingular at n={n}"
                elif det == 0:
                    singular_odd += 1
                checked += 1
    assert singular_odd > 0, "no singular odd-k instance found; necessity-only not exhibited"
    ok(4, f"{checked} rectangles: balance always, even k always singular, "
          f"{singular_odd} singular odd-k instances exhibited")


def test_criterion_5_auto_search_always_succeeds():
    for n in range(4, 13):
        for seed in range(10):
            rect, m = find_nonsingular_rectangle(n, seed=seed, max_retries=64)
            expect_k = n - 1 if n % 2 == 0 else n - 2
            assert rect.k == expect_k
            assert determinant(m) == 1
    ok(5, "auto-row search succeeded for every n in 4..12 across 10 seeds each")


def test_criterion_6_multicast_capacity(fig2, fig3):
    sched = build_schedule(fig2, 4)
    assert validate_schedule(fig2, sched) == []
    assert sched.phases == 2
    scheme = make_scheme(split_upper(EXAMPLE_SQUARE, 3), MODE_DIRECT)
    rng = random.Random(6)
    block = SourceBlock.from_packets([rng.randbytes(5) for _ in range(4)])
    report = simulate(fig2, sched, scheme, block)
    assert report.all_decoded and len(report.sinks) == 6
    assert all(r.phases_to_decode == 2 for r in report.sinks)

    table1 = parse_schedule(fig2, TABLE1_SCHEDULE)
    assert validate_schedule(fig2, table1) == []

    sched3 = build_schedule(fig3, 12)
    assert sched3.phases == 4
    scheme3 = make_scheme(L5X12, MODE_BALANCED_DECODE)
    block3 = SourceBlock.from_packets([rng.randbytes(4) for _ in range(12)])
    report3 = simulate(fig3, sched3, scheme3, block3)
    assert report3.all_decoded
    assert all(r.phases_to_decode == 4 for r in report3.sinks)
    ok(6, "six-sink net decodes in exactly 2 phases (reference table validates); "
          "two-sink net decodes in exactly 4")


def test_criterion_7_condition_equivalence():
    rng = random.Random(707)
    tested = 0
    holds = 0
    while tested < 200:
        n = rng.choice([4, 6, 8, 9, 10, 12])
        odd_ks = [x for x in range(1, n - 1) if x % 2 == 1]
        k = rng.choice(odd_ks)
        f = rng.choice([x for x in (2, 3, 4) if n % x == 0])
        try:
            rect, _ = find_nonsingular_rectangle(n, k=k, seed=rng.getrandbits(48))
        except Exception:
            continue
        scheme = make_scheme(rect, MODE_BALANCED_DECODE)
        idxs = list(range(1, n + 1))
        rng.shuffle(idxs)
        p = n // f
        part = PathPartition.from_sequences(
            [tuple(idxs[i * p:(i + 1) * p]) for i in range(f)]
        )
        report = audit(rect, scheme, part)
        if report.discrepancy:
            print(f"\nDISCREPANCY: rect={rect.cells} partition={part.sets} "
                  f"condition={report.condition_holds} min={report.min_paths_to_decode} f={f}")
        assert not report.discrepancy
        holds += 1 if report.condition_holds else 0
        tested += 1
    ok(7, f"column condition matched the exact eavesdropping minimum on all {tested} instances "
          f"({holds} satisfied it, {tested - holds} violated it)")


def test_criterion_8_generator_uniformity():
    start = time.perf_counter()
    all_squares = enumerate_latin_squares(4)
    assert len(all_squares) == 576

    samples = 100_000
    counts = Counter(jm_generate(4, seed=seed).cells for seed in range(samples))
    mean = samples / 576
    sigma = math.sqrt(samples * (1 / 576) * (1 - 1 / 576))
    missing = [sq for sq in all_squares if counts[sq] == 0]
    assert not missing, f"{len(missing)} squares never sampled"
    worst = max(abs(counts[sq] - mean) for sq in all_squares)
    assert worst <= 5 * sigma, f"worst deviation {worst:.1f} > 5 sigma ({5 * sigma:.1f})"
    elapsed = time.perf_counter() - start
    assert elapsed <= 30, f"uniformity check took {elapsed:.1f}s > 30s budget"
    ok(8, f"100k samples hit all 576 order-4 squares, worst deviation "
          f"{worst / sigma:.2f} sigma, {elapsed:.1f}s")
