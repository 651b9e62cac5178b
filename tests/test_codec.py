import dataclasses
import random
import tracemalloc
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EXAMPLE_SQUARE, INCIDENCE_SUPPORTS, INVERSE_SUPPORTS, L5X12, ROUTING_PATHS
from oracles import leibniz_determinant, mat_mul, payload_elimination_decode, xor_encode
from xorcode import (
    MODE_BALANCED_DECODE,
    MODE_DIRECT,
    MODES,
    BitMatrix,
    CodedPacket,
    CodingScheme,
    Decoder,
    LatinRectangle,
    PacketIntegrityError,
    ParseError,
    PartialDecodeError,
    PathPartition,
    SingularMatrixError,
    SourceBlock,
    WireFormatError,
    block_incidence,
    decode,
    deserialize_packet,
    encode,
    find_nonsingular_rectangle,
    format_manifest,
    invert,
    join_payload,
    make_scheme,
    min_eavesdrop_paths,
    parse_manifest,
    serialize_packet,
    split_payload,
    split_upper,
)
from xorcode import codec

EXAMPLE_RECT = split_upper(EXAMPLE_SQUARE, 3)
# Decoder's two routes. The payloads below are 1-9 bytes long, so the module's
# threshold sends them through one pass and a threshold of 0 through masks then XORs.
ROUTES = (codec._ONE_PASS_BELOW, 0)


def xor(*parts):
    acc = bytes(len(parts[0]))
    for p in parts:
        acc = bytes(a ^ b for a, b in zip(acc, p))
    return acc


def test_make_scheme_direct_matches_incidence():
    s = make_scheme(EXAMPLE_RECT, MODE_DIRECT)
    assert tuple(s.encode_matrix.to_text().splitlines()[1:]) == (
        "1110", "0111", "1101", "1011",
    )
    assert s.n == 4


SQUARE_ROWS = st.integers(1, 6).flatmap(
    lambda n: st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)
)


@settings(deadline=None, max_examples=300)
@given(SQUARE_ROWS, st.sampled_from(MODES + ("bogus", "", "Direct")))
def test_scheme_constructs_exactly_for_invertible_e_and_known_mode(rows, mode):
    n = len(rows)
    enc = BitMatrix(n, n, tuple(rows))
    if mode not in MODES:
        with pytest.raises(ValueError, match="unknown mode"):
            CodingScheme(enc, mode)
    elif not leibniz_determinant(enc):
        with pytest.raises(SingularMatrixError):
            CodingScheme(enc, mode)
    else:
        s = CodingScheme(enc, mode)
        identity = BitMatrix(n, n, tuple(1 << i for i in range(n)))
        assert mat_mul(s.encode_matrix, s.decode_matrix) == identity
        assert (s.encode_matrix if mode == MODE_DIRECT else s.decode_matrix) == enc
        assert s.n == enc.rows == n


def test_scheme_rejects_a_non_square_matrix():
    with pytest.raises(ValueError, match="square"):
        CodingScheme(BitMatrix(2, 3, (0b011, 0b110)), MODE_DIRECT)


def test_scheme_order_is_the_order_of_e():
    # n is E's order, not a field of its own, so a block of another size
    # cannot be encoded with a source silently dropped.
    e4 = make_scheme(EXAMPLE_RECT).encode_matrix
    with pytest.raises(TypeError):
        CodingScheme(5, 3, e4, invert(e4), MODE_DIRECT)
    scheme = CodingScheme(e4, MODE_DIRECT)
    assert scheme.n == 4
    with pytest.raises(ValueError, match="block has 5 packets, scheme expects 4"):
        encode(scheme, SourceBlock.from_packets([b"x"] * 5))


def test_scheme_rejects_unknown_mode():
    # A scheme's mode is always one the manifest parser reads back.
    e4 = make_scheme(EXAMPLE_RECT).encode_matrix
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        CodingScheme(e4, "bogus")
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        make_scheme(EXAMPLE_RECT, "bogus")
    for mode in MODES:
        text = format_manifest(EXAMPLE_RECT, CodingScheme(e4, mode).mode, 10)
        assert parse_manifest(text)[:4] == (4, 3, mode, 10)


def test_make_scheme_balanced_swaps_roles():
    s = make_scheme(L5X12, MODE_BALANCED_DECODE)
    dec = [set(x + 1 for x in s.decode_matrix.row_support(i)) for i in range(12)]
    enc = [set(x + 1 for x in s.encode_matrix.row_support(i)) for i in range(12)]
    assert dec == INCIDENCE_SUPPORTS
    assert enc == INVERSE_SUPPORTS
    assert enc[0] == {2, 5, 10, 11, 12}


def test_make_scheme_inverts_the_design_once_in_either_mode(monkeypatch):
    calls = []
    monkeypatch.setattr("xorcode.codec.invert", lambda m: calls.append(m) or invert(m))
    for mode in MODES:
        calls.clear()
        make_scheme(L5X12, mode)
        assert calls == [block_incidence(L5X12)], mode


def test_mode_orders_the_design_matrix_and_its_inverse():
    # The mode alone names B's side, so replacing it swaps encode and decode.
    rect, _ = find_nonsingular_rectangle(12, 5, seed=3)  # the README design
    for mode, other in (MODES, MODES[::-1]):
        assert dataclasses.replace(make_scheme(rect, mode), mode=other) == make_scheme(rect, other)
    swapped = dataclasses.replace(make_scheme(rect, MODE_DIRECT), mode=MODE_BALANCED_DECODE)
    part = PathPartition.from_sequences([(3, 10, 7, 2), (8, 4, 11, 9), (1, 6, 5, 12)])
    assert min_eavesdrop_paths(swapped, part).summary_line() == (
        "condition=false min_paths=2 witness_paths=1,2 exposed=4"
    )
    # A hand-built balanced_decode scheme decodes with the matrix it is given.
    b = block_incidence(EXAMPLE_RECT)
    hand = CodingScheme(b, MODE_BALANCED_DECODE)
    assert (hand.decode_matrix, hand.encode_matrix) == (b, invert(b))


def test_make_scheme_trivial_order():
    one = LatinRectangle(((1,),))
    for mode in MODES:
        s = make_scheme(one, mode)
        assert s.encode_matrix.row_bits == (1,)
        assert s.decode_matrix.row_bits == (1,)


def test_make_scheme_even_k_error():
    with pytest.raises(SingularMatrixError, match="even"):
        make_scheme(split_upper(EXAMPLE_SQUARE, 2))


def test_balanced_decode_row_weight_is_k():
    s = make_scheme(L5X12, MODE_BALANCED_DECODE)
    assert all(s.decode_matrix.row_bits[i].bit_count() == 5 for i in range(12))


def test_direct_decode_weights_vary():
    s = make_scheme(L5X12, MODE_DIRECT)
    weights = sorted(s.decode_matrix.row_bits[i].bit_count() for i in range(12))
    assert weights[0] == 3 and weights[-1] == 9
    # decoding source 5 takes three packets, source 4 takes nine
    assert s.decode_matrix.row_bits[4].bit_count() == 3
    assert s.decode_matrix.row_bits[3].bit_count() == 9


def test_encode_example_equations():
    s = make_scheme(EXAMPLE_RECT, MODE_DIRECT)
    x = [b"\x01", b"\x02", b"\x04", b"\x08"]
    block = SourceBlock.from_packets(x)
    packets = encode(s, block)
    assert packets[0].header == (1, 2, 3) and packets[0].payload == xor(x[0], x[1], x[2])
    assert packets[1].header == (2, 3, 4) and packets[1].payload == xor(x[1], x[2], x[3])
    assert packets[2].header == (1, 2, 4) and packets[2].payload == xor(x[0], x[1], x[3])
    assert packets[3].header == (1, 3, 4) and packets[3].payload == xor(x[0], x[2], x[3])


def test_encode_zero_block():
    s = make_scheme(EXAMPLE_RECT, MODE_DIRECT)
    block = SourceBlock.from_packets([b"\x00\x00"] * 4)
    for p in encode(s, block):
        assert p.payload == b"\x00\x00"
        assert p.header


def test_encode_l5x12_first_packet():
    s = make_scheme(L5X12, MODE_DIRECT)
    rng = random.Random(1)
    x = [rng.randbytes(3) for _ in range(12)]
    packets = encode(s, SourceBlock.from_packets(x))
    assert packets[0].header == (2, 3, 4, 6, 9)
    assert packets[0].payload == xor(x[1], x[2], x[3], x[5], x[8])


def test_encode_size_mismatch():
    s = make_scheme(EXAMPLE_RECT, MODE_DIRECT)
    with pytest.raises(ValueError):
        encode(s, SourceBlock.from_packets([b"a"] * 5))
    with pytest.raises(ValueError):
        SourceBlock.from_packets([b"aa", b"b", b"cc", b"dd"])
    for build in (lambda: SourceBlock((), 0, 0), lambda: SourceBlock.from_packets([])):
        with pytest.raises(ValueError, match="^block must contain at least one packet$"):
            build()
    # decode rejects a payload of another length, whether it would be kept or redundant
    packets = encode(s, SourceBlock.from_packets([b"ab", b"cd", b"ef", b"gh"]))
    short = CodedPacket(packets[0].index, packets[0].vector, b"a")
    for received in ([packets[1], short], packets + [short]):
        with pytest.raises(ValueError, match="received packets have unequal payload lengths"):
            decode(received, 4)


@lru_cache(maxsize=None)
def design(n, seed):
    return find_nonsingular_rectangle(n, seed=seed, moves=4 * n * n)[0]


@st.composite
def design_schemes(draw, top=17):
    n = draw(st.integers(1, top))
    return make_scheme(design(n, draw(st.integers(0, 2))), draw(st.sampled_from(MODES)))


@st.composite
def invertible_schemes(draw, top=17):
    """P1 . U . P2 with U unit upper-triangular, so the product is invertible.

    Row i of U has weight 1..n-i, drawn with a bias toward 1, the (n+1)/2
    boundary on either side, and the row's maximum (n for the first row).
    """
    n = draw(st.integers(1, top))
    rows = []
    for i in range(n):
        top = n - i
        marked = sorted({w for w in (1, (n + 1) // 2, (n + 2) // 2, top) if w <= top})
        w = draw(st.sampled_from(marked) | st.integers(1, top))
        above = draw(st.permutations(range(i + 1, n)))[: w - 1]
        rows.append((1 << i) | sum(1 << j for j in above))
    cols = draw(st.permutations(range(n)))
    order = draw(st.permutations(range(n)))
    bits = tuple(sum(((rows[r] >> j) & 1) << cols[j] for j in range(n)) for r in order)
    enc = BitMatrix(n, n, bits)
    return CodingScheme(enc, MODE_DIRECT)


@st.composite
def blocks(draw, n):
    """n sources of a common length >= 1, some ending in zero bytes."""
    plen = draw(st.integers(1, 9))
    packets = []
    for _ in range(n):
        body = draw(st.binary(min_size=plen, max_size=plen))
        zeros = draw(st.integers(0, plen))
        packets.append(body[: plen - zeros] + bytes(zeros))
    return SourceBlock.from_packets(packets)


@settings(deadline=None, max_examples=200)
@given(st.one_of(design_schemes(), invertible_schemes()), st.data())
def test_encode_matches_xor_oracle(scheme, data):
    block = data.draw(blocks(scheme.n))
    packets = encode(scheme, block)
    assert [p.index for p in packets] == list(range(1, scheme.n + 1))
    assert [p.header for p in packets] == [
        tuple(j + 1 for j in scheme.encode_matrix.row_support(i)) for i in range(scheme.n)
    ]
    assert [p.payload for p in packets] == xor_encode(scheme.encode_matrix.row_bits, block.packets)


@pytest.mark.parametrize("n", range(1, 10))
def test_encode_every_row_weight(n):
    # row i = columns i..n-1: weights n, n-1, ..., 1, both sides of 2w = n + 1
    enc = BitMatrix(n, n, tuple(((1 << n) - 1) ^ ((1 << i) - 1) for i in range(n)))
    scheme = CodingScheme(enc, MODE_DIRECT)
    block = SourceBlock.from_packets([bytes([j + 1, 0]) for j in range(n)])
    packets = encode(scheme, block)
    assert [p.payload for p in packets] == xor_encode(enc.row_bits, block.packets)
    assert decode(packets, n).packets == block.packets


def test_source_block_rejects_oversized_original_len():
    SourceBlock((b"abc", b"def"), 3, 6)
    with pytest.raises(ValueError, match="exceeds"):
        SourceBlock((b"abc", b"def"), 3, 7)
    with pytest.raises(ValueError, match="exceeds"):
        SourceBlock.from_packets([b"ab"] * 4, original_len=9)
    with pytest.raises(ValueError, match="original length cannot be negative"):
        SourceBlock((b"abc", b"def"), 3, -1)


def test_decode_rejects_oversized_original_len():
    packets = encode(make_scheme(EXAMPLE_RECT, MODE_DIRECT), SourceBlock.from_packets([b"abc"] * 4))
    assert join_payload(decode(packets, 4, original_len=12)) == b"abc" * 4
    with pytest.raises(ValueError, match="exceeds"):
        decode(packets, 4, original_len=10**6)


def test_decode_roundtrip_fuzz():
    rng = random.Random(99)
    for n in range(2, 13):
        rect, _ = find_nonsingular_rectangle(n, seed=n, moves=4 * n * n)
        for mode in MODES:
            s = make_scheme(rect, mode)
            block = SourceBlock.from_packets([rng.randbytes(7) for _ in range(n)])
            packets = encode(s, block)
            rng.shuffle(packets)
            out = decode(packets, n)
            assert out.packets == block.packets


def test_decode_needs_full_rank():
    s = make_scheme(EXAMPLE_RECT, MODE_DIRECT)
    block = SourceBlock.from_packets([b"ab", b"cd", b"ef", b"gh"])
    packets = encode(s, block)
    with pytest.raises(PartialDecodeError):
        decode(packets[:3], 4)


def test_decode_reports_recoverable_indexes():
    packets = [
        CodedPacket(1, 0b001, b"x"),
        CodedPacket(2, 0b110, b"y"),
    ]
    with pytest.raises(PartialDecodeError) as exc:
        decode(packets, 3)
    assert exc.value.recoverable == frozenset({1})


def test_decode_integrity_error():
    s = make_scheme(EXAMPLE_RECT, MODE_DIRECT)
    block = SourceBlock.from_packets([b"ab", b"cd", b"ef", b"gh"])
    packets = encode(s, block)
    bad = CodedPacket(packets[0].index, packets[0].vector, b"!!")
    # Packets are checked in order, so a conflict ahead of a short payload wins.
    short = CodedPacket(packets[1].index, packets[1].vector, b"a")
    for below in ROUTES:
        with mock.patch.object(codec, "_ONE_PASS_BELOW", below):
            with pytest.raises(PacketIntegrityError):
                decode(packets + [bad], 4)
            with pytest.raises(PacketIntegrityError, match=f"packet {bad.index} is linearly dependent"):
                decode([packets[0], bad, short, *packets[1:]], 4)
            # a true duplicate is redundant, not inconsistent
            assert decode(packets + [packets[0]], 4).packets == block.packets


@st.composite
def received_packets(draw):
    """Coded packets of a random scheme as a sink might see them.

    A shuffled subset of the n packets, possibly below rank, with extras
    spliced in: exact duplicates and XOR combinations of coded packets, any
    of which (base packets too) may have a corrupted first byte.
    """
    scheme = draw(st.one_of(design_schemes(top=16), invertible_schemes(top=16)))
    n = scheme.n
    coded = encode(scheme, draw(blocks(n)))
    size = draw(st.just(n) | st.integers(0, n))
    packets = draw(st.permutations(coded))[:size]
    for extra in range(draw(st.integers(0, 4))):
        # Distinct rows of an invertible E are independent, so the XOR is never empty.
        picks = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True))
        vector, payload = 0, bytes(len(coded[0].payload))
        for i in picks:
            vector ^= scheme.encode_matrix.row_bits[i]
            payload = bytes(a ^ b for a, b in zip(payload, coded[i].payload))
        index = picks[0] + 1 if len(picks) == 1 else n + 1 + extra
        packets.insert(draw(st.integers(0, len(packets))), CodedPacket(index, vector, payload))
    corrupt = draw(st.lists(st.integers(0, len(packets) - 1), max_size=2)) if packets else []
    for pos in corrupt:
        p = packets[pos]
        flipped = bytes([p.payload[0] ^ draw(st.integers(1, 255))]) + p.payload[1:]
        packets[pos] = CodedPacket(p.index, p.vector, flipped)
    return packets, n


def decode_outcome(decoder, packets, n):
    try:
        return decoder(packets, n, original_len=n).packets
    except (PacketIntegrityError, PartialDecodeError) as exc:
        return type(exc), getattr(exc, "recoverable", None), str(exc)


@settings(deadline=None, max_examples=400)
@given(received_packets())
def test_decode_matches_payload_elimination_oracle(received):
    # Same block bytes, or the same error type, recoverable set and message, on each route.
    packets, n = received
    want = decode_outcome(payload_elimination_decode, packets, n)
    for below in ROUTES:
        with mock.patch.object(codec, "_ONE_PASS_BELOW", below):
            assert decode_outcome(decode, packets, n) == want


def test_decode_routes_meet_at_the_threshold():
    # One byte short of the threshold decodes in one pass, at it by masks then
    # XORs: both give the sources back and raise the oracle's errors.
    n = 12
    rect, _ = find_nonsingular_rectangle(n, seed=n, moves=4 * n * n)
    rng = random.Random(n)
    order = rng.sample(range(n), n)
    for mode in MODES:
        errors = []
        for plen in (codec._ONE_PASS_BELOW - 1, codec._ONE_PASS_BELOW):
            block = SourceBlock.from_packets([rng.randbytes(plen) for _ in range(n)])
            coded = encode(make_scheme(rect, mode), block)
            coded = [coded[i] for i in order]
            first = coded[0]
            dec = Decoder(n)
            dec.add(first)
            assert (dec._values is None) == (plen < codec._ONE_PASS_BELOW)
            assert decode(coded + [first], n).packets == block.packets
            bad = CodedPacket(first.index, first.vector, bytes([first.payload[0] ^ 1]) + first.payload[1:])
            cases = (coded[: n - 1], coded[:6] + [bad] + coded[6:])
            got = [decode_outcome(decode, packets, n) for packets in cases]
            assert got == [decode_outcome(payload_elimination_decode, packets, n) for packets in cases]
            errors.append(got)
        assert errors[0] == errors[1]
        assert [type_ for type_, _, _ in errors[0]] == [PartialDecodeError, PacketIntegrityError]


def test_decoder_counts_rank_and_redundant_packets():
    s = make_scheme(EXAMPLE_RECT, MODE_DIRECT)
    block = SourceBlock.from_packets([b"ab", b"cd", b"ef", b"gh"])
    p1, p2, p3, p4 = encode(s, block)
    # headers (1,2,3) xor (2,3,4) = (1,4), carrying the XOR of their payloads
    combo = CodedPacket(5, 0b1001, xor(p1.payload, p2.payload))
    for below in ROUTES:
        with mock.patch.object(codec, "_ONE_PASS_BELOW", below):
            dec = Decoder(4)
            steps = [dec.add(p) for p in (p1, p2, p1, combo)]
            assert steps == [True, True, False, False]
            assert (dec.rank, dec.redundant) == (2, 2)
            assert dec.recoverable == frozenset()
            with pytest.raises(PacketIntegrityError, match="packet 5 is linearly dependent"):
                dec.add(CodedPacket(5, 0b1001, xor(p1.payload, p3.payload)))
            with pytest.raises(PacketIntegrityError, match="packet 2 is linearly dependent"):
                dec.add(CodedPacket(2, p2.vector, b"!!"))
            assert (dec.rank, dec.redundant) == (2, 4)
            with pytest.raises(PartialDecodeError):
                dec.block()
            assert [dec.add(p) for p in (p3, p4, p4)] == [True, True, False]
            assert (dec.rank, dec.redundant) == (4, 5)
            assert dec.recoverable == frozenset({1, 2, 3, 4})
            assert dec.block(7) == SourceBlock(block.packets, 2, 7)


def recoverable_after(packets, n):
    decoder = Decoder(n)
    for p in packets:
        decoder.add(p)
    return decoder.recoverable


def test_decodable_indexes_examples():
    s = make_scheme(EXAMPLE_RECT, MODE_DIRECT)
    block = SourceBlock.from_packets([b"a", b"b", b"c", b"d"])
    packets = encode(s, block)
    assert recoverable_after(packets, 4) == frozenset({1, 2, 3, 4})
    assert recoverable_after([CodedPacket(1, 0b10000, b"z")], 6) == frozenset({5})


def test_decodable_indexes_two_paths_of_routing_leak_nothing():
    s = make_scheme(L5X12, MODE_BALANCED_DECODE)
    block = SourceBlock.from_packets([bytes([i]) for i in range(12)])
    coded = encode(s, block)
    captured = [coded[i - 1] for i in ROUTING_PATHS[0] + ROUTING_PATHS[1]]
    assert recoverable_after(captured, 12) == frozenset()


def test_balanced_decode_canonical_combination():
    # source j is exactly the XOR of the coded packets named by column j
    s = make_scheme(L5X12, MODE_BALANCED_DECODE)
    rng = random.Random(5)
    x = [rng.randbytes(4) for _ in range(12)]
    coded = encode(s, SourceBlock.from_packets(x))
    for j in range(12):
        acc = bytes(4)
        for i in {row[j] for row in L5X12.cells}:
            acc = bytes(a ^ b for a, b in zip(acc, coded[i - 1].payload))
        assert acc == x[j]


def test_header_matches_encode_row_support():
    rng = random.Random(21)
    for n in (3, 5, 8):
        rect, _ = find_nonsingular_rectangle(n, seed=n, moves=4 * n * n)
        for mode in MODES:
            s = make_scheme(rect, mode)
            block = SourceBlock.from_packets([rng.randbytes(2) for _ in range(n)])
            for i, p in enumerate(encode(s, block)):
                assert p.header == tuple(j + 1 for j in s.encode_matrix.row_support(i))
                assert p.vector == s.encode_matrix.row_bits[p.index - 1]


def test_decodable_indexes_monotone():
    rng = random.Random(3)
    rect, _ = find_nonsingular_rectangle(8, seed=2)
    s = make_scheme(rect, MODE_BALANCED_DECODE)
    block = SourceBlock.from_packets([rng.randbytes(2) for _ in range(8)])
    coded = encode(s, block)
    rng.shuffle(coded)
    decoder = Decoder(8)
    prev = decoder.recoverable
    assert prev == frozenset()
    for p in coded:
        decoder.add(p)
        assert prev <= decoder.recoverable
        prev = decoder.recoverable
    assert prev == frozenset(range(1, 9))


def test_serialize_documented_bytes():
    p = CodedPacket(index=1, vector=0b111, payload=b"AB")
    assert serialize_packet(p) == bytes.fromhex("0100 0300 0100 0200 0300 02000000 4142".replace(" ", ""))


def test_serialize_roundtrip_fuzz():
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randint(1, 40)
        vector = sum(1 << (j - 1) for j in rng.sample(range(1, 200), n))
        p = CodedPacket(rng.randint(1, 500), vector, rng.randbytes(rng.randint(0, 64)))
        assert deserialize_packet(serialize_packet(p)) == p


def test_packet_range_checks():
    with pytest.raises(ValueError, match="packet index must be >= 1"):
        CodedPacket(0, 0b1, b"x")
    with pytest.raises(ValueError, match="coding vector must name at least one source"):
        CodedPacket(1, 0, b"x")
    with pytest.raises(ValueError, match="references source 5 > n=4"):
        decode([CodedPacket(1, 0b10001, b"x")], 4)
    with pytest.raises(ValueError, match="packet count must be >= 1"):
        Decoder(0)
    serialize_packet(CodedPacket(0xFFFF, 1 << 0xFFFE, b""))
    for index, vector in ((0x10000, 0b1), (1, 1 << 0xFFFF)):
        with pytest.raises(ValueError, match="does not fit the u16 wire format"):
            serialize_packet(CodedPacket(index, vector, b""))

    # A payload that reports a length it does not hold, so no 4 GiB buffer is built.
    def claiming(length):
        return type("Claiming", (bytes,), {"__len__": lambda self: length})(b"xy")

    wire = serialize_packet(CodedPacket(1, 0b1, claiming(0xFFFFFFFF)))
    assert wire == bytes.fromhex("0100 0100 0100 ffffffff 7879".replace(" ", ""))
    with pytest.raises(ValueError, match="payload too large for the u32 wire format"):
        serialize_packet(CodedPacket(1, 0b1, claiming(1 << 32)))


def test_deserialize_errors():
    p = CodedPacket(index=2, vector=0b1001, payload=b"xyz")
    buf = serialize_packet(p)
    with pytest.raises(WireFormatError):
        deserialize_packet(buf[:-1])
    with pytest.raises(WireFormatError):
        deserialize_packet(buf + b"\x00")
    with pytest.raises(WireFormatError):
        deserialize_packet(b"\x01")
    with pytest.raises(WireFormatError, match=r"empty header \(at byte 2\)") as exc:
        deserialize_packet(b"\x02\x00\x00\x00" + (3).to_bytes(4, "little") + b"xyz")
    assert exc.value.offset == 2
    # header indexes out of order
    bad = bytearray(buf)
    bad[4:8] = (4).to_bytes(2, "little") + (1).to_bytes(2, "little")
    with pytest.raises(WireFormatError):
        deserialize_packet(bytes(bad))


def test_split_payload_examples():
    b = split_payload(bytes(range(12)), 4)
    assert b.packet_len == 3 and b.original_len == 12
    assert b.packets[0] == bytes([0, 1, 2])
    b = split_payload(bytes(range(10)), 4)
    assert b.packet_len == 3 and b.original_len == 10
    assert b.packets[3] == bytes([9, 0, 0])
    with pytest.raises(ValueError):
        split_payload(b"", 4)
    with pytest.raises(ValueError, match="packet count must be >= 1"):
        split_payload(b"abc", 0)


def test_split_payload_rejects_a_non_int_count():
    # True would cut one packet, and 2.0 is no range bound.
    for n in (True, False, 2.0, "2"):
        with pytest.raises(ValueError) as exc:
            split_payload(b"abcdef", n)
        assert str(exc.value) == f"n must be an int, got {n!r}"


def test_join_inverts_split():
    rng = random.Random(8)
    for _ in range(300):
        data = rng.randbytes(rng.randint(1, 100))
        n = rng.randint(1, 12)
        assert join_payload(split_payload(data, n)) == data


@settings(deadline=None, max_examples=300)
@given(st.binary(min_size=1, max_size=64), st.integers(1, 24))
def test_split_payload_matches_pad_then_slice(data, n):
    # The old construction: pad the whole block, then slice it. Many
    # examples have len(data) < n, where the padding spans several packets.
    packet_len = -(-len(data) // n)
    padded = data.ljust(packet_len * n, b"\x00")
    block = split_payload(data, n)
    assert block.packets == tuple(padded[i * packet_len:(i + 1) * packet_len] for i in range(n))
    assert (block.packet_len, block.original_len) == (packet_len, len(data))


@settings(deadline=None, max_examples=200)
@given(
    st.tuples(st.integers(1, 8), st.integers(0, 8)).flatmap(
        lambda nl: st.lists(st.binary(min_size=nl[1], max_size=nl[1]), min_size=nl[0], max_size=nl[0])
    )
)
def test_join_payload_is_join_then_trim(packets):
    n, packet_len = len(packets), len(packets[0])
    joined = b"".join(packets)
    for m in range(n * packet_len + 1):
        assert join_payload(SourceBlock(tuple(packets), packet_len, m)) == joined[:m]


def test_zero_length_block_roundtrips():
    scheme = make_scheme(EXAMPLE_RECT, MODE_DIRECT)
    block = SourceBlock.from_packets([b""] * 4)
    packets = encode(scheme, block)
    assert [p.payload for p in packets] == [b""] * 4
    decoded = decode(packets, 4)
    assert decoded == block
    assert join_payload(decoded) == b""


def _traced_peak(call, *args):
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_split_and_join_copy_the_block_once():
    # A block just under 32 x 64 KiB, the stream workload's shape, so the
    # last packet is padded and then trimmed. Pad-then-slice and
    # join-then-trim each hold two copies of the block (a 2.0x peak).
    n, packet_len = 32, 64 * 1024
    size = n * packet_len
    data = random.Random(5).randbytes(size - 1000)
    assert _traced_peak(split_payload, data, n) <= 1.1 * size
    block = split_payload(data, n)
    assert _traced_peak(join_payload, block) <= 1.1 * size


def test_manifest_roundtrip():
    text = format_manifest(EXAMPLE_RECT, MODE_BALANCED_DECODE, 10)
    n, k, mode, olen, rect = parse_manifest(text)
    assert (n, k, mode, olen) == (4, 3, MODE_BALANCED_DECODE, 10)
    assert rect == EXAMPLE_RECT
    with pytest.raises(ParseError):
        parse_manifest("not a manifest")
    with pytest.raises(ParseError):
        parse_manifest("4 3 sideways 10\n" + EXAMPLE_RECT.to_text())
    for head in ("5 3", "4 1"):
        with pytest.raises(ParseError, match="disagree with embedded rectangle 3x4"):
            parse_manifest(f"{head} direct 10\n" + EXAMPLE_RECT.to_text())
