"""Every text and wire parser raises ParseError or returns a value that round-trips
through its writer (the network parser has no writer)."""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    EXAMPLE_SQUARE,
    FIG3_TEXT,
    L5X12,
    SHORT_HEADER_SCHEDULE,
    TWO_PATH_SCHEDULE,
)
from xorcode import (
    CodedPacket,
    LatinRectangle,
    Network,
    ParseError,
    TopologyError,
    WireFormatError,
    build_schedule,
    deserialize_packet,
    format_schedule,
    parse_manifest,
    parse_network,
    parse_schedule,
    parse_schedule_partitions,
    serialize_packet,
    split_upper,
)
from xorcode.cli import build_parser

FIG3 = parse_network(FIG3_TEXT)
FIG3_SCHEDULE = format_schedule(FIG3, build_schedule(FIG3, 6))
RECT_TEXT = split_upper(EXAMPLE_SQUARE, 3).to_text()
MANIFEST = "4 3 direct 10\n" + RECT_TEXT


def manifest_text(n, k, mode, original_len, rect):
    return f"{n} {k} {mode} {original_len}\n" + rect.to_text()


@pytest.mark.parametrize(
    ("parse", "text"),
    [
        pytest.param(LatinRectangle.from_text, "0 0\n", id="rectangle-0x0"),
        pytest.param(LatinRectangle.from_text, "2 1\n1\n1\n", id="rectangle-k-above-n"),
        pytest.param(LatinRectangle.from_text, "¹ 1\n1\n", id="rectangle-superscript-digit"),
        pytest.param(LatinRectangle.from_text, "1 2\n1 +2\n", id="rectangle-plus-sign"),
        pytest.param(LatinRectangle.from_text, "1 2\n-1 2\n", id="rectangle-minus-sign"),
        pytest.param(
            LatinRectangle.from_text,
            "1 10\n1 2 3 4 5 6 7 8 9 1_0\n",
            id="rectangle-underscore-digits",
        ),
        pytest.param(LatinRectangle.from_text, "2 2\n1 2\n1 2\n", id="rectangle-column-repeats"),
        pytest.param(LatinRectangle.from_text, "1 2\n1 1\n", id="rectangle-row-repeats"),
        pytest.param(LatinRectangle.from_text, "1 2\n1 3\n", id="rectangle-symbol-above-n"),
        pytest.param(parse_manifest, "0 0 direct 0\n0 0\n", id="manifest-0x0-rectangle"),
        pytest.param(
            parse_manifest,
            "4 2 direct 10\n2 4\n2 4 1 3\n2 4 1 3\n",
            id="manifest-rectangle-repeats-a-row",
        ),
        pytest.param(parse_manifest, "4 3 direct -1\n" + RECT_TEXT, id="manifest-negative-length"),
        pytest.param(parse_manifest, "+4 3 direct 10\n" + RECT_TEXT, id="manifest-plus-n"),
        pytest.param(parse_manifest, "4 -3 direct 10\n" + RECT_TEXT, id="manifest-minus-k"),
        pytest.param(
            parse_manifest, "4 3 direct 1_0\n" + RECT_TEXT, id="manifest-underscore-length"
        ),
        pytest.param(parse_network, "source s\nsink s\n", id="network-source-is-sink"),
        pytest.param(
            parse_network, "source s\nsink t\nsink t\nedge s t\n", id="network-duplicate-sink"
        ),
        pytest.param(
            lambda text: parse_schedule(FIG3, text), "n ²\n", id="schedule-superscript-digit"
        ),
        pytest.param(
            lambda text: parse_schedule(FIG3, text),
            FIG3_SCHEDULE + "sink t1\n",
            id="schedule-second-section-for-sink",
        ),
        pytest.param(
            lambda text: parse_schedule(FIG3, text),
            "n 99\n" + FIG3_SCHEDULE,
            id="schedule-second-n-header",
        ),
        pytest.param(
            parse_schedule_partitions,
            FIG3_SCHEDULE.replace("maxflow 3\n", "maxflow 3\nmaxflow 3\n"),
            id="partitions-second-maxflow-header",
        ),
        pytest.param(
            parse_schedule_partitions,
            FIG3_SCHEDULE + "route s u1 t1\n",
            id="partitions-bad-directive",
        ),
        pytest.param(
            parse_schedule_partitions,
            FIG3_SCHEDULE.replace("path s u1 t1 :", "path s u1 t1"),
            id="partitions-path-missing-colon",
        ),
        pytest.param(
            parse_schedule_partitions,
            FIG3_SCHEDULE.replace("path s u1 t1 :", "path :"),
            id="partitions-path-without-nodes",
        ),
        pytest.param(
            parse_schedule_partitions,
            FIG3_SCHEDULE.replace("path s u2 t1 :", "path s :"),
            id="partitions-path-with-one-node",
        ),
        pytest.param(
            parse_schedule_partitions,
            FIG3_SCHEDULE.replace("path s u1 t1 : 1", "path s u1 t1 : 0"),
            id="partitions-packet-zero",
        ),
        pytest.param(
            parse_schedule_partitions,
            FIG3_SCHEDULE.replace("path s u1 t1 : 1", "path s u1 t1 : -1"),
            id="partitions-negative-packet",
        ),
        pytest.param(
            parse_schedule_partitions,
            FIG3_SCHEDULE.replace("path s u1 t1 : 1", "path s u1 t1 : +1"),
            id="partitions-plus-packet",
        ),
        pytest.param(
            parse_schedule_partitions,
            FIG3_SCHEDULE.replace("path s u1 t1 : 1", "path s u1 t1 : 1_0"),
            id="partitions-underscore-packet",
        ),
        pytest.param(
            parse_schedule_partitions,
            FIG3_SCHEDULE.replace("phases 2", "phases two"),
            id="partitions-bad-header",
        ),
        pytest.param(
            parse_schedule_partitions,
            FIG3_SCHEDULE.replace("maxflow 3\n", ""),
            id="partitions-missing-header",
        ),
        pytest.param(
            parse_schedule_partitions,
            FIG3_SCHEDULE + "sink t2\n",
            id="partitions-second-section-for-sink",
        ),
        pytest.param(
            parse_schedule_partitions,
            FIG3_SCHEDULE.replace("sink t2\n", "sink t0\nsink t2\n"),
            id="partitions-sink-without-paths",
        ),
        pytest.param(
            lambda text: parse_schedule(FIG3, text),
            FIG3_SCHEDULE + "sink t3\n",
            id="schedule-trailing-sink-without-paths",
        ),
        pytest.param(
            parse_schedule_partitions, SHORT_HEADER_SCHEDULE, id="partitions-short-header"
        ),
        pytest.param(parse_schedule_partitions, TWO_PATH_SCHEDULE, id="partitions-two-paths"),
        pytest.param(
            lambda text: parse_schedule(FIG3, text),
            SHORT_HEADER_SCHEDULE,
            id="schedule-short-header",
        ),
        pytest.param(
            lambda text: parse_schedule(FIG3, text),
            TWO_PATH_SCHEDULE,
            id="schedule-two-paths",
        ),
        pytest.param(
            lambda text: parse_schedule(FIG3, text),
            FIG3_SCHEDULE.replace("path s u1 t2 : 1 2", "path s u1 t2 : 2 1"),
            id="schedule-shared-relay-disagrees",
        ),
        pytest.param(
            lambda text: parse_schedule(FIG3, text),
            FIG3_SCHEDULE.replace("path s u1 t2", "path u1 t2"),
            id="schedule-path-not-from-source",
        ),
    ],
)
def test_malformed_text_raises_parse_error(parse, text):
    with pytest.raises(ParseError):
        parse(text)


def audit_partition(text):
    """`xorcode audit --partition text` on rectangle.txt in the working directory."""
    args = build_parser().parse_args(["audit", "-r", "rectangle.txt", "--partition", text])
    return args.func(args)


@pytest.mark.parametrize(
    ("read", "text", "foreign"),
    [
        pytest.param(LatinRectangle.from_text, "1 3\n1 2 3\n", "1 ３\n1 2 3\n", id="rectangle-header"),
        pytest.param(LatinRectangle.from_text, "1 3\n1 2 3\n", "1 3\n١ 2 3\n", id="rectangle-row"),
        pytest.param(parse_manifest, MANIFEST, "４" + MANIFEST[1:], id="manifest-header"),
        pytest.param(
            parse_schedule_partitions,
            FIG3_SCHEDULE,
            FIG3_SCHEDULE.replace("phases 2", "phases ٢"),
            id="schedule-header",
        ),
        pytest.param(
            lambda text: parse_schedule(FIG3, text),
            FIG3_SCHEDULE,
            FIG3_SCHEDULE.replace("path s u1 t1 : 1", "path s u1 t1 : １"),
            id="schedule-packet",
        ),
        pytest.param(audit_partition, "1,2;3,4", "1,2;3,٤", id="audit-partition"),
    ],
)
def test_readers_take_only_ascii_digits(read, text, foreign, tmp_path, monkeypatch):
    # Full-width and Arabic-Indic digits pass str.isdecimal() and int() reads
    # them, but the file formats hold plain ASCII digits.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rectangle.txt").write_text(RECT_TEXT, encoding="utf-8")
    read(text)
    with pytest.raises(ParseError):
        read(foreign)


def test_packet_index_zero_is_wire_format_error():
    buf = serialize_packet(CodedPacket(index=1, vector=0b11, payload=b"ab"))
    with pytest.raises(WireFormatError):
        deserialize_packet(b"\x00\x00" + buf[2:])


@st.composite
def mutated(draw, text, alphabet):
    """text with a few short spans replaced by up to two alphabet tokens each."""
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 4)))
        text = text[:i] + "".join(draw(st.lists(st.sampled_from(alphabet), max_size=2))) + text[j:]
    return text


def fuzzed(valid, alphabet):
    tokens = st.lists(st.sampled_from(alphabet)).map("".join)
    return st.one_of(st.text(max_size=40), tokens, mutated(valid, alphabet))


RECT_ALPHABET = ["0", "1", "2", "3", "4", "-1", "x", "²", "٣", " ", "\n"]
FUZZ = settings(deadline=None, max_examples=300)


@FUZZ
@given(fuzzed(L5X12.to_text(), RECT_ALPHABET))
def test_fuzz_rectangle_text(text):
    try:
        rect = LatinRectangle.from_text(text)
    except ParseError:
        return
    assert LatinRectangle.from_text(rect.to_text()) == rect


@FUZZ
@given(fuzzed(MANIFEST, RECT_ALPHABET + ["direct", "balanced_decode", "sideways"]))
def test_fuzz_manifest(text):
    try:
        fields = parse_manifest(text)
    except ParseError:
        return
    assert fields[3] >= 0
    assert parse_manifest(manifest_text(*fields)) == fields


NETWORK_ALPHABET = ["node ", "edge ", "source ", "sink ", "s", "a", "b", "t", " ", "\n", "#"]


@FUZZ
@given(fuzzed(FIG3_TEXT, NETWORK_ALPHABET))
def test_fuzz_network_text(text):
    # A cycle or self-loop is well-formed text for an unsupported topology:
    # a domain error (CLI exit 1), not a parse error.
    try:
        assert isinstance(parse_network(text), Network)
    except (ParseError, TopologyError):
        pass


SCHEDULE_ALPHABET = ["n ", "phases ", "sink ", "path ", "s", "u1", "t1", ":", "1", "0",
                     "²", "x", " ", "\n", "#"]


@FUZZ
@given(fuzzed(FIG3_SCHEDULE, SCHEDULE_ALPHABET))
def test_fuzz_schedule_text(text):
    try:
        sched = parse_schedule(FIG3, text)
    except ParseError:
        return
    assert parse_schedule(FIG3, format_schedule(FIG3, sched)) == sched


VALID_PACKET = serialize_packet(CodedPacket(index=3, vector=0b100001001, payload=b"payload"))


@st.composite
def packet_bytes(draw):
    """Raw bytes, or a valid packet with a few bytes overwritten and a random cut."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=40))
    buf = bytearray(VALID_PACKET)
    for _ in range(draw(st.integers(0, 3))):
        buf[draw(st.integers(0, len(buf) - 1))] = draw(st.integers(0, 255))
    return bytes(buf[: draw(st.integers(0, len(buf)))])


@FUZZ
@given(packet_bytes())
def test_fuzz_packet_bytes(buf):
    try:
        packet = deserialize_packet(buf)
    except WireFormatError:
        return
    assert serialize_packet(packet) == buf

