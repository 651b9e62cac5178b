"""XOR packet coding: schemes from Latin rectangles, encode/decode, wire format.

A coded packet carries its coding vector as its encoding-row int (bit j is
source j + 1); the wire writes it as the ascending list of 1-based source
indexes, so sinks rebuild the decoding matrix from headers alone. Wire format,
little-endian:

    u16 packet_index | u16 header_count h | h * u16 source indexes
    | u32 payload_len | payload bytes

The block manifest is text: a first line "n k mode original_len" followed by
the Latin rectangle in its own text format.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Sequence

from .errors import (
    PacketIntegrityError,
    ParseError,
    PartialDecodeError,
    SingularMatrixError,
    WireFormatError,
)
from .gf2 import Basis, BitMatrix, invert
from .latin import LatinRectangle, block_incidence

MODE_DIRECT = "direct"
MODE_BALANCED_DECODE = "balanced_decode"
MODES = (MODE_DIRECT, MODE_BALANCED_DECODE)
# The wire's u16 fields bound a packet index and a source index, and so n.
_U16_MAX = 0xFFFF
# Payloads shorter than this many bytes decode in one elimination pass (see Decoder).
_ONE_PASS_BELOW = 4096


@dataclass(frozen=True)
class CodingScheme:
    """A design matrix B and its mode; B^-1 is derived once, and the mode orders the pair.

    In ``direct`` mode B encodes (each coded packet XORs exactly k sources
    when B is a balanced incidence matrix) and B^-1 decodes. In
    ``balanced_decode`` mode B decodes, so every source packet is recovered
    from exactly k coded packets, and B^-1 encodes. Valid by construction:
    the mode is one of ``MODES`` and B is invertible (``gf2.invert`` raises
    ``ValueError`` for a non-square B, ``SingularMatrixError`` for a singular one).
    """

    matrix: BitMatrix
    mode: str
    encode_matrix: BitMatrix = field(init=False)
    decode_matrix: BitMatrix = field(init=False)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}, expected one of {MODES}")
        b, inverse = self.matrix, invert(self.matrix)
        enc, dec = (b, inverse) if self.mode == MODE_DIRECT else (inverse, b)
        object.__setattr__(self, "encode_matrix", enc)
        object.__setattr__(self, "decode_matrix", dec)

    @property
    def n(self) -> int:
        """The order of B: source and coded packets per block."""
        return self.matrix.rows


@dataclass(frozen=True)
class SourceBlock:
    """n equal-length source packets plus the pre-padding payload size."""

    packets: tuple[bytes, ...]
    packet_len: int
    original_len: int

    def __post_init__(self):
        if not self.packets:
            raise ValueError("block must contain at least one packet")
        if any(len(p) != self.packet_len for p in self.packets):
            raise ValueError("all packets must have identical length")
        if self.original_len < 0:
            raise ValueError("original length cannot be negative")
        if self.original_len > self.packet_len * len(self.packets):
            raise ValueError(
                f"original length {self.original_len} exceeds the block's "
                f"{self.packet_len * len(self.packets)} bytes"
            )

    @property
    def n(self) -> int:
        return len(self.packets)

    @classmethod
    def from_packets(cls, packets: Sequence[bytes], original_len: int | None = None) -> SourceBlock:
        packets = tuple(bytes(p) for p in packets)
        plen = len(packets[0]) if packets else 0  # an empty block fails in the constructor
        if original_len is None:
            original_len = plen * len(packets)
        return cls(packets, plen, original_len)


@dataclass(frozen=True)
class CodedPacket:
    """One coded packet: index, coding vector (bit j is source j + 1), XOR payload."""

    index: int
    vector: int
    payload: bytes

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("packet index must be >= 1")
        if self.vector < 1:
            raise ValueError("coding vector must name at least one source")

    @property
    def header(self) -> tuple[int, ...]:
        """The 1-based source indexes of the coding vector, ascending."""
        bits = self.vector
        # A list, not a generator: CPython 3.11 builds tuple(generator) at a
        # guessed length, resizes it, and on release parks it in the free list
        # of its final size, so per-packet calls pin up to ~4 MB of free tuples
        # between full collections.
        return tuple([j + 1 for j in range(bits.bit_length()) if (bits >> j) & 1])


def split_payload(data: bytes, n: int) -> SourceBlock:
    """Cut data into n equal packets, zero-padding those that come out short.

    The packets are slices of data, and only the short ones (the last with
    data, and any empty ones after it) are padded, so no padded copy of the
    whole block is ever built.
    """
    if n < 1:
        raise ValueError("packet count must be >= 1")
    if not data:
        raise ValueError("cannot split empty data")
    packet_len = -(-len(data) // n)
    cuts = (data[i:i + packet_len] for i in range(0, n * packet_len, packet_len))
    packets = tuple(p if len(p) == packet_len else p.ljust(packet_len, b"\x00") for p in cuts)
    return SourceBlock(packets, packet_len, len(data))


def join_payload(block: SourceBlock) -> bytes:
    """Concatenate the packets and drop the padding.

    Only the full packets and the trimmed last one are joined, so the padded
    block is never built and then cut.
    """
    if not block.packet_len:
        return b""
    full, rest = divmod(block.original_len, block.packet_len)
    head = block.packets[:full]
    return b"".join(head + (block.packets[full][:rest],) if rest else head)


def make_scheme(rect: LatinRectangle, mode: str = MODE_DIRECT) -> CodingScheme:
    """The scheme whose design matrix is the rectangle's incidence matrix B, in ``mode``."""
    if rect.k % 2 == 0:
        raise SingularMatrixError(
            f"incidence matrix of a {rect.k}x{rect.n} rectangle with even "
            "row count is always singular over GF(2)"
        )
    return CodingScheme(block_incidence(rect), mode)


def encode(scheme: CodingScheme, block: SourceBlock) -> list[CodedPacket]:
    """XOR the sources per encoding row; each packet's vector is its row."""
    n = scheme.n
    if block.n != n:
        raise ValueError(f"block has {block.n} packets, scheme expects {n}")
    sources = [int.from_bytes(p, "little") for p in block.packets]
    rows = scheme.encode_matrix
    payloads = _xor_rows(sources, rows.row_bits, block.packet_len)
    return [CodedPacket(i + 1, row, p) for i, (row, p) in enumerate(zip(rows.row_bits, payloads))]


def _xor_rows(values: list[int], rows: Sequence[int], length: int) -> list[bytes]:
    """For each row, the XOR of the values its set bits name, as little-endian bytes.

    Each value is an int converted once by the caller. A row of weight w with
    2w > n + 1 (n values) costs fewer XORs as its complement, ``B = J xor R``:
    start from the total T (the XOR of all n values, built on first use) and
    XOR in the n - w values outside the row.
    """
    n = len(values)
    full = (1 << n) - 1
    total = None
    out = []
    for row in rows:
        if 2 * row.bit_count() > n + 1:
            if total is None:
                total = _xor_sources(values, full, 0)
            acc = _xor_sources(values, full ^ row, total)
        else:
            acc = _xor_sources(values, row, 0)
        out.append(acc.to_bytes(length, "little"))
    return out


def _xor_sources(sources: list[int], bits: int, acc: int) -> int:
    """acc XOR every source j whose bit j is set in bits."""
    while bits:
        low = bits & -bits
        acc ^= sources[low.bit_length() - 1]
        bits ^= low
    return acc


class Decoder:
    """Decode packets one at a time, by one of two routes picked by payload length.

    The first packet kept fixes the payload length every packet must have,
    and with it the route:

    - Shorter than ``_ONE_PASS_BELOW`` bytes, one pass: each payload int rides
      the header ``Basis`` as its ``pay``, a dependent packet must reduce to a
      zero payload, and at full rank the solved payloads are the sources.
    - Otherwise, masks then XORs: the packet kept at position i enters the
      header ``Basis`` with payload ``1 << i``, as in ``gf2.invert``, so a
      reduced row records the kept packets it combines. A dependent packet
      must carry the XOR of the kept payloads its mask names. At full rank
      ``_xor_rows``, encode's kernel, builds every source from its solved
      mask with the complement rule.

    One pass XORs a payload at every elimination step. The masks route XORs
    short masks there and payloads only in ``_xor_rows``: fewer long XORs,
    but a second Python loop, which costs more than it saves on short
    payloads. The constant is where the measured times cross; CHANGES.md
    gives the table. Each payload is converted to an int once, on arrival;
    both routes raise the same errors and decode the same bytes.
    """

    __slots__ = ("n", "redundant", "_basis", "_values", "_length")

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("packet count must be >= 1")
        self.n = n
        self.redundant = 0
        self._basis = Basis()
        self._values: list[int] | None = None  # kept payloads, on the masks route only
        self._length = 0

    @property
    def rank(self) -> int:
        """Number of packets kept, the rank of the received headers."""
        return len(self._basis)

    @property
    def recoverable(self) -> frozenset[int]:
        """1-based sources whose unit vector lies in the span of the headers so far."""
        return frozenset(l + 1 for l in self._basis.spanned_units(self.n))

    def add(self, packet: CodedPacket) -> bool:
        """Enter one packet; True if it raised the rank.

        Raises ``ValueError`` if its payload length differs from the first
        packet's, and ``PacketIntegrityError`` if the packet is dependent on
        earlier ones but its payload disagrees with theirs.
        """
        payload, basis = packet.payload, self._basis
        if basis.rows and len(payload) != self._length:
            raise ValueError("received packets have unequal payload lengths")
        if packet.vector >> self.n:
            k = packet.vector.bit_length()
            raise ValueError(f"packet {packet.index} references source {k} > n={self.n}")
        value = int.from_bytes(payload, "little")
        if not basis.rows:  # a first packet in range is kept: its length picks the route
            self._length = len(payload)
            self._values = None if len(payload) < _ONE_PASS_BELOW else []
        values = self._values
        if values is None:
            vec, bad = basis.add(packet.vector, value)
        else:
            bit = 1 << len(values)
            vec, mask = basis.add(packet.vector, bit)
            if vec:
                values.append(value)
            else:
                bad = _xor_sources(values, mask ^ bit, value)
        if vec:
            return True
        self.redundant += 1
        if bad:
            raise PacketIntegrityError(
                f"packet {packet.index} is linearly dependent on earlier packets "
                "but its payload disagrees"
            )
        return False

    def block(self, original_len: int | None = None) -> SourceBlock:
        """The decoded sources; raises ``PartialDecodeError`` below full rank."""
        n = self.n
        if len(self._basis) < n:
            raise PartialDecodeError(self.recoverable, n)
        solved = self._basis.solve()
        plen, values = self._length, self._values
        if values is None:
            sources = tuple([solved[l].to_bytes(plen, "little") for l in range(n)])
        else:
            sources = tuple(_xor_rows(values, [solved[l] for l in range(n)], plen))
        if original_len is None:
            original_len = plen * n
        return SourceBlock(sources, plen, original_len)


def decode(
    packets: Sequence[CodedPacket], n: int, original_len: int | None = None
) -> SourceBlock:
    """Recover the source block from headers and payloads alone.

    The packets go through one ``Decoder`` in the order given, so overheard
    or redundant packet sets work the same as the exact n-packet case. Below
    full rank, the sources whose unit vectors are already spanned are
    reported as recoverable.
    """
    decoder = Decoder(n)
    for p in packets:
        decoder.add(p)
    return decoder.block(original_len)


_HEAD = struct.Struct("<HH")
_PLEN = struct.Struct("<I")


def serialize_packet(packet: CodedPacket) -> bytes:
    if packet.index > _U16_MAX or packet.vector.bit_length() > _U16_MAX:
        raise ValueError("index does not fit the u16 wire format")
    if len(packet.payload) > 0xFFFFFFFF:
        raise ValueError("payload too large for the u32 wire format")
    header = packet.header
    parts = [
        _HEAD.pack(packet.index, len(header)),
        struct.pack(f"<{len(header)}H", *header),
        _PLEN.pack(len(packet.payload)),
        packet.payload,
    ]
    return b"".join(parts)


def deserialize_packet(buf: bytes) -> CodedPacket:
    if len(buf) < _HEAD.size:
        raise WireFormatError("truncated packet prefix", offset=len(buf))
    index, count = _HEAD.unpack_from(buf, 0)
    offset = _HEAD.size
    if index == 0:
        raise WireFormatError("packet index must be >= 1", offset=0)
    if count == 0:
        raise WireFormatError("empty header", offset=2)
    end = offset + 2 * count
    if len(buf) < end:
        raise WireFormatError("truncated header indexes", offset=len(buf))
    header = struct.unpack_from(f"<{count}H", buf, offset)
    if header[0] < 1 or any(a >= b for a, b in zip(header, header[1:])):
        raise WireFormatError("header indexes not strictly increasing from >= 1", offset=offset)
    vector = sum([1 << (j - 1) for j in header])
    offset = end
    if len(buf) < offset + _PLEN.size:
        raise WireFormatError("truncated payload length", offset=len(buf))
    (plen,) = _PLEN.unpack_from(buf, offset)
    offset += _PLEN.size
    if len(buf) < offset + plen:
        raise WireFormatError("truncated payload", offset=len(buf))
    if len(buf) > offset + plen:
        raise WireFormatError("trailing bytes after payload", offset=offset + plen)
    return CodedPacket(index=index, vector=vector, payload=buf[offset:offset + plen])


def format_manifest(rect: LatinRectangle, mode: str, original_len: int) -> str:
    return f"{rect.n} {rect.k} {mode} {original_len}\n" + rect.to_text()


def parse_manifest(text: str) -> tuple[int, int, str, int, LatinRectangle]:
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty manifest")
    toks = lines[0].split()
    if len(toks) != 4:
        raise ParseError(f"bad manifest header {lines[0]!r}, expected 'n k mode original_len'")
    if not all(toks[i].isascii() and toks[i].isdecimal() for i in (0, 1, 3)):
        raise ParseError(f"non-integer field in manifest header {lines[0]!r}")
    n, k, original_len = int(toks[0]), int(toks[1]), int(toks[3])
    mode = toks[2]
    if mode not in MODES:
        raise ParseError(f"unknown manifest mode {mode!r}")
    rect = LatinRectangle.from_text("\n".join(lines[1:]))
    if rect.n != n or rect.k != k:
        raise ParseError(
            f"manifest dimensions {k}x{n} disagree with embedded rectangle {rect.k}x{rect.n}"
        )
    return n, k, mode, original_len, rect
