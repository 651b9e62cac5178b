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


@dataclass(frozen=True)
class CodingScheme:
    """An encoding matrix E and its mode; ``decode_matrix`` is E^-1, derived once.

    In ``direct`` mode the balanced incidence matrix encodes (each coded
    packet XORs exactly k sources) and its inverse decodes. In
    ``balanced_decode`` mode the roles swap so that every source packet is
    recovered from exactly k coded packets instead. Valid by construction:
    the mode is one of ``MODES`` and E is invertible (``gf2.invert`` raises
    ``ValueError`` for a non-square E, ``SingularMatrixError`` for a singular one).
    """

    encode_matrix: BitMatrix
    mode: str
    decode_matrix: BitMatrix = field(init=False)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}, expected one of {MODES}")
        object.__setattr__(self, "decode_matrix", invert(self.encode_matrix))

    @property
    def n(self) -> int:
        """The order of E: source and coded packets per block."""
        return self.encode_matrix.rows


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
    """Build a scheme from a rectangle's incidence matrix B: E = B, or B^-1 if balanced_decode."""
    if rect.k % 2 == 0:
        raise SingularMatrixError(
            f"incidence matrix of a {rect.k}x{rect.n} rectangle with even "
            "row count is always singular over GF(2)"
        )
    b = block_incidence(rect)
    return CodingScheme(b if mode == MODE_DIRECT else invert(b), mode)


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
    """Decode packets one at a time: eliminate headers, apply payloads at full rank.

    The packet kept at position i enters the header ``Basis`` with payload
    ``1 << i``, as in ``gf2.invert``, so a reduced row records the kept
    packets it combines. Each payload is converted to an int once, on
    arrival. A dependent packet must carry the XOR of the kept payloads its
    mask names, or some packet was corrupted. At full rank ``_xor_rows``,
    encode's kernel, builds every source from its solved mask.
    """

    __slots__ = ("n", "redundant", "_basis", "_values", "_length")

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("packet count must be >= 1")
        self.n = n
        self.redundant = 0
        self._basis = Basis()
        self._values: list[int] = []
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
        values = self._values
        if values and len(packet.payload) != self._length:
            raise ValueError("received packets have unequal payload lengths")
        if packet.vector >> self.n:
            k = packet.vector.bit_length()
            raise ValueError(f"packet {packet.index} references source {k} > n={self.n}")
        bit = 1 << len(values)
        vec, mask = self._basis.add(packet.vector, bit)
        value = int.from_bytes(packet.payload, "little")
        if vec:
            self._length = len(packet.payload)
            values.append(value)
            return True
        self.redundant += 1
        if _xor_sources(values, mask ^ bit, value):
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
        plen = self._length
        sources = tuple(_xor_rows(self._values, [solved[l] for l in range(n)], plen))
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
