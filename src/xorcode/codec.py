"""XOR packet coding: schemes from Latin rectangles, encode/decode, wire format.

A coded packet carries its coding vector as a sorted list of source-packet
indexes (the support of its encoding row), so sinks rebuild the decoding
matrix from headers alone. Wire format, little-endian:

    u16 packet_index | u16 header_count h | h * u16 source indexes
    | u32 payload_len | payload bytes

The block manifest is text: a first line "n k mode original_len" followed by
the Latin rectangle in its own text format.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
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


@dataclass(frozen=True)
class CodingScheme:
    """Paired encode/decode matrices; encode_matrix . decode_matrix = I.

    In ``direct`` mode the balanced incidence matrix encodes (each coded
    packet XORs exactly k sources) and its inverse decodes. In
    ``balanced_decode`` mode the roles swap so that every source packet is
    recovered from exactly k coded packets instead.
    """

    n: int
    k: int
    encode_matrix: BitMatrix
    decode_matrix: BitMatrix
    mode: str


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
        if not packets:
            raise ValueError("block must contain at least one packet")
        plen = len(packets[0])
        if original_len is None:
            original_len = plen * len(packets)
        return cls(packets, plen, original_len)


@dataclass(frozen=True)
class CodedPacket:
    """One on-wire unit: index, header of source indexes, XOR payload."""

    index: int
    header: tuple[int, ...]
    payload: bytes

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("packet index must be >= 1")
        if not self.header:
            raise ValueError("header must not be empty")
        if any(b < 1 for b in self.header) or any(
            a >= b for a, b in zip(self.header, self.header[1:])
        ):
            raise ValueError("header indexes must be >= 1 and strictly increasing")


def split_payload(data: bytes, n: int) -> SourceBlock:
    """Zero-pad data to a multiple of n and cut it into n equal packets."""
    if n < 1:
        raise ValueError("packet count must be >= 1")
    if not data:
        raise ValueError("cannot split empty data")
    packet_len = -(-len(data) // n)
    padded = data.ljust(packet_len * n, b"\x00")
    packets = tuple(padded[i * packet_len:(i + 1) * packet_len] for i in range(n))
    return SourceBlock(packets, packet_len, len(data))


def join_payload(block: SourceBlock) -> bytes:
    """Concatenate the packets and drop the padding."""
    return b"".join(block.packets)[: block.original_len]


def make_scheme(rect: LatinRectangle, mode: str = MODE_DIRECT) -> CodingScheme:
    """Build a coding scheme from a rectangle's block-incidence matrix."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    b = block_incidence(rect)
    try:
        b_inv = invert(b)
    except SingularMatrixError:
        if rect.k % 2 == 0:
            raise SingularMatrixError(
                f"incidence matrix of a {rect.k}x{rect.n} rectangle with even "
                "row count is always singular over GF(2)"
            ) from None
        raise
    if mode == MODE_DIRECT:
        enc, dec = b, b_inv
    else:
        enc, dec = b_inv, b
    return CodingScheme(n=rect.n, k=rect.k, encode_matrix=enc, decode_matrix=dec, mode=mode)


def encode(scheme: CodingScheme, block: SourceBlock) -> list[CodedPacket]:
    """XOR the sources per encoding row; header = the row's support, 1-based."""
    n = scheme.n
    if block.n != n:
        raise ValueError(f"block has {block.n} packets, scheme expects {n}")
    sources = [int.from_bytes(p, "little") for p in block.packets]
    rows = scheme.encode_matrix
    payloads = _xor_rows(sources, rows.row_bits, block.packet_len)
    return [
        CodedPacket(i + 1, tuple([j + 1 for j in rows.row_support(i)]), payload)
        for i, payload in enumerate(payloads)
    ]


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


def _header_bits(packet: CodedPacket, n: int) -> int:
    if packet.header[-1] > n:
        raise ValueError(f"packet {packet.index} references source {packet.header[-1]} > n={n}")
    bits = 0
    for j in packet.header:
        bits |= 1 << (j - 1)
    return bits


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

        Raises ``PacketIntegrityError`` if the packet is dependent on earlier
        ones but its payload disagrees with theirs.
        """
        values = self._values
        if values and len(packet.payload) != self._length:
            raise ValueError("received packets have unequal payload lengths")
        bit = 1 << len(values)
        vec, mask = self._basis.add(_header_bits(packet, self.n), bit)
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


def decodable_indexes(packets: Sequence[CodedPacket], n: int) -> frozenset[int]:
    """source indexes l whose unit vector lies in the span of the received headers.

    Only the headers are reduced, so payloads are neither stored nor checked.
    """
    if n < 1:
        raise ValueError("packet count must be >= 1")
    basis = Basis()
    for p in packets:
        basis.add(_header_bits(p, n))
    return frozenset(l + 1 for l in basis.spanned_units(n))


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
    # Checked for the whole list first, so a length mismatch is reported
    # ahead of an integrity error in an earlier packet.
    if len({len(p.payload) for p in packets}) > 1:
        raise ValueError("received packets have unequal payload lengths")
    for p in packets:
        decoder.add(p)
    return decoder.block(original_len)


_HEAD = struct.Struct("<HH")
_PLEN = struct.Struct("<I")


def serialize_packet(packet: CodedPacket) -> bytes:
    if packet.index > 0xFFFF or packet.header[-1] > 0xFFFF:
        raise ValueError("index does not fit the u16 wire format")
    if len(packet.payload) > 0xFFFFFFFF:
        raise ValueError("payload too large for the u32 wire format")
    parts = [
        _HEAD.pack(packet.index, len(packet.header)),
        struct.pack(f"<{len(packet.header)}H", *packet.header),
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
    if any(h < 1 for h in header) or any(a >= b for a, b in zip(header, header[1:])):
        raise WireFormatError("header indexes not strictly increasing from >= 1", offset=offset)
    offset = end
    if len(buf) < offset + _PLEN.size:
        raise WireFormatError("truncated payload length", offset=len(buf))
    (plen,) = _PLEN.unpack_from(buf, offset)
    offset += _PLEN.size
    if len(buf) < offset + plen:
        raise WireFormatError("truncated payload", offset=len(buf))
    if len(buf) > offset + plen:
        raise WireFormatError("trailing bytes after payload", offset=offset + plen)
    return CodedPacket(index=index, header=tuple(header), payload=buf[offset:offset + plen])


def format_manifest(scheme: CodingScheme, rect: LatinRectangle, original_len: int) -> str:
    return f"{scheme.n} {scheme.k} {scheme.mode} {original_len}\n" + rect.to_text()


def parse_manifest(text: str) -> tuple[int, int, str, int, LatinRectangle]:
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty manifest")
    toks = lines[0].split()
    if len(toks) != 4:
        raise ParseError(f"bad manifest header {lines[0]!r}, expected 'n k mode original_len'")
    if not all(toks[i].isdecimal() for i in (0, 1, 3)):
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
