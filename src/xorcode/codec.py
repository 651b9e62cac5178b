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
    """XOR the sources per encoding row; header = the row's support, 1-based.

    Each source is converted to an int once per block. A row of weight w with
    2w > n + 1 costs fewer XORs as its complement, ``B = J xor R``: start from
    the block total T (the XOR of all n sources, built on first use) and XOR
    in the n - w sources outside the row.
    """
    n = scheme.n
    if block.n != n:
        raise ValueError(f"block has {block.n} packets, scheme expects {n}")
    sources = [int.from_bytes(p, "little") for p in block.packets]
    full = (1 << n) - 1
    total = None
    out = []
    for i, row in enumerate(scheme.encode_matrix.row_bits):
        header = tuple([j + 1 for j in scheme.encode_matrix.row_support(i)])
        if 2 * len(header) > n + 1:
            if total is None:
                total = _xor_sources(sources, full, 0)
            acc = _xor_sources(sources, full ^ row, total)
        else:
            acc = _xor_sources(sources, row, 0)
        payload = acc.to_bytes(block.packet_len, "little")
        out.append(CodedPacket(index=i + 1, header=header, payload=payload))
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


def _header_basis(packets: Sequence[CodedPacket], n: int, payloads: bool) -> Basis:
    """Basis of the received coding vectors, each carrying its payload if asked.

    A packet whose header is dependent on earlier ones must reduce to a zero
    payload too; anything else means some packet was corrupted.
    """
    basis = Basis()
    for p in packets:
        pay = int.from_bytes(p.payload, "little") if payloads else 0
        vec, pay = basis.add(_header_bits(p, n), pay)
        if not vec and pay:
            raise PacketIntegrityError(
                f"packet {p.index} is linearly dependent on earlier packets "
                "but its payload disagrees"
            )
    return basis


def decodable_indexes(packets: Sequence[CodedPacket], n: int) -> frozenset[int]:
    """source indexes l whose unit vector lies in the span of the received headers."""
    basis = _header_basis(packets, n, payloads=False)
    return frozenset(l + 1 for l in basis.spanned_units(n))


def decode(
    packets: Sequence[CodedPacket], n: int, original_len: int | None = None
) -> SourceBlock:
    """Recover the source block from headers and payloads alone.

    Each packet's header and payload enter one GF(2) basis together, so
    overheard or redundant packet sets work the same as the exact n-packet
    case. At full rank, back-substitution leaves source l as the payload of
    unit row e_l; below it, the sources whose unit vectors are already
    spanned are reported as recoverable.
    """
    if n < 1:
        raise ValueError("packet count must be >= 1")
    if not packets:
        raise PartialDecodeError(frozenset(), n)
    plen = len(packets[0].payload)
    if any(len(p.payload) != plen for p in packets):
        raise ValueError("received packets have unequal payload lengths")
    basis = _header_basis(packets, n, payloads=True)
    if len(basis) < n:
        raise PartialDecodeError(frozenset(l + 1 for l in basis.spanned_units(n)), n)
    solved = basis.solve()
    sources = tuple([solved[l].to_bytes(plen, "little") for l in range(n)])
    if original_len is None:
        original_len = plen * n
    return SourceBlock(sources, plen, original_len)


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
    try:
        n, k, original_len = int(toks[0]), int(toks[1]), int(toks[3])
    except ValueError as exc:
        raise ParseError(f"non-integer field in manifest header {lines[0]!r}") from exc
    if original_len < 0:
        raise ParseError(f"negative original length in manifest header {lines[0]!r}")
    mode = toks[2]
    if mode not in MODES:
        raise ParseError(f"unknown manifest mode {mode!r}")
    rect = LatinRectangle.from_text("\n".join(lines[1:]))
    if rect.n != n or rect.k != k:
        raise ParseError(
            f"manifest dimensions {k}x{n} disagree with embedded rectangle {rect.k}x{rect.n}"
        )
    return n, k, mode, original_len, rect
