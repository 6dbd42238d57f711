"""The FCMB container: one self-delimiting unit per coded tensor.

Stream layout: magic `FCMB`, version u8 (5), unit count u8 (1-8), then units.
A unit holds, in order:
- the channel count N and the pruned count k (u16 each);
- the combination rank of the pruned set, a u16-length-prefixed big-endian
  big integer in its fewest bytes (length 0 means rank 0), so each pruned
  set has one encoding;
- the tensor's global mean and std (f32 each), the decoder's one refinement
  target;
- the bit depth (u8) and the tile height and width (u16 each); the tile grid
  follows from N - k by the packing rule;
- a transform id (u8, the position of the encoder's transform in
  `TRANSFORMS`) and the tensor's label (u8 length, then UTF-8), so a stream
  decodes with no side information;
- the inner codec id (u8, a `CodecId`), then the payload (u32 length). The
  payload is the inner codec's own: a BLOCK_DCT payload carries its qp.
Other multi-byte integers are little-endian.

`UnitHeader` is the one place that decides which ids exist: it refuses a
transform id past `TRANSFORMS` and a codec id outside `CodecId`, so a stream
that parses names only stages the decoder has. Like every value type, it
raises `DomainError`; `parse_unit` builds it through `ByteReader.build`, which
reports that as an `InvariantError`.
`parse_stream` prefixes a unit's parse error with its index.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .codec import CodecId
from .errors import (
    ByteReader,
    DimensionOverflowError,
    DomainError,
    FcmError,
    FormatError,
    InvariantError,
    MagicMismatchError,
    VersionError,
)
from .lcr import binomial
from .packing import PackingLayout
from .tensor import MAX_ELEMENTS, MAX_TENSORS, GlobalStats

STREAM_MAGIC = b"FCMB"
STREAM_VERSION = 5

_U16_MAX = 0xFFFF

# Transform name -> pooling factor: the encoder mean-pools each spatial axis
# by the factor and the decoder repeats it back. A name's position is the
# transform id units carry, so new transforms go at the end and none is ever
# removed or reordered.
TRANSFORMS = {"identity": 1, "meanpool2x": 2}


@dataclass(frozen=True)
class UnitHeader:
    """All metadata one unit transmits alongside its inner-codec payload."""

    original_channels: int
    pruned_k: int
    lcr_rank: int
    transform_stats: GlobalStats
    bit_depth: int
    tile_h: int
    tile_w: int
    transform_id: int
    label: str
    codec: int

    def __post_init__(self):
        if not 0 < self.original_channels <= _U16_MAX:
            raise DomainError("original channel count out of range")
        if not 0 <= self.pruned_k < self.original_channels:
            raise DomainError("pruned_k leaves no channel")
        if not 0 <= self.lcr_rank < binomial(self.original_channels, self.pruned_k):
            raise DomainError("rank outside [0, C(N, k))")
        if not (0 < self.tile_h <= _U16_MAX and 0 < self.tile_w <= _U16_MAX):
            raise DomainError("tile dimension outside 1-65535")
        if not 8 <= self.bit_depth <= 16:
            raise DomainError("bit depth outside [8, 16]")
        if not 0 <= self.transform_id < len(TRANSFORMS):
            raise DomainError(f"unknown transform id {self.transform_id}")
        if self.codec not in list(CodecId):
            raise DomainError(f"unknown codec id {self.codec}")
        try:
            label_size = len(self.label.encode("utf-8"))
        except UnicodeEncodeError as exc:
            raise DomainError(f"label not encodable as UTF-8: {self.label!r}") from exc
        if label_size > 255:
            raise DomainError("label longer than 255 bytes")

    @property
    def transform(self) -> str:
        """The name of the unit's transform in TRANSFORMS."""
        return list(TRANSFORMS)[self.transform_id]

    @property
    def layout(self) -> PackingLayout:
        return PackingLayout(self.original_channels - self.pruned_k, self.tile_h, self.tile_w)


def check_element_cap(header: UnitHeader, error: type[FcmError]) -> None:
    """Raise error if the unit's packed frame or its decoded tensor, N x
    (f * tile_h) x (f * tile_w) for the transform's pooling factor f, would
    hold more than the FTNS element cap. The encoder and the parser both ask,
    so no stream is written that the parser refuses."""
    lay = header.layout
    if lay.frame_height * lay.frame_width > MAX_ELEMENTS:
        raise error(f"{lay.frame_height}x{lay.frame_width} frame exceeds the element cap")
    f = TRANSFORMS[header.transform]
    c, h, w = header.original_channels, f * header.tile_h, f * header.tile_w
    if c * h * w > MAX_ELEMENTS:
        raise error(f"decoded tensor {c}x{h}x{w} exceeds the element cap")


def _rank_bytes(rank: int) -> bytes:
    if rank == 0:
        return b""
    return rank.to_bytes((rank.bit_length() + 7) // 8, "big")


def _unit_head(h: UnitHeader, payload_size: int) -> bytes:
    """A unit's bytes before its payload."""
    rank = _rank_bytes(h.lcr_rank)
    label = h.label.encode("utf-8")
    mu, sigma = h.transform_stats.mu, h.transform_stats.sigma
    return (
        struct.pack("<HHH", h.original_channels, h.pruned_k, len(rank))
        + rank
        + struct.pack("<ffBHHBB", mu, sigma, h.bit_depth, h.tile_h, h.tile_w, h.transform_id, len(label))
        + label
        + struct.pack("<BI", h.codec, payload_size)
    )


def serialize_unit(header: UnitHeader, payload: bytes) -> bytes:
    return _unit_head(header, len(payload)) + payload


def parse_unit(data: bytes, offset: int = 0) -> tuple[UnitHeader, memoryview, int]:
    """Parse one unit starting at offset; returns (header, payload, consumed).

    The payload is a view into data, not a copy. A unit whose packed frame or
    decoded tensor would exceed the FTNS element cap is refused with
    DimensionOverflowError before anything is sized."""
    r = ByteReader(data, "unit", offset)
    n_channels, k, rank_len = r.unpack("<HHH")
    rank_field = r.take(rank_len)
    if rank_len and rank_field[0] == 0:
        raise InvariantError("rank field has a leading zero byte")
    mu, sigma, bit_depth, tile_h, tile_w, transform_id, label_len = r.unpack("<ffBHHBB")
    label = r.text(label_len)
    codec, payload_len = r.unpack("<BI")
    payload = r.take(payload_len)
    header = r.build(
        UnitHeader,
        original_channels=n_channels,
        pruned_k=k,
        lcr_rank=int.from_bytes(rank_field, "big"),
        transform_stats=r.build(GlobalStats, mu, sigma),
        bit_depth=bit_depth,
        tile_h=tile_h,
        tile_w=tile_w,
        transform_id=transform_id,
        label=label,
        codec=codec,
    )
    check_element_cap(header, DimensionOverflowError)
    return header, payload, r.pos - offset


def serialize_stream(units: list[tuple[UnitHeader, bytes]]) -> bytes:
    if not 1 <= len(units) <= MAX_TENSORS:
        raise InvariantError(f"stream must contain 1-{MAX_TENSORS} units")
    parts = [STREAM_MAGIC + struct.pack("<BB", STREAM_VERSION, len(units))]
    for header, payload in units:
        parts += (_unit_head(header, len(payload)), payload)
    return b"".join(parts)


def parse_stream(data: bytes) -> list[tuple[UnitHeader, memoryview]]:
    r = ByteReader(data, "stream")
    if r.take(4) != STREAM_MAGIC:
        raise MagicMismatchError("not an FCMB stream (bad magic)")
    version, count = r.unpack("<BB")
    if version != STREAM_VERSION:
        raise VersionError(f"unsupported stream version {version}")
    if not 1 <= count <= MAX_TENSORS:
        raise InvariantError(f"stream declares {count} units, not 1-{MAX_TENSORS}")
    units = []
    for i in range(count):
        try:
            header, payload, consumed = parse_unit(data, r.pos)
        except FormatError as exc:
            raise type(exc)(f"unit {i}: {exc}") from exc
        units.append((header, payload))
        r.pos += consumed
    r.end()
    return units
