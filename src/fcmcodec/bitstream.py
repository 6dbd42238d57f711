"""The FCMB container: one self-delimiting unit per coded tensor.

Stream layout: magic `FCMB`, version u8 (7), unit count u8 (1-8), then units.
A unit holds, in order:
- the channel count N and the pruned count k (u16 each);
- the combination rank of the pruned set, a u16-length-prefixed big-endian
  big integer in its fewest bytes (length 0 means rank 0), so each pruned
  set has one encoding;
- the tensor's global mean and std (f32 each), the decoder's one refinement
  target, finite in float32;
- the bit depth (u8) and the tile height and width (u16 each); the tile grid
  follows from N - k by the packing rule;
- a transform id (u8, the position of the encoder's transform in
  `TRANSFORMS`) and the tensor's label (u8 length, then UTF-8), so a stream
  decodes with no side information;
- the inner codec id (u8, a `CodecId`), then the payload (u32 length). The
  payload is the inner codec's own: a BLOCK_DCT payload carries its qp, and
  a RAW_LOSSLESS payload of k zlib pieces the lengths of the first k - 1.
Other multi-byte integers are little-endian.

Units are written only by `serialize_stream` and read only by `parse_stream`.
`UnitHeader` checks each integer field through `errors.integer_in`. It
refuses a transform id past `TRANSFORMS` and, through `codec.codec_id`, a
codec id outside `CodecId`, so a stream that parses names only stages the
decoder has. Like every value type, it raises `DomainError`;
`parse_stream` builds it through `ByteReader.build`, which reports that as an
`InvariantError`, and prefixes a unit's parse error with its index.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .codec import codec_id, sample_max
from .errors import (
    ByteReader,
    DimensionOverflowError,
    DomainError,
    FcmError,
    FormatError,
    InvariantError,
    MagicMismatchError,
    VersionError,
    integer_in,
)
from .lcr import binomial
from .packing import PackingLayout
from .tensor import MAX_ELEMENTS, MAX_TENSORS, GlobalStats, label_bytes

STREAM_MAGIC = b"FCMB"
STREAM_VERSION = 7

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
        n = integer_in(self.original_channels, "original channel count", 1, _U16_MAX)
        k = integer_in(self.pruned_k, "pruned_k", 0, n - 1)
        # C(N, k) can have more digits than str() allows, so no message shows it.
        if integer_in(self.lcr_rank, "rank", 0) >= binomial(n, k):
            raise DomainError("rank outside [0, C(N, k))")
        integer_in(self.tile_h, "tile_h", 1, _U16_MAX)
        integer_in(self.tile_w, "tile_w", 1, _U16_MAX)
        sample_max(self.bit_depth)
        integer_in(self.transform_id, "transform id", 0, len(TRANSFORMS) - 1)
        codec_id(self.codec)
        label_bytes(self.label)
        stats = self.transform_stats
        try:
            struct.pack("<ff", stats.mu, stats.sigma)  # as _unit_head stores them
        except OverflowError:
            raise DomainError(f"statistics {stats.mu!r}, {stats.sigma!r} round past the float32 range") from None

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
    label = label_bytes(h.label)
    mu, sigma = h.transform_stats.mu, h.transform_stats.sigma
    return (
        struct.pack("<HHH", h.original_channels, h.pruned_k, len(rank))
        + rank
        + struct.pack("<ffBHHBB", mu, sigma, h.bit_depth, h.tile_h, h.tile_w, h.transform_id, len(label))
        + label
        + struct.pack("<BI", h.codec, payload_size)
    )


def _parse_unit(r: ByteReader) -> tuple[UnitHeader, memoryview]:
    """Read one unit from r; returns (header, payload).

    The payload is a view into the stream, not a copy. A unit whose packed
    frame or decoded tensor would exceed the FTNS element cap is refused with
    DimensionOverflowError before anything is sized."""
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
    return header, payload


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
            units.append(_parse_unit(r))
        except FormatError as exc:
            raise type(exc)(f"unit {i}: {exc}") from exc
    r.end()
    return units
