"""The FCMB container: one self-delimiting unit per coded tensor.

Stream layout: magic `FCMB`, version u8 (3), unit count u8 (1-8), then units.
A unit carries, after its packing layout, a transform id u8 (the position of
the encoder's stage in `pipeline.TRANSFORMS`) and the tensor's label (u8
length, then UTF-8), so a stream decodes with no side information. All
multi-byte integers are little-endian, except the combination rank, which is
a u16-length-prefixed big-endian big integer (length 0 means rank 0).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .errors import (
    InvariantError,
    MagicMismatchError,
    TruncatedError,
    VersionError,
)
from .lcr import binomial
from .packing import PackingLayout
from .tensor import MAX_TENSORS, GlobalStats

STREAM_MAGIC = b"FCMB"
STREAM_VERSION = 3

_U16_MAX = 0xFFFF


@dataclass(frozen=True)
class UnitHeader:
    """All metadata one unit transmits alongside its inner-codec payload."""

    original_channels: int
    pruned_k: int
    lcr_rank: int
    transform_stats: GlobalStats
    reduced_stats: GlobalStats
    bit_depth: int
    conv_min: float
    conv_max: float
    layout: PackingLayout
    transform_id: int
    label: str
    codec: int
    qp: int

    def __post_init__(self):
        if not 0 < self.original_channels <= _U16_MAX:
            raise InvariantError("original channel count out of range")
        if not 0 <= self.pruned_k <= self.original_channels:
            raise InvariantError("pruned_k exceeds channel count")
        if not 0 <= self.lcr_rank < binomial(self.original_channels, self.pruned_k):
            raise InvariantError("rank outside [0, C(N, k))")
        if self.layout.channel_count != self.original_channels - self.pruned_k:
            raise InvariantError("layout channel count is not N - k")
        if not 8 <= self.bit_depth <= 16:
            raise InvariantError("bit depth outside [8, 16]")
        if not 0 <= self.codec <= 255 or not 0 <= self.qp <= 63:
            raise InvariantError("codec id or qp out of range")
        try:
            label_size = len(self.label.encode("utf-8"))
        except UnicodeEncodeError as exc:
            raise InvariantError(f"label not encodable as UTF-8: {self.label!r}") from exc
        if not 0 <= self.transform_id <= 255 or label_size > 255:
            raise InvariantError("transform id or label length out of range")


def _rank_bytes(rank: int) -> bytes:
    if rank == 0:
        return b""
    return rank.to_bytes((rank.bit_length() + 7) // 8, "big")


def serialize_unit(header: UnitHeader, payload: bytes) -> bytes:
    rank = _rank_bytes(header.lcr_rank)
    label = header.label.encode("utf-8")
    lay = header.layout
    for dim in (lay.grid_rows, lay.grid_cols, lay.tile_h, lay.tile_w, lay.channel_count):
        if dim > _U16_MAX:
            raise InvariantError("layout field exceeds u16 range")
    parts = [
        struct.pack("<HH", header.original_channels, header.pruned_k),
        struct.pack("<H", len(rank)),
        rank,
        struct.pack("<ff", header.transform_stats.mu, header.transform_stats.sigma),
        struct.pack("<ff", header.reduced_stats.mu, header.reduced_stats.sigma),
        struct.pack("<B", header.bit_depth),
        struct.pack("<ff", header.conv_min, header.conv_max),
        struct.pack(
            "<HHHHH", lay.grid_rows, lay.grid_cols, lay.tile_h, lay.tile_w, lay.channel_count
        ),
        struct.pack("<BB", header.transform_id, len(label)),
        label,
        struct.pack("<BB", header.codec, header.qp),
        struct.pack("<I", len(payload)),
        payload,
    ]
    return b"".join(parts)


def parse_unit(data: bytes, offset: int = 0) -> tuple[UnitHeader, memoryview, int]:
    """Parse one unit starting at offset; returns (header, payload, consumed).

    The payload is a view into data, not a copy."""
    view = memoryview(data)
    pos = offset

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(view):
            raise TruncatedError(f"unit truncated at byte {pos} (need {n} more)")
        out = view[pos : pos + n]
        pos += n
        return out

    n_channels, k = struct.unpack("<HH", take(4))
    (rank_len,) = struct.unpack("<H", take(2))
    rank = int.from_bytes(take(rank_len), "big")
    mu, sigma = struct.unpack("<ff", take(8))
    mu_x, sigma_x = struct.unpack("<ff", take(8))
    (bit_depth,) = struct.unpack("<B", take(1))
    conv_min, conv_max = struct.unpack("<ff", take(8))
    gr, gc, th, tw, cc = struct.unpack("<HHHHH", take(10))
    transform_id, label_len = struct.unpack("<BB", take(2))
    label = take(label_len)
    codec, qp = struct.unpack("<BB", take(2))
    (payload_len,) = struct.unpack("<I", take(4))
    payload = take(payload_len)

    def invariant(cond: bool, msg: str) -> None:
        if not cond:
            raise InvariantError(msg)

    invariant(sigma >= 0 and sigma_x >= 0, "negative transmitted sigma")
    for v in (mu, sigma, mu_x, sigma_x, conv_min, conv_max):
        invariant(v == v and abs(v) != float("inf"), "non-finite transmitted value")
    invariant(conv_min <= conv_max, "conversion min exceeds max")
    invariant(qp <= 63, "qp out of range")
    invariant(min(gr, gc, th, tw) >= 1, "zero layout dimension")
    invariant(1 <= cc <= gr * gc, "layout cannot hold its channel count")
    try:
        header = UnitHeader(
            original_channels=n_channels,
            pruned_k=k,
            lcr_rank=rank,
            transform_stats=GlobalStats(mu, sigma),
            reduced_stats=GlobalStats(mu_x, sigma_x),
            bit_depth=bit_depth,
            conv_min=conv_min,
            conv_max=conv_max,
            layout=PackingLayout(gr, gc, th, tw, cc),
            transform_id=transform_id,
            label=bytes(label).decode("utf-8"),
            codec=codec,
            qp=qp,
        )
    except InvariantError:
        raise
    except Exception as exc:
        raise InvariantError(f"invalid unit header: {exc}") from exc
    return header, payload, pos - offset


def serialize_stream(units: list[tuple[UnitHeader, bytes]]) -> bytes:
    if not 1 <= len(units) <= MAX_TENSORS:
        raise InvariantError(f"stream must contain 1-{MAX_TENSORS} units")
    head = STREAM_MAGIC + struct.pack("<BB", STREAM_VERSION, len(units))
    return head + b"".join(serialize_unit(h, p) for h, p in units)


def parse_stream(data: bytes) -> list[tuple[UnitHeader, memoryview]]:
    if len(data) < 6:
        raise TruncatedError("stream shorter than its fixed header")
    if data[:4] != STREAM_MAGIC:
        raise MagicMismatchError("not an FCMB stream (bad magic)")
    version, count = data[4], data[5]
    if version != STREAM_VERSION:
        raise VersionError(f"unsupported stream version {version}")
    if not 1 <= count <= MAX_TENSORS:
        raise InvariantError(f"stream declares {count} units, not 1-{MAX_TENSORS}")
    pos = 6
    units = []
    for _ in range(count):
        header, payload, consumed = parse_unit(data, pos)
        units.append((header, payload))
        pos += consumed
    if pos != len(data):
        raise InvariantError(f"{len(data) - pos} trailing bytes after last unit")
    return units
