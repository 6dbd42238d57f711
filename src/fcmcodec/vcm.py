"""Deterministic pixel-domain tools: bit-depth truncation/restoration and
fixed-ratio temporal resampling/restoration.

Dropped frames are rebuilt by sample-wise linear interpolation between the
nearest kept neighbours; frames past the last kept frame duplicate it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ByteReader, DomainError, integer_in

VALID_RATIOS = (2, 4, 8)


@dataclass(frozen=True)
class PixelSequence:
    """Frames of integer samples below 2^bit_depth. A C-contiguous uint16
    frame is kept, not copied, and made read-only; any other frame is
    converted to a new one."""

    frames: tuple[np.ndarray, ...]
    bit_depth: int

    def __post_init__(self):
        if not self.frames:
            raise DomainError("sequence must contain at least one frame")
        integer_in(self.bit_depth, "bit depth", 1, 16)
        frames = []
        shape = None
        for f in self.frames:
            arr = np.asarray(f)
            if arr.ndim != 2:
                raise DomainError("frames must be 2-d")
            if arr.dtype.kind not in "iu":
                raise DomainError(f"samples must be integers, got {arr.dtype}")
            if shape is None:
                shape = arr.shape
            elif arr.shape != shape:
                raise DomainError(f"frame shape {arr.shape} differs from {shape}")
            if arr.min(initial=0) < 0 or arr.max(initial=0) >= (1 << self.bit_depth):
                raise DomainError(f"sample exceeds {self.bit_depth}-bit range")
            arr = np.ascontiguousarray(arr, dtype=np.uint16)
            arr.flags.writeable = False
            frames.append(arr)
        object.__setattr__(self, "frames", tuple(frames))

    def __len__(self) -> int:
        return len(self.frames)


@dataclass(frozen=True)
class TemporalSideInfo:
    ratio: int
    original_count: int

    def __post_init__(self):
        if integer_in(self.ratio, "side-info ratio", min(VALID_RATIOS), max(VALID_RATIOS)) not in VALID_RATIOS:
            raise DomainError(f"side-info ratio must be one of {VALID_RATIOS}, got {self.ratio}")
        integer_in(self.original_count, "side-info original_count", 1, (1 << 32) - 1)

    def serialize(self) -> bytes:
        return struct.pack("<BI", self.ratio, self.original_count)

    @classmethod
    def parse(cls, data: bytes) -> "TemporalSideInfo":
        r = ByteReader(data, "side-info")
        fields = r.unpack("<BI")
        r.end()
        return r.build(cls, *fields)


def bitdepth_truncate(s: PixelSequence, shift: int) -> PixelSequence:
    """Right-shift every sample, lowering the declared bit depth."""
    integer_in(shift, "shift", 0, s.bit_depth - 1)
    if shift == 0:
        return s
    frames = tuple(np.right_shift(f, shift) for f in s.frames)
    return PixelSequence(frames, s.bit_depth - shift)


def bitdepth_restore(s: PixelSequence, shift: int) -> PixelSequence:
    """Left-shift every sample, raising the declared bit depth."""
    integer_in(shift, "shift", 0, 16 - s.bit_depth)
    if shift == 0:
        return s
    frames = tuple(np.left_shift(f, shift) for f in s.frames)
    return PixelSequence(frames, s.bit_depth + shift)


def temporal_resample_scalar(s: PixelSequence, ratio: int) -> tuple[PixelSequence, TemporalSideInfo]:
    """Keep frames 0, ratio, 2*ratio, ..."""
    info = TemporalSideInfo(ratio, len(s))
    return PixelSequence(s.frames[::ratio], s.bit_depth), info


def temporal_restore(s: PixelSequence, info: TemporalSideInfo) -> PixelSequence:
    """Rebuild the original frame count from the kept frames."""
    kept = -(-info.original_count // info.ratio)
    if kept != len(s):
        raise DomainError(f"side-info implies {kept} kept frames, sequence has {len(s)}")
    frames: list[np.ndarray] = []
    for i in range(info.original_count):
        q, r = divmod(i, info.ratio)
        if r == 0:
            frames.append(s.frames[q])
        elif q + 1 < len(s):
            a = s.frames[q].astype(np.float64)
            b = s.frames[q + 1].astype(np.float64)
            w = r / info.ratio  # dyadic: the mix is exact and in range; the cast floors
            frames.append((a * (1.0 - w) + b * w + 0.5).astype(np.uint16))
        else:
            # past the last kept frame: duplicate it
            frames.append(s.frames[-1])
    return PixelSequence(tuple(frames), s.bit_depth)
