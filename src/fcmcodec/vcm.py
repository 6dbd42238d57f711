"""Deterministic pixel-domain tools: bit-depth truncation/restoration and
fixed-ratio temporal resampling/restoration.

Dropped frames are rebuilt by sample-wise linear interpolation between the
nearest kept neighbours; frames past the last kept frame duplicate it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvariantError, TruncatedError

VALID_RATIOS = (2, 4, 8)


@dataclass(frozen=True)
class PixelSequence:
    frames: tuple[np.ndarray, ...]
    bit_depth: int

    def __post_init__(self):
        if not self.frames:
            raise DomainError("sequence must contain at least one frame")
        if not 1 <= self.bit_depth <= 16:
            raise DomainError(f"bit depth must be in [1, 16], got {self.bit_depth}")
        frames = []
        shape = None
        for f in self.frames:
            arr = np.ascontiguousarray(f, dtype=np.uint16)
            if arr.ndim != 2:
                raise DomainError("frames must be 2-d")
            if shape is None:
                shape = arr.shape
            elif arr.shape != shape:
                raise DomainError(f"frame shape {arr.shape} differs from {shape}")
            if arr.max(initial=0) >= (1 << self.bit_depth):
                raise DomainError(f"sample exceeds {self.bit_depth}-bit range")
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
        if self.ratio not in VALID_RATIOS:
            raise DomainError(f"ratio must be one of {VALID_RATIOS}, got {self.ratio}")
        if self.original_count < 1:
            raise DomainError("original_count must be >= 1")

    def serialize(self) -> bytes:
        return struct.pack("<BI", self.ratio, self.original_count)

    @classmethod
    def parse(cls, data: bytes) -> "TemporalSideInfo":
        if len(data) < 5:
            raise TruncatedError("side-info shorter than 5 bytes")
        if len(data) > 5:
            raise InvariantError(f"{len(data) - 5} trailing bytes after side-info")
        try:
            return cls(*struct.unpack("<BI", data))
        except DomainError as exc:  # every argument comes from the bytes
            raise InvariantError(f"side-info: {exc}") from exc


def bitdepth_truncate(s: PixelSequence, shift: int) -> PixelSequence:
    """Right-shift every sample, lowering the declared bit depth."""
    if shift < 0 or shift >= s.bit_depth:
        raise DomainError(f"shift {shift} not in [0, {s.bit_depth})")
    if shift == 0:
        return s
    frames = tuple(np.right_shift(f, shift) for f in s.frames)
    return PixelSequence(frames, s.bit_depth - shift)


def bitdepth_restore(s: PixelSequence, shift: int) -> PixelSequence:
    """Left-shift every sample, raising the declared bit depth."""
    if shift < 0 or s.bit_depth + shift > 16:
        raise DomainError(f"shift {shift} pushes bit depth past 16")
    if shift == 0:
        return s
    frames = tuple(np.left_shift(f.astype(np.uint16), shift) for f in s.frames)
    return PixelSequence(frames, s.bit_depth + shift)


def temporal_resample_scalar(s: PixelSequence, ratio: int) -> tuple[PixelSequence, TemporalSideInfo]:
    """Keep frames 0, ratio, 2*ratio, ..."""
    if ratio not in VALID_RATIOS:
        raise DomainError(f"ratio must be one of {VALID_RATIOS}, got {ratio}")
    kept = tuple(s.frames[i] for i in range(0, len(s), ratio))
    out = PixelSequence(kept, s.bit_depth)
    return out, TemporalSideInfo(ratio, len(s))


def temporal_restore(s: PixelSequence, info: TemporalSideInfo) -> PixelSequence:
    """Rebuild the original frame count from the kept frames."""
    kept = -(-info.original_count // info.ratio)
    if kept != len(s):
        raise DomainError(f"side-info implies {kept} kept frames, sequence has {len(s)}")
    limit = (1 << s.bit_depth) - 1
    frames: list[np.ndarray] = []
    for i in range(info.original_count):
        q, r = divmod(i, info.ratio)
        if r == 0:
            frames.append(s.frames[q])
        elif q + 1 < len(s):
            a = s.frames[q].astype(np.float64)
            b = s.frames[q + 1].astype(np.float64)
            w = r / info.ratio
            mix = np.floor(a * (1.0 - w) + b * w + 0.5)
            frames.append(np.clip(mix, 0, limit).astype(np.uint16))
        else:
            # past the last kept frame: duplicate it
            frames.append(s.frames[-1])
    return PixelSequence(tuple(frames), s.bit_depth)
