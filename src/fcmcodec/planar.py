"""Planar raw-frame exchange format.

One frame record: width u32, height u32, bit-depth u8, then height*width
samples as little-endian u16. A sequence file is records back to back.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import ByteReader, DimensionOverflowError, InvariantError, TruncatedError
from .vcm import PixelSequence

_MAX_FRAME_SAMPLES = 1 << 28


def write_frame(fh, frame: np.ndarray, bit_depth: int) -> None:
    h, w = frame.shape
    fh.write(struct.pack("<IIB", w, h, bit_depth))
    fh.write(np.ascontiguousarray(frame, dtype="<u2"))


def read_frame(r: ByteReader) -> tuple[np.ndarray, int]:
    """Read one frame record; returns (frame, bit_depth), a view of its samples."""
    w, h, bit_depth = r.unpack("<IIB")
    if w < 1 or h < 1 or w * h > _MAX_FRAME_SAMPLES:
        raise DimensionOverflowError(f"bad frame dimensions {w}x{h}")
    return np.frombuffer(r.take(w * h * 2), dtype="<u2").reshape(h, w), bit_depth


def write_sequence(path, seq: PixelSequence) -> None:
    with open(path, "wb") as fh:
        for frame in seq.frames:
            write_frame(fh, frame, seq.bit_depth)


def read_sequence(path) -> PixelSequence:
    with open(path, "rb") as fh:
        data = fh.read()
    r = ByteReader(data, "sequence file")
    frames = []
    depth = None
    while r.pos < len(data):
        frame, bit_depth = read_frame(r)
        if depth is None:
            depth = bit_depth
        elif bit_depth != depth:
            raise InvariantError("mixed bit depths in one sequence file")
        frames.append(frame)
    if not frames:
        raise TruncatedError("empty sequence file")
    return r.build(PixelSequence, tuple(frames), depth)
