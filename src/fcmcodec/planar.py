"""Planar raw-frame exchange format (also used by external codec adapters).

One frame record: width u32, height u32, bit-depth u8, then height*width
samples as little-endian u16. A sequence file is records back to back.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import DimensionOverflowError, DomainError, InvariantError, TruncatedError
from .vcm import PixelSequence

_MAX_FRAME_SAMPLES = 1 << 28


def write_frame(fh, frame: np.ndarray, bit_depth: int) -> None:
    h, w = frame.shape
    fh.write(struct.pack("<IIB", w, h, bit_depth))
    fh.write(np.ascontiguousarray(frame, dtype="<u2").tobytes())


def read_frame(data: bytes, offset: int) -> tuple[np.ndarray, int, int]:
    """Returns (frame, bit_depth, bytes_consumed)."""
    if offset + 9 > len(data):
        raise TruncatedError("frame header truncated")
    w, h, bit_depth = struct.unpack_from("<IIB", data, offset)
    if w < 1 or h < 1 or w * h > _MAX_FRAME_SAMPLES:
        raise DimensionOverflowError(f"bad frame dimensions {w}x{h}")
    if not 1 <= bit_depth <= 16:
        raise InvariantError(f"bad bit depth {bit_depth}")
    need = w * h * 2
    start = offset + 9
    if start + need > len(data):
        raise TruncatedError("frame samples truncated")
    frame = np.frombuffer(data[start : start + need], dtype="<u2").reshape(h, w)
    return frame.astype(np.uint16), bit_depth, 9 + need


def write_sequence(path, seq: PixelSequence) -> None:
    with open(path, "wb") as fh:
        for frame in seq.frames:
            write_frame(fh, frame, seq.bit_depth)


def read_sequence(path) -> PixelSequence:
    with open(path, "rb") as fh:
        data = fh.read()
    frames = []
    depth = None
    pos = 0
    while pos < len(data):
        frame, bit_depth, consumed = read_frame(data, pos)
        if depth is None:
            depth = bit_depth
        elif bit_depth != depth:
            raise InvariantError("mixed bit depths in one sequence file")
        frames.append(frame)
        pos += consumed
    if not frames:
        raise TruncatedError("empty sequence file")
    try:
        return PixelSequence(tuple(frames), depth)
    except DomainError as exc:  # every argument comes from the file
        raise InvariantError(str(exc)) from exc
