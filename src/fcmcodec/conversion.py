"""Linear mapping between float frames and n-bit unsigned integer frames.

The frame's own min/max span the full integer range, so all loss sits in the
rounding step. Rounding is half away from zero, fixed explicitly so results
match across platforms. The decoder needs no range: it maps the integers onto
[0, 1], and refinement onto the transmitted statistics absorbs the affine map
back onto the range. codec.py owns the rules for frames and samples.
"""

from __future__ import annotations

import numpy as np

from .codec import _check_frame_shape, _check_samples, sample_max
from .errors import DomainError
from .tensor import _float64_chunks


def quantize_frame(frame: np.ndarray, bit_depth: int) -> tuple[np.ndarray, tuple[float, float]]:
    """Map a float frame onto [0, 2^n - 1] integers; also returns the frame's
    (min, max), the range the integers span."""
    frame = np.asarray(frame, dtype=np.float32)
    _check_frame_shape(frame.shape, DomainError)
    levels = sample_max(bit_depth)
    lo, hi = float(frame.min()), float(frame.max())
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise DomainError("frame values must be finite")
    if lo == hi:
        return np.zeros(frame.shape, dtype=np.uint16), (lo, hi)
    # (x - min) / (max - min) * levels, one IEEE step at a time, a float64
    # chunk of rows at a time, then rounded half away from zero: x >= 0, so
    # that is floor(x + 0.5), and x + 0.5 >= 0.5 is floored by the uint16
    # cast's truncation.
    out = np.empty(frame.shape, dtype=np.uint16)
    for x, rows in _float64_chunks(frame, out):
        x -= lo
        x /= hi - lo
        x *= levels
        x += 0.5
        rows[...] = x
    return out, (lo, hi)


def dequantize_frame(q: np.ndarray, bit_depth: int) -> np.ndarray:
    """The n-bit integer samples of q, of any shape, on [0, 1] as a new
    float32 array of that shape: q / (2^n - 1)."""
    q = np.asarray(q)
    _check_samples(q, bit_depth, DomainError)
    x = q.astype(np.float32)
    x /= np.float32(sample_max(bit_depth))
    return x
