"""Linear mapping between float frames and n-bit unsigned integer frames.

The frame's own min/max span the full integer range, so all loss sits in the
rounding step. Rounding is half away from zero, fixed explicitly so results
match across platforms. The decoder needs no range: it maps the integers onto
[0, 1], and refinement onto the transmitted statistics absorbs the affine map
back onto the range.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .tensor import _float64_chunks


def _levels(bit_depth: int) -> int:
    if not 8 <= bit_depth <= 16:
        raise DomainError(f"bit depth must be in [8, 16], got {bit_depth}")
    return (1 << bit_depth) - 1


def quantize_frame(frame: np.ndarray, bit_depth: int = 10) -> tuple[np.ndarray, tuple[float, float]]:
    """Map a float frame onto [0, 2^n - 1] integers; also returns the frame's
    (min, max), the range the integers span."""
    frame = np.asarray(frame, dtype=np.float32)
    if frame.ndim != 2:
        raise DomainError("expected a 2-d frame")
    levels = _levels(bit_depth)
    lo, hi = float(frame.min()), float(frame.max())
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise DomainError("frame values must be finite")
    if lo == hi:
        return np.zeros(frame.shape, dtype=np.uint16), (lo, hi)
    # (x - min) / (max - min) * levels, one IEEE step at a time, a float64
    # chunk of rows at a time, then rounded half away from zero: x >= 0, so
    # that is floor(x + 0.5).
    out = np.empty(frame.shape, dtype=np.uint16)
    for x, rows in _float64_chunks(frame, out):
        x -= lo
        x /= hi - lo
        x *= levels
        x += 0.5
        rows[...] = np.floor(x, out=x)
    return out, (lo, hi)


def dequantize_frame(q: np.ndarray, bit_depth: int) -> np.ndarray:
    """The n-bit integer samples of q, of any shape, on [0, 1] as a new
    float32 array of that shape: q / (2^n - 1)."""
    levels = _levels(bit_depth)
    q = np.asarray(q)
    if q.min() < 0 or q.max() > levels:
        raise DomainError(f"sample outside [0, {levels}]")
    x = q.astype(np.float32)
    x /= np.float32(levels)
    return x
