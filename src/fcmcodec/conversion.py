"""Linear mapping between float frames and n-bit unsigned integer frames.

The frame's own min/max span the full integer range, so all loss sits in the
rounding step. Rounding is half away from zero, fixed explicitly so results
match across platforms. The decoder needs no range: it maps the integers onto
[0, 1], and refinement onto the transmitted statistics absorbs the affine map
back onto the range. The statistics that refinement starts from are those of
the integers on [0, 1], which dequantized_stats computes exactly from the
integers themselves. codec.py owns the rules for frames and samples.
"""

from __future__ import annotations

import math

import numpy as np

from .codec import _check_frame_shape, _check_samples, sample_max
from .errors import DomainError
from .tensor import GlobalStats, _float64_chunks


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


def dequantized_stats(q: np.ndarray, bit_depth: int) -> GlobalStats:
    """The mean and population standard deviation of the n-bit integer
    samples of the non-empty array q mapped onto [0, 1], q / (2^n - 1), from
    exact integer moments of q.

    S1 = sum(q) and S2 = sum(q^2) are summed over the float64 chunks of
    tensor._float64_chunks, as every float64 sum is. A sample is below 2^16
    and a chunk holds at most 2^15 of them (tensor._CHUNK), so each chunk's
    sums are integers below 2^47, exact in float64 in any summation order;
    the chunks add up in Python ints. With M = 2^n - 1, the mean S1 / (n M)
    and the variance (n S2 - S1^2) / (n M)^2 are each rounded once, and sigma
    is the rounded square root of that variance: exactly 0 when every sample
    is equal.

    S2 squares the chunk in place and sums it, not by a BLAS dot product:
    OpenBLAS runs a long dot on its own thread, which then spins on the other
    core for a while and keeps RAW_LOSSLESS's deflate pieces off it.
    """
    q = np.asarray(q)
    _check_samples(q, bit_depth, DomainError)
    if not q.size:
        raise DomainError("statistics of an empty array")
    flat = q.reshape(-1, 1)
    s1 = s2 = 0
    for x, _ in _float64_chunks(flat, flat):
        s1 += int(x.sum())
        x *= x
        s2 += int(x.sum())
    scale = q.size * sample_max(bit_depth)
    return GlobalStats(s1 / scale, math.sqrt((q.size * s2 - s1 * s1) / (scale * scale)))
