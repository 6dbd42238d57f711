"""Linear mapping between float frames and n-bit unsigned integer frames.

The frame's own min/max span the full integer range, so all loss sits in the
rounding step. Rounding is half away from zero, fixed explicitly so results
match across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class ConversionParams:
    bit_depth: int
    min_val: float
    max_val: float

    def __post_init__(self):
        if not 8 <= self.bit_depth <= 16:
            raise DomainError(f"bit depth must be in [8, 16], got {self.bit_depth}")
        if not (np.isfinite(self.min_val) and np.isfinite(self.max_val)):
            raise DomainError("conversion bounds must be finite")
        if self.min_val > self.max_val:
            raise DomainError("min_val must not exceed max_val")

    @property
    def levels(self) -> int:
        return (1 << self.bit_depth) - 1


def _round_half_away(x: np.ndarray) -> np.ndarray:
    """Round the float array x half away from zero in place; returns x.

    copysign(floor(|x| + 0.5), x) needs no temporary beyond the sign mask.
    """
    negative = np.signbit(x)
    np.abs(x, out=x)
    x += 0.5
    np.floor(x, out=x)
    np.negative(x, out=x, where=negative)
    return x


def quantize_frame(frame: np.ndarray, bit_depth: int = 10) -> tuple[np.ndarray, ConversionParams]:
    """Map a float frame onto [0, 2^n - 1] integers."""
    frame = np.asarray(frame, dtype=np.float32)
    if frame.ndim != 2:
        raise DomainError("expected a 2-d frame")
    params = ConversionParams(bit_depth, float(frame.min()), float(frame.max()))
    if params.min_val == params.max_val:
        return np.zeros(frame.shape, dtype=np.uint16), params
    # (x - min) / (max - min) * levels, in place in one float64 copy.
    x = frame.astype(np.float64)
    x -= params.min_val
    x /= params.max_val - params.min_val
    x *= params.levels
    return _round_half_away(x).astype(np.uint16), params


def dequantize_frame(frame: np.ndarray, params: ConversionParams) -> np.ndarray:
    """Invert quantize_frame up to rounding."""
    q = np.asarray(frame)
    if q.ndim != 2:
        raise DomainError("expected a 2-d frame")
    if q.min() < 0 or q.max() > params.levels:
        raise DomainError(f"sample outside [0, {params.levels}]")
    if params.min_val == params.max_val:
        return np.full(q.shape, params.min_val, dtype=np.float32)
    # q / levels * (max - min) + min, in place in one float64 copy.
    x = q.astype(np.float64)
    x /= params.levels
    x *= params.max_val - params.min_val
    x += params.min_val
    return x.astype(np.float32)
