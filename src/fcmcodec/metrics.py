"""Distortion metrics and Bjontegaard delta-rate over rate-quality curves."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import DomainError


def psnr(a: np.ndarray, b: np.ndarray, peak: float) -> float:
    """10*log10(peak^2 / MSE); math.inf for identical inputs."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DomainError(f"shape mismatch: {a.shape} vs {b.shape}")
    if not (isinstance(peak, Real) and 0 < peak < math.inf):  # a NaN fails too
        raise DomainError(f"peak must be positive and finite, got {peak!r}")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse)


@dataclass(frozen=True)
class RdCurve:
    """At least four (rate, quality) points, strictly increasing in rate;
    rates positive and finite, qualities finite."""

    rates: tuple[float, ...]
    qualities: tuple[float, ...]

    def __post_init__(self):
        rates = tuple(float(r) for r in self.rates)
        qualities = tuple(float(q) for q in self.qualities)
        if len(rates) != len(qualities):
            raise DomainError("rates and qualities must have equal length")
        if len(rates) < 4:
            raise DomainError(f"curve needs >= 4 points, got {len(rates)}")
        if not all(0 < r < math.inf for r in rates):  # a NaN fails too
            raise DomainError("rates must be positive and finite")
        if any(r1 >= r2 for r1, r2 in zip(rates, rates[1:])):
            raise DomainError("rates must be strictly increasing")
        if not all(math.isfinite(q) for q in qualities):
            raise DomainError("qualities must be finite")
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "qualities", qualities)


def _log_rate_integral(curve: RdCurve, center: float, span: float) -> float:
    """Integral over [-1/2, 1/2] of the cubic fit of log10(rate) against the
    quality q' = (q - center) / span.

    In q' the fit's conditioning does not depend on the scale of the
    qualities. A curve that reaches far past the overlap can still overflow
    the fit or leave it ill-conditioned; numpy's warnings about that are
    silenced, and bd_rate judges the result.
    """
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", np.exceptions.RankWarning)
        q = (np.asarray(curve.qualities, dtype=np.float64) - center) / span
        # polyfit would scale an infinite cube to NaN, and LAPACK prints
        # about a NaN matrix on stdout.
        if not np.isfinite(q**3).all():
            raise DomainError("no finite BD-rate: qualities too far apart for a cubic fit")
        log_r = np.log10(np.asarray(curve.rates, dtype=np.float64))
        integral = np.polyint(np.polyfit(q, log_r, 3))
        return float(np.polyval(integral, 0.5) - np.polyval(integral, -0.5))


def bd_rate(anchor: RdCurve, test: RdCurve) -> float:
    """Average percent rate difference of test vs anchor at equal quality.

    Negative means the test curve needs less rate.
    """
    lo = max(min(anchor.qualities), min(test.qualities))
    hi = min(max(anchor.qualities), max(test.qualities))
    if not lo < hi:
        raise DomainError("curves have no overlapping quality range")
    span = hi - lo
    if not math.isfinite(span):
        raise DomainError("no finite BD-rate: the overlapping quality range is not finite")
    center = lo + span / 2
    try:
        avg_diff = _log_rate_integral(test, center, span) - _log_rate_integral(anchor, center, span)
        rate = 100.0 * (10.0 ** avg_diff - 1.0)
    except (np.linalg.LinAlgError, OverflowError) as exc:
        raise DomainError(f"no finite BD-rate: {exc}") from exc
    if not (math.isfinite(avg_diff) and math.isfinite(rate)):
        raise DomainError("no finite BD-rate: a cubic fit is not finite")
    return rate
