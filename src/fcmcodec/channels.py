"""Channel importance scoring, pruning, and decoder-side restoration."""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import DomainError
from .lcr import ChannelIndexSet
from .tensor import FeatureTensor, _float64_chunks


@dataclass(frozen=True)
class PruneDecision:
    """Which channels of an N-channel tensor were dropped."""

    pruned: ChannelIndexSet

    @property
    def total_channels(self) -> int:
        return self.pruned.total_channels

    @property
    def kept_count(self) -> int:
        return self.pruned.total_channels - len(self.pruned)


def score_channels(t: FeatureTensor) -> list[float]:
    """Per-channel mean squared energy, a float64 chunk of channels at a time."""
    scores = np.empty(t.channels)
    for x, out in _float64_chunks(t.data.reshape(t.channels, -1), scores):
        x *= x
        x.mean(axis=1, out=out)
    return [float(v) for v in scores]


def check_prune_ratio(ratio) -> float:
    """ratio; raises DomainError unless it is a real number in [0, 1)."""
    if not (isinstance(ratio, Real) and 0.0 <= ratio < 1.0):
        raise DomainError(f"prune_ratio must be in [0, 1), got {ratio!r}")
    return ratio


def select_pruned(scores: list[float], ratio: float) -> PruneDecision:
    """Mark the floor(ratio*C) lowest-energy channels for pruning.

    Ties go to the lower channel index (stable sort).
    """
    c = len(scores)
    count = math.floor(check_prune_ratio(ratio) * c)
    order = np.argsort(np.asarray(scores, dtype=np.float64), kind="stable")
    pruned = tuple(sorted(int(i) for i in order[:count]))
    return PruneDecision(ChannelIndexSet(pruned, c))


def prune_channels(t: FeatureTensor, d: PruneDecision) -> FeatureTensor:
    """Drop the pruned channels, keeping the rest in original order."""
    if d.total_channels != t.channels:
        raise DomainError(
            f"decision is for {d.total_channels} channels, tensor has {t.channels}"
        )
    if d.kept_count == 0:
        raise DomainError("cannot prune every channel; at least one must survive")
    if not d.pruned.indices:
        return t
    keep = np.delete(np.arange(t.channels), d.pruned.indices)
    return FeatureTensor(t.data[keep])


def restore_channels(x: np.ndarray, d: PruneDecision, fill: np.float32) -> np.ndarray:
    """Reinsert pruned channels into the kept C x H x W array x, filled with
    the float32 scalar fill; the decoder passes the mean of x.

    With nothing pruned, x itself is returned. Otherwise the result is a new
    float32 array, and x is only read.
    """
    if d.kept_count != len(x):
        raise DomainError(
            f"decision expects {d.kept_count} kept channels, array has {len(x)}"
        )
    if not d.pruned.indices:
        return x
    out = np.empty((d.total_channels, *x.shape[1:]), dtype=np.float32)
    out[list(d.pruned.indices)] = fill
    out[np.delete(np.arange(d.total_channels), d.pruned.indices)] = x
    return out
