"""Channel importance scoring, pruning, and decoder-side restoration."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .lcr import ChannelIndexSet
from .tensor import FeatureTensor, _float64_chunks, _mean


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


def select_pruned(scores: list[float], ratio: float) -> PruneDecision:
    """Mark the floor(ratio*C) lowest-energy channels for pruning.

    Ties go to the lower channel index (stable sort).
    """
    if not 0.0 <= ratio <= 1.0:
        raise DomainError(f"prune ratio must be in [0, 1], got {ratio}")
    c = len(scores)
    count = math.floor(ratio * c)
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


def restore_channels(t: FeatureTensor, d: PruneDecision) -> FeatureTensor:
    """Reinsert pruned channels, filled with the scalar mean of t."""
    if d.kept_count != t.channels:
        raise DomainError(
            f"decision expects {d.kept_count} kept channels, tensor has {t.channels}"
        )
    if not d.pruned.indices:
        return t
    fill = np.float32(_mean(t.data))
    out = np.full((d.total_channels, t.height, t.width), fill, dtype=np.float32)
    keep = np.delete(np.arange(d.total_channels), d.pruned.indices)
    out[keep] = t.data
    return FeatureTensor(out)
