"""Lexicographic combinatorial rank coding of channel-index subsets.

A strictly increasing k-subset of {0..N-1} is identified by its zero-based
position in the lexicographic enumeration of all k-subsets. Ranks are exact
arbitrary-precision integers: C(256, 128) alone needs 252 bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, RankRangeError


def binomial(n: int, r: int) -> int:
    """Exact C(n, r); 0 whenever r < 0 or r > n."""
    if n < 0:
        raise DomainError(f"binomial needs n >= 0, got {n}")
    if r < 0 or r > n:
        return 0
    return math.comb(n, r)


@dataclass(frozen=True)
class ChannelIndexSet:
    """Strictly increasing channel indices drawn from [0, total_channels)."""

    indices: tuple[int, ...]
    total_channels: int

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if self.total_channels < 0:
            raise DomainError("total_channels must be >= 0")
        for a, b in zip(idx, idx[1:]):
            if a >= b:
                raise DomainError(f"indices not strictly increasing: {a} >= {b}")
        if idx and (idx[0] < 0 or idx[-1] >= self.total_channels):
            raise DomainError(
                f"indices must lie in [0, {self.total_channels}), got {idx}"
            )
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class LcrCode:
    """(k, rank) pair identifying one k-subset."""

    k: int
    rank: int

    def __post_init__(self):
        if self.k < 0 or self.rank < 0:
            raise DomainError("k and rank must be non-negative")


def lcr_encode(s: ChannelIndexSet) -> LcrCode:
    """Rank a subset: count combinations skipped before each chosen index.

    Walks x over 0..N-1 with c = C(N - x - 1, r), the number of subsets
    that take x as their next index when r indices are left after it. A
    skipped x adds c to the rank. Each step updates c exactly from the last:
    C(m - 1, r) = C(m, r) (m - r) / m past a skip, C(m - 1, r - 1) =
    C(m, r) r / m past a chosen index.
    """
    n = s.total_channels
    k = len(s)
    if not k:
        return LcrCode(k=0, rank=0)
    chosen = set(s.indices)
    rank = 0
    r = k - 1
    c = binomial(n - 1, r)
    for x in range(s.indices[-1]):
        m = n - x - 1
        if x in chosen:
            c = c * r // m
            r -= 1
        else:
            rank += c
            c = c * (m - r) // m
    return LcrCode(k=k, rank=rank)


def lcr_decode(code: LcrCode, total_channels: int) -> ChannelIndexSet:
    """Invert lcr_encode: walk candidate indices, subtracting block sizes,
    with the binomials updated step by step as in lcr_encode."""
    n = total_channels
    k = code.k
    if k > n:
        raise DomainError(f"k={k} exceeds total channels N={n}")
    total = binomial(n, k)
    if code.rank >= total:
        raise RankRangeError(f"rank {code.rank} >= C({n}, {k})")
    if not k:
        return ChannelIndexSet((), n)
    temp = code.rank
    out = []
    r = k - 1
    c = total * k // n  # C(n - 1, k - 1)
    x = 0
    while len(out) < k:
        m = n - x - 1
        if c <= temp:
            temp -= c
            c = c * (m - r) // m
        else:
            out.append(x)
            if r:
                c = c * r // m
            r -= 1
        x += 1
    return ChannelIndexSet(tuple(out), n)
