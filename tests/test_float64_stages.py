"""The float64 stages against the whole-array expressions they replaced,
and the float32 refinement against the float64 map it replaced.

quantize_frame, score_channels and the mean-pool transform run their float64
arithmetic in place in one reused float64 chunk of rows or channels at a
time. Each step is the IEEE operation the whole-array expressions below
perform, in the same order, so results must match them bit for bit, at every
chunk size and boundary. The caller's array must be left as it was.
compute_global_stats and the pad mean of pack sum a float64 chunk at a time
and add the chunks' sums in order. Within one chunk that is numpy's own
whole-array sum, bit for bit; across chunks the sums are held within a
rounding-error bound of math.fsum of the same float64 terms.
apply_refinement maps in float32, in place, so it is held within 2 float32
ulps (float32's epsilon times the largest magnitude) of the float64 map,
clamped to float32's range where its output nears that range and the map's
gain and addend are scaled by a power of two.
It and restore_channels measure nothing: they are given the stats and the
fill, here the reference's own. apply_refinement writes its result into the
buffer it is given.
dequantize_frame divides in float32; float64 has more than twice float32's
precision plus two bits, so the float64 quotient rounded once to float32 is
the same correctly rounded value.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fcmcodec import (
    TRANSFORMS,
    ChannelIndexSet,
    FeatureTensor,
    GlobalStats,
    PruneDecision,
    dequantize_frame,
    pack,
    quantize_frame,
    score_channels,
)
from fcmcodec.channels import restore_channels
from fcmcodec.conversion import dequantized_stats
from fcmcodec.errors import DomainError
from fcmcodec.pipeline import _meanpool
from fcmcodec.tensor import _CHUNK, _float64_sum, apply_refinement, compute_global_stats

from helpers import F32_MAX, float64_map, reference_refinement, within_2_ulps

F32_TINY = float(np.finfo(np.float32).smallest_subnormal)


def reference_stats(data: np.ndarray) -> tuple[float, float]:
    flat = data.astype(np.float64, copy=False)
    mu = float(flat.mean())
    sigma = float(np.sqrt(np.mean((flat - mu) ** 2)))
    return mu, sigma


def reference_scores(data: np.ndarray) -> list[float]:
    x = data.astype(np.float64, copy=False)
    return [float(v) for v in np.mean(x * x, axis=(1, 2))]


def reference_meanpool(data: np.ndarray) -> np.ndarray:
    c, h, w = data.shape
    return data.astype(np.float64).reshape(c, h // 2, 2, w // 2, 2).mean(axis=(2, 4)).astype(np.float32)


def measured(data: np.ndarray) -> GlobalStats:
    return GlobalStats(*reference_stats(data))


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round the float array x half away from zero in place; returns x."""
    negative = np.signbit(x)
    np.abs(x, out=x)
    x += 0.5
    np.floor(x, out=x)
    np.negative(x, out=x, where=negative)
    return x


def reference_quantize(frame: np.ndarray, bit_depth: int) -> tuple[np.ndarray, float, float]:
    lo, hi = float(frame.min()), float(frame.max())
    if lo == hi:
        return np.zeros(frame.shape, dtype=np.uint16), lo, hi
    x = frame.astype(np.float64)
    scaled = (x - lo) / (hi - lo) * ((1 << bit_depth) - 1)
    return round_half_away(scaled).astype(np.uint16), lo, hi


def reference_dequantize(q: np.ndarray, bit_depth: int) -> np.ndarray:
    return (q.astype(np.float64) / ((1 << bit_depth) - 1)).astype(np.float32)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# Finite float32 values, extremes and subnormals included.
f32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
tensor_data = arrays(np.float32, st.tuples(st.integers(1, 4), st.integers(1, 9), st.integers(1, 9)), elements=f32)
frames = arrays(np.float32, st.tuples(st.integers(1, 12), st.integers(1, 12)), elements=f32)

ZERO_SIGMA = np.full((2, 3, 4), -7.25, np.float32)
EXTREMES = np.array([[[F32_MAX, -F32_MAX], [F32_TINY, -F32_TINY]]], np.float32)
# The exact results of these sit next to a rounding midpoint of the output
# (float32, or an integer plus 0.5), so the output rounds the other way if the
# float64 steps are reordered, e.g. subtracting the mean before multiplying or
# dividing before multiplying.
MIDPOINT_REFINEMENT = (np.array([[[0, 1, 3]]], np.float32), GlobalStats(-1.423361478748817, 1.9024339495607634))
MIDPOINT_QUANTIZE = (np.array([[0.0, 27.081682205200195, 54.16336441040039]], np.float32), 8)


@settings(max_examples=300, deadline=None)
@given(tensor_data)
@example(ZERO_SIGMA)
@example(EXTREMES)
@example(np.zeros((1, 1, 1), np.float32))
def test_stats_match_reference(data):
    stats = compute_global_stats(FeatureTensor(data))
    mu, sigma = reference_stats(data)
    assert same_bits(np.float64(stats.mu), np.float64(mu))
    assert same_bits(np.float64(stats.sigma), np.float64(sigma))


@settings(max_examples=300, deadline=None)
@given(tensor_data)
@example(ZERO_SIGMA)
@example(EXTREMES)
def test_scores_match_reference(data):
    assert same_bits(score_channels(FeatureTensor(data)), reference_scores(data))


@st.composite
def dequantized_buffers(draw):
    """A decoder's buffer before its refinement, with the stats it states:
    n-bit samples on [0, 1], one of them 0 as the frame's min quantizes to,
    and their exact moments."""
    q, bit_depth = draw(quantized())
    q.reshape(-1)[draw(st.integers(0, q.size - 1))] = 0
    return dequantize_frame(q, bit_depth)[None], dequantized_stats(q, bit_depth)


def given_stats(data: np.ndarray) -> tuple[np.ndarray, GlobalStats]:
    return data, measured(data)


# The targets a unit header carries: float32 mu and sigma.
header_targets = st.builds(GlobalStats, st.floats(-(2.0**100), 2.0**100, width=32), st.floats(2.0**-100, 2.0**100, width=32))
RAMP = given_stats((np.arange(1024, dtype=np.float32) / np.float32(1023)).reshape(1, 32, 32))
RELU = given_stats(np.maximum(np.linspace(-3, 1, 500, dtype=np.float32), 0).reshape(5, 10, 10))


@settings(max_examples=300, deadline=None)
@given(dequantized_buffers(), header_targets)
@example(given_stats(ZERO_SIGMA), GlobalStats(1.5, 2.0))
@example(given_stats(MIDPOINT_REFINEMENT[0]), MIDPOINT_REFINEMENT[1])
# mean-dominated: the mean is many times the spread
@example(RAMP, GlobalStats(1000.0, 0.01))
@example(RAMP, GlobalStats(-5e4, 3.0))
@example(RELU, GlobalStats(1000.0, 0.01))
# cancelling: the outputs span 0, so the map's two terms cancel in part
@example(RAMP, GlobalStats(0.0, 1e3))
@example(RELU, GlobalStats(0.0, 1e3))
@example(RELU, GlobalStats(0.25, 0.5))
def test_refinement_is_within_2_ulps_of_the_float64_map(case, target):
    data, current = case
    expected = reference_refinement(data, current, target)
    buf = data.copy()
    out = apply_refinement(buf, current, target).data
    assert np.shares_memory(out, buf)
    assert within_2_ulps(out, expected)


# Targets whose outputs near float32's range, or pass it. A buffer with
# samples 2^126 or more from its mean, as EXTREMES has, is refused. Otherwise
# the output is within 2 ulps of the float64 map clamped to float32's range,
# or refused where that map passes float32's max by more than an ulp, past
# 2^128.
@pytest.mark.parametrize(
    "data,target",
    [
        (EXTREMES, GlobalStats(0.0, 1e38)),
        (EXTREMES, GlobalStats(-3.0, 3e38)),
        (EXTREMES, GlobalStats(3e38, 1e38)),
        (np.where(np.arange(512) < 64, F32_MAX, -F32_MAX).astype(np.float32).reshape(8, 8, 8), GlobalStats(-2.5e38, 2.3e38)),
        (np.array([[[0.0, 1.0]]], np.float32), GlobalStats(2e38, 1e38)),
        (EXTREMES, GlobalStats(0.0, 1.0)),
        (EXTREMES, GlobalStats(-3.0, 1e30)),
        # outputs 2e38 and 4e38, refused
        (np.array([[[0.0, 1.0]]], np.float32), GlobalStats(3e38, 1e38)),
        # output 1 is 5e-8 of the max past it, less than an ulp, so it is clamped
        (np.array([[[0.0, 1.0]]], np.float32), GlobalStats(F32_MAX * (1 + 5e-8) - 1e38, 1e38)),
        # a gain past 2^379, where no scale 2^-e keeps float32's max normal
        (np.array([[[0.0, 1.0]]], np.float32), GlobalStats(0.0, 1e300)),
    ],
)
def test_refinement_near_float32_range_is_the_float64_map(data, target):
    current = measured(data)
    if np.abs(data.astype(np.float64) - current.mu).max() >= 2.0**126:
        with pytest.raises(DomainError, match=r"distance from it, below 2\^126"):
            apply_refinement(data.copy(), current, target)
    elif np.abs(float64_map(data, current, target)).max() > 2.0**128:
        with pytest.raises(DomainError, match="past the float32 range"):
            apply_refinement(data.copy(), current, target)
    else:
        expected = reference_refinement(data, current, target, clamp=True)
        assert within_2_ulps(apply_refinement(data.copy(), current, target).data, expected)


def three_step(data: np.ndarray, current: GlobalStats, target: GlobalStats) -> np.ndarray:
    """The float32 map with no scale: x - m, times the gain, plus the addend."""
    m = np.float32(current.mu)
    gain = target.sigma / current.sigma
    x = data - m
    x *= np.float32(gain)
    x += np.float32(target.mu + (float(m) - current.mu) * gain)
    return x


HALF = np.array([[[0.0, 1.0]]], np.float32)  # stats (0.5, 0.5)
BELOW_2_126 = 2.0**126 - 2.0**102  # float32's largest value below 2^126


# The gain, then the bound on the output, just below 2^126 and at it. Below,
# the map is the unscaled three steps, bit for bit; at 2^126 the gain and the
# addend are halved, and the output is within 2 ulps of the float64 map.
@pytest.mark.parametrize(
    "target,scaled",
    [
        (GlobalStats(0.0, BELOW_2_126 / 2), False),
        (GlobalStats(0.0, 2.0**125), True),
        (GlobalStats(BELOW_2_126, 1.0), False),
        (GlobalStats(2.0**126, 1.0), True),
    ],
    ids=["gain-below", "gain-at", "bound-below", "bound-at"],
)
def test_refinement_at_the_scale_boundary(target, scaled):
    current = measured(HALF)
    out = apply_refinement(HALF.copy(), current, target).data
    if scaled:
        assert within_2_ulps(out, reference_refinement(HALF, current, target))
    else:
        assert same_bits(out, three_step(HALF, current, target))


def test_scaled_refinement_with_subnormal_products():
    """The bound sets e = 2 and the gain is 4e-39, so each scaled product
    (x - m) * gain * 2^-2 is below 2^-126, a float32 subnormal. The loss is
    far below the addend's ulp, so the output is the float64 map's."""
    data = (np.arange(24, dtype=np.float32) / 23).reshape(2, 3, 4)
    current = measured(data)
    target = GlobalStats(3e38, 4e-39 * current.sigma)
    assert 0.5 * (target.sigma / current.sigma) / 4 < 2.0**-126
    out = apply_refinement(data.copy(), current, target).data
    assert same_bits(out, reference_refinement(data, current, target))


@settings(max_examples=300, deadline=None)
@given(frames, st.integers(8, 16))
@example(np.full((3, 5), 3.25, np.float32), 16)
@example(np.array([[F32_MAX, -F32_MAX, 0.0, F32_TINY]], np.float32), 16)
@example(np.array([[-F32_TINY, F32_TINY]], np.float32), 8)
@example(*MIDPOINT_QUANTIZE)
def test_quantize_matches_reference(frame, bit_depth):
    before = frame.copy()
    q, span = quantize_frame(frame, bit_depth)
    expected, lo, hi = reference_quantize(frame, bit_depth)
    assert same_bits(q, expected)
    assert span == (lo, hi)
    assert same_bits(frame, before)


@st.composite
def quantized(draw):
    bit_depth = draw(st.integers(8, 16))
    levels = (1 << bit_depth) - 1
    shape = draw(st.tuples(st.integers(1, 12), st.integers(1, 12)))
    return draw(arrays(np.uint16, shape, elements=st.integers(0, levels))), bit_depth


@settings(max_examples=300, deadline=None)
@given(quantized())
@example((np.array([[0, 65535, 32768, 1, 65534]], np.uint16), 16))
@example((np.array([[0, 1023, 511, 512]], np.uint16), 10))
def test_dequantize_matches_reference(case):
    q, bit_depth = case
    before = q.copy()
    assert same_bits(dequantize_frame(q, bit_depth), reference_dequantize(q, bit_depth))
    assert same_bits(q, before)


# Tensors whose rows (the last axis) or channels end a float64 chunk one
# element early, on it or one late, that span several chunks, or whose rows
# or channels are each wider than a chunk. Quantization walks rows of the
# tensor's (C * H, W) frame, scoring its channels.
CHUNK_SHAPES = [
    (1, _CHUNK - 1, 1),
    (1, _CHUNK, 1),
    (1, _CHUNK + 1, 1),
    (_CHUNK - 1, 1, 1),
    (_CHUNK, 1, 1),
    (_CHUNK + 1, 1, 1),
    (37, 40, 50),
    (3, 1, _CHUNK + 1),
]


@pytest.mark.parametrize("shape", CHUNK_SHAPES)
def test_chunked_stages_match_reference_at_chunk_boundaries(shape):
    rng = np.random.default_rng(sum(shape))
    data = (rng.standard_normal(shape) * 3.7 + 0.25).astype(np.float32)
    current = measured(data)
    target = GlobalStats(-1.5, 0.37)
    assert within_2_ulps(apply_refinement(data.copy(), current, target).data, reference_refinement(data, current, target))
    # outputs past 2^126 scale the gain and the addend by a power of two
    near = GlobalStats(-1.5, 4e37)
    expected = reference_refinement(data, current, near)
    assert 2.0**126 <= np.abs(expected).max() < np.inf
    assert within_2_ulps(apply_refinement(data.copy(), current, near).data, expected)
    assert same_bits(score_channels(FeatureTensor(data)), reference_scores(data))
    frame = data.reshape(-1, shape[-1])
    q, span = quantize_frame(frame, 10)
    expected, lo, hi = reference_quantize(frame, 10)
    assert same_bits(q, expected)
    assert span == (lo, hi)


def spread_values(rng, n: int) -> np.ndarray:
    """n float32 values over 60 binades, so that float64 sums of them round
    at almost every addition and the order of the additions shows."""
    return (rng.standard_normal(n) * np.exp2(rng.integers(-30, 30, n))).astype(np.float32)


def within_summation_bound(total: float, terms: np.ndarray) -> bool:
    """Whether the float64 sum total of the float64 terms is within the error
    bound of a chunked sum of them.

    numpy documents no summation order for np.sum, only that it rounds no
    worse than adding each element in turn, so a chunk of at most _CHUNK
    terms passes each term through at most _CHUNK - 1 roundings. The n
    terms' ceil(n / _CHUNK) chunk sums then add up in order from 0.0, each
    through at most ceil(n / _CHUNK) - 1 more. For any summation tree whose
    terms pass through at most d roundings, the computed sum is within
    gamma_d = d u / (1 - d u), u = 2^-53, of the sum of the terms'
    magnitudes (Higham, Accuracy and Stability of Numerical Algorithms,
    section 4.2); math.fsum gives the exact sum rounded once.
    """
    d = _CHUNK + -(-len(terms) // _CHUNK)
    gamma = d * 2.0**-53 / (1 - d * 2.0**-53)
    return abs(total - math.fsum(terms.tolist())) <= gamma * math.fsum(np.abs(terms).tolist())


def assert_sums_match_reference(data: np.ndarray) -> None:
    """The chunked sums of the (n, 1, 1) data, and of its squared deviations
    about a mean, within the summation bound of math.fsum of the same
    float64 terms; mu and sigma from those sums; pack's pad tiles filled
    with mu rounded to float32, and restore_channels' fill with that value."""
    n = len(data)
    flat = data.astype(np.float64).reshape(-1)
    assert within_summation_bound(_float64_sum(data, None), flat)
    assert within_summation_bound(_float64_sum(data, 0.375), (flat - 0.375) ** 2)
    t = FeatureTensor(data)
    stats = compute_global_stats(t)
    assert same_bits(np.float64(stats.mu), np.float64(_float64_sum(data, None) / n))
    assert same_bits(np.float64(stats.sigma), np.float64(math.sqrt(_float64_sum(data, stats.mu) / n)))
    fill = np.float32(stats.mu)
    restored = restore_channels(data, PruneDecision(ChannelIndexSet((n,), n + 1)), fill)
    assert same_bits(restored[n], np.full((1, 1), fill))
    frame, layout = pack(t)
    if n % layout.grid_cols:  # so the grid's last tile is a pad tile
        assert same_bits(frame[-1, -1], fill)


# Element counts next to numpy's pairwise-sum split points, its 8-wide
# unrolled blocks and 128-element leaves, and next to one, two and three
# float64 chunks of _CHUNK elements.
SUM_SIZES = [1, 7, 8, 9, 127, 128, 129, _CHUNK - 1, _CHUNK + 1, 2 * _CHUNK - 8, 2 * _CHUNK + 8, 3 * _CHUNK + 5]


@pytest.mark.parametrize("n", SUM_SIZES)
def test_sums_match_reference_next_to_split_points(n):
    assert_sums_match_reference(spread_values(np.random.default_rng(n), n).reshape(n, 1, 1))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 1 << 21), st.integers(0, 2**32 - 1))
def test_sums_match_reference(n, seed):
    assert_sums_match_reference(spread_values(np.random.default_rng(seed), n).reshape(n, 1, 1))


def test_stats_scratch_does_not_grow_with_the_tensor():
    t = FeatureTensor(np.random.default_rng(3).standard_normal((8, 512, 512)).astype(np.float32))
    tracemalloc.start()
    try:
        compute_global_stats(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a whole-tensor float64 copy would be 16 MiB
    assert peak < 1 << 20, peak


# Odd channel counts whose channels fill a float64 chunk four elements short,
# exactly, or overflow it, and counts of small channels that end a chunk
# early or leave one channel for the next.
MEANPOOL_SHAPES = [
    (3, 2, _CHUNK // 2 - 2),
    (5, 2, _CHUNK // 2),
    (3, 2, _CHUNK // 2 + 2),
    (_CHUNK // 4 + 1, 2, 2),
    (2 * (_CHUNK // 24) + 1, 4, 6),
    (7, 6, 10),
]


@pytest.mark.parametrize("shape", MEANPOOL_SHAPES)
def test_meanpool_matches_reference(shape):
    data = spread_values(np.random.default_rng(sum(shape)), int(np.prod(shape))).reshape(shape)
    before = data.copy()
    pooled = _meanpool(FeatureTensor(data), TRANSFORMS["meanpool2x"])
    assert same_bits(pooled.data, reference_meanpool(data))
    assert same_bits(data, before)
