"""The float64 stages against the whole-array expressions they replaced.

compute_global_stats, and the pad mean of pack and the fill mean of
restore_channels, sum a float64 chunk at a time along numpy's own pairwise
split points; apply_refinement, quantize_frame, score_channels and the
mean-pool transform run their float64 arithmetic in place in one reused
float64 chunk of rows or channels at a time. Each step is the IEEE operation
the whole-array expressions below performed, in the same order, so results
must match them bit for bit, at every chunk size and boundary. The caller's
array must be left as it was, except by apply_refinement, which writes its
result into the buffer it is given.
dequantize_frame divides in float32; float64 has more than twice float32's
precision plus two bits, so the float64 quotient rounded once to float32 is
the same correctly rounded value.
"""

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
from fcmcodec.errors import DomainError
from fcmcodec.pipeline import _meanpool
from fcmcodec.tensor import _CHUNK, _pairwise_sum, apply_refinement, compute_global_stats

F32_MAX = float(np.finfo(np.float32).max)
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


def reference_refinement(data: np.ndarray, target: GlobalStats) -> np.ndarray:
    mu, sigma = reference_stats(data)
    x = data.astype(np.float64, copy=False)
    if sigma == 0.0:
        out = np.full(data.shape, target.mu, dtype=np.float64)
    else:
        out = target.sigma * (x - mu) / sigma + target.mu
    return out.astype(np.float32)


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
targets = st.builds(GlobalStats, st.floats(-1e30, 1e30), st.floats(0, 1e30))

ZERO_SIGMA = np.full((2, 3, 4), -7.25, np.float32)
EXTREMES = np.array([[[F32_MAX, -F32_MAX], [F32_TINY, -F32_TINY]]], np.float32)
# The exact results of these sit next to a rounding midpoint of the output
# (float32, or an integer plus 0.5), so the output rounds the other way if the
# float64 steps are reordered, e.g. dividing before multiplying.
MIDPOINT_REFINEMENT = (np.array([[[0, 1, 2]]], np.float32), GlobalStats(0.0, 1.0746086226980522))
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


@settings(max_examples=300, deadline=None)
@given(tensor_data, targets)
@example(ZERO_SIGMA, GlobalStats(1.5, 2.0))
@example(EXTREMES, GlobalStats(0.0, 1.0))
@example(EXTREMES, GlobalStats(-3.0, 1e30))
@example(*MIDPOINT_REFINEMENT)
def test_refinement_matches_reference(data, target):
    with np.errstate(over="ignore", invalid="ignore"):
        expected = reference_refinement(data, target)
    buf = data.copy()
    if not np.all(np.isfinite(expected)):
        with pytest.raises(DomainError):
            apply_refinement(buf, target)
    else:
        out = apply_refinement(buf, target).data
        assert np.shares_memory(out, buf)
        assert same_bits(out, expected)


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
# or channels are each wider than a chunk. Refinement walks rows of the
# tensor, quantization rows of its (C * H, W) frame, scoring its channels.
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
    target = GlobalStats(-1.5, 0.37)
    assert same_bits(apply_refinement(data.copy(), target).data, reference_refinement(data, target))
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


def assert_sums_match_reference(data: np.ndarray) -> None:
    """The chunked sums, mu, sigma, pack's pad mean and restore_channels'
    fill mean of the (n, 1, 1) data against numpy's whole-array expressions.
    The sums come first: dividing by n can round two sums to one mean."""
    n = len(data)
    flat = data.astype(np.float64).reshape(-1)
    assert same_bits(np.float64(_pairwise_sum(data, None)), flat.sum())
    assert same_bits(np.float64(_pairwise_sum(data, 0.375)), ((flat - 0.375) ** 2).sum())
    t = FeatureTensor(data)
    stats = compute_global_stats(t)
    mu, sigma = reference_stats(data)
    assert same_bits(np.float64(stats.mu), np.float64(mu))
    assert same_bits(np.float64(stats.sigma), np.float64(sigma))
    fill = np.float32(data.astype(np.float64).mean())
    restored = restore_channels(data, PruneDecision(ChannelIndexSet((n,), n + 1)))
    assert same_bits(restored[n], np.full((1, 1), fill))
    frame, layout = pack(t)
    if n % layout.grid_cols:  # so the grid's last tile is a pad tile
        assert same_bits(frame[-1, -1], fill)


# Element counts next to numpy's pairwise-sum split points, its 8-wide
# unrolled blocks and 128-element leaves, and next to _CHUNK, where the
# chunked sum starts to split the way numpy does.
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
