import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from fcmcodec import dequantize_frame, quantize_frame
from fcmcodec.conversion import dequantized_stats
from fcmcodec.errors import DomainError
from fcmcodec.tensor import _CHUNK


class TestQuantize:
    def test_known_mapping_10bit(self):
        frame = np.asarray([[-1.0, 0.0, 1.0]], np.float32)
        q, span = quantize_frame(frame, 10)
        assert span == (-1.0, 1.0)
        # 0.5 * 1023 = 511.5 rounds half away from zero to 512
        np.testing.assert_array_equal(q, [[0, 512, 1023]])

    def test_constant_frame(self):
        q, span = quantize_frame(np.full((2, 2), 3.25, np.float32), 10)
        assert span == (3.25, 3.25)
        np.testing.assert_array_equal(q, np.zeros((2, 2)))

    def test_endpoints_exact(self):
        for n in (8, 10, 12, 16):
            frame = np.asarray([[0.0, 7.0]], np.float32)
            q, _ = quantize_frame(frame, n)
            assert q[0, 0] == 0 and q[0, 1] == (1 << n) - 1

    def test_monotone(self, rng):
        frame = rng.normal(size=(16, 16)).astype(np.float32)
        q, _ = quantize_frame(frame, 10)
        order = np.argsort(frame.ravel(), kind="stable")
        assert np.all(np.diff(q.ravel()[order].astype(np.int64)) >= 0)

    def test_bad_bit_depth(self):
        with pytest.raises(DomainError):
            quantize_frame(np.zeros((2, 2), np.float32), 7)

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 2), (0, 4), (4, 0)], ids=["1-d", "3-d", "no_rows", "no_columns"])
    def test_not_a_non_empty_2d_frame(self, shape):
        # An empty frame once raised a bare ValueError from its min.
        with pytest.raises(DomainError, match=r"^expected a non-empty 2-d frame, got shape \("):
            quantize_frame(np.zeros(shape, np.float32), 10)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_frame(self, value):
        with pytest.raises(DomainError, match="^frame values must be finite$"):
            quantize_frame(np.array([[0.0, value]], np.float32), 10)


class TestDequantize:
    def test_endpoints(self):
        out = dequantize_frame(np.asarray([[0, 1023]], np.uint16), 10)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, [[0.0, 1.0]])

    def test_any_shape(self):
        q = np.arange(24, dtype=np.uint16).reshape(2, 3, 4)
        out = dequantize_frame(q, 8)
        assert out.dtype == np.float32 and out.shape == q.shape
        np.testing.assert_array_equal(out, (q.astype(np.float64) / 255).astype(np.float32))

    def test_out_of_range_sample(self):
        with pytest.raises(DomainError, match="^sample exceeds bit depth 8$"):
            dequantize_frame(np.asarray([[256]], np.int64), 8)
        with pytest.raises(DomainError, match="^negative sample$"):
            dequantize_frame(np.asarray([[0, -1]], np.int64), 8)

    @pytest.mark.parametrize("q", [np.array([[0.5]]), np.array([[True, False]])], ids=["float", "bool"])
    def test_samples_that_are_not_integers(self, q):
        # Both were once mapped: 0.5 to 0.00196 and True to 1/255.
        with pytest.raises(DomainError, match="^expected integer samples, got "):
            dequantize_frame(q, 8)

    def test_empty(self):
        # An empty array once raised a bare ValueError from its min.
        out = dequantize_frame(np.zeros((0, 3), np.uint16), 10)
        assert out.dtype == np.float32 and out.shape == (0, 3)

    def test_constant_roundtrip_exact(self):
        frame = np.full((3, 3), -1.5, np.float32)
        q, (lo, hi) = quantize_frame(frame, 10)
        np.testing.assert_array_equal(lo + dequantize_frame(q, 10) * (hi - lo), frame)

    def test_roundtrip_error_bounded(self, rng):
        for _ in range(10_000):
            n = int(rng.integers(8, 17))
            h = int(rng.integers(1, 9))
            w = int(rng.integers(1, 9))
            frame = (rng.normal(size=(h, w)) * rng.uniform(0.01, 100)).astype(np.float32)
            q, (lo, hi) = quantize_frame(frame, n)
            back = lo + dequantize_frame(q, n).astype(np.float64) * (hi - lo)
            # half a quantization step, plus the float32 rounding of the
            # [0, 1] value, at most 2^-25 of it
            bound = (hi - lo) / (2 * ((1 << n) - 1))
            slack = (hi - lo) * 2.0**-25 + 1e-12
            assert np.max(np.abs(back - frame)) <= bound + slack

    def test_deterministic(self, rng):
        frame = rng.normal(size=(32, 32)).astype(np.float32)
        a, pa = quantize_frame(frame, 10)
        b, pb = quantize_frame(frame.copy(), 10)
        assert pa == pb
        np.testing.assert_array_equal(a, b)


def exact_stats(q: np.ndarray, bit_depth: int) -> tuple[Fraction, Fraction]:
    """The mean and population variance of q / (2^n - 1) as fractions, the
    variance from each sample's deviation: the sum of (v / M - S1 / (n M))^2
    over n is the sum of (n v - S1)^2 over n^3 M^2."""
    levels = (1 << bit_depth) - 1
    values = q.reshape(-1).tolist()
    n, s1 = len(values), sum(values)
    return Fraction(s1, n * levels), Fraction(sum((n * v - s1) ** 2 for v in values), n**3 * levels**2)


def sqrt_of(value: Fraction) -> float:
    """The square root of value to 60 digits, as a float."""
    with localcontext() as ctx:
        ctx.prec = 60
        return float((Decimal(value.numerator) / Decimal(value.denominator)).sqrt())


# Sample counts around the moments' float64 chunk of _CHUNK samples.
MOMENT_SIZES = [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7]


class TestDequantizedStats:
    @pytest.mark.parametrize("size", MOMENT_SIZES)
    @pytest.mark.parametrize("bit_depth", [8, 10, 16])
    @pytest.mark.parametrize("kind", ["uniform", "extremes"])
    def test_matches_fractions(self, kind, bit_depth, size):
        rng = np.random.default_rng(size * 17 + bit_depth)
        levels = (1 << bit_depth) - 1
        if kind == "uniform":
            q = rng.integers(0, levels + 1, size, dtype=np.uint16)
        else:  # only 0 and 2^n - 1: each chunk's sum of squares at its largest
            q = rng.choice(np.array([0, levels], np.uint16), size)
        stats = dequantized_stats(q, bit_depth)
        mean, variance = exact_stats(q, bit_depth)
        assert stats.mu == float(mean)
        sigma = sqrt_of(variance)
        assert abs(stats.sigma - sigma) <= math.ulp(sigma)

    @pytest.mark.parametrize("size", MOMENT_SIZES)
    @pytest.mark.parametrize("bit_depth", [8, 10, 16])
    def test_equal_samples_have_no_spread(self, bit_depth, size):
        for value in (0, 1, (1 << bit_depth) - 1):
            stats = dequantized_stats(np.full(size, value, np.uint16), bit_depth)
            assert stats.mu == value / ((1 << bit_depth) - 1)
            assert stats.sigma == 0.0

    def test_any_shape_and_integer_dtype(self):
        q = np.arange(2 * 3 * 4, dtype=np.int64).reshape(2, 3, 4)[:, ::-1]
        assert dequantized_stats(q, 8) == dequantized_stats(q.astype(np.uint16).reshape(-1), 8)

    def test_refuses_what_dequantize_frame_refuses(self):
        with pytest.raises(DomainError, match="^sample exceeds bit depth 8$"):
            dequantized_stats(np.asarray([[256]], np.uint16), 8)
        with pytest.raises(DomainError, match="^expected integer samples, got "):
            dequantized_stats(np.array([[0.5]]), 8)
        with pytest.raises(DomainError):
            dequantized_stats(np.zeros((0, 3), np.uint16), 10)
