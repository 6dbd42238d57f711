import numpy as np
import pytest

from fcmcodec import dequantize_frame, quantize_frame
from fcmcodec.errors import DomainError


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
        with pytest.raises(DomainError):
            dequantize_frame(np.asarray([[256]], np.int64), 8)

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
