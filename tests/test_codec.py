import math

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from fcmcodec import CodecId, codec_decode, codec_encode, qstep
from fcmcodec.errors import DomainError, FcmError, PayloadDecodeError, TruncatedError
from fcmcodec.metrics import psnr

from bitref import dct_block_forward, dct_block_inverse


def naive_dct2(block):
    """Direct O(N^4) orthonormal type-II DCT, the independent oracle."""
    n = 8
    out = np.zeros((n, n))
    for u in range(n):
        for v in range(n):
            s = 0.0
            for x in range(n):
                for y in range(n):
                    s += (
                        block[x, y]
                        * math.cos((2 * x + 1) * u * math.pi / (2 * n))
                        * math.cos((2 * y + 1) * v * math.pi / (2 * n))
                    )
            cu = math.sqrt(1 / n) if u == 0 else math.sqrt(2 / n)
            cv = math.sqrt(1 / n) if v == 0 else math.sqrt(2 / n)
            out[u, v] = cu * cv * s
    return out


def smooth_frame(rng, shape=(48, 64), bit_depth=10):
    noise = rng.normal(size=shape)
    img = gaussian_filter(noise, sigma=4)
    img = (img - img.min()) / (img.max() - img.min())
    return np.round(img * ((1 << bit_depth) - 1)).astype(np.uint16)


class TestDctBlocks:
    def test_matches_naive_oracle(self, rng):
        block = rng.normal(size=(8, 8))
        np.testing.assert_allclose(dct_block_forward(block), naive_dct2(block), atol=1e-9)

    def test_constant_block_dc_only(self):
        out = dct_block_forward(np.full((8, 8), 3.0))
        assert out[0, 0] == pytest.approx(24.0)  # 8 * c
        out[0, 0] = 0.0
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_zero_block(self):
        np.testing.assert_array_equal(dct_block_forward(np.zeros((8, 8))), np.zeros((8, 8)))

    def test_inverse_identity_and_parseval(self, rng):
        block = rng.normal(size=(8, 8))
        coeffs = dct_block_forward(block)
        np.testing.assert_allclose(dct_block_inverse(coeffs), block, atol=1e-9)
        assert np.sum(coeffs**2) == pytest.approx(np.sum(block**2), abs=1e-9)

    def test_wrong_shape(self):
        with pytest.raises(DomainError):
            dct_block_forward(np.zeros((4, 4)))


class TestRawLossless:
    def test_roundtrip_bit_exact(self, rng):
        frame = rng.integers(0, 1024, size=(23, 31)).astype(np.uint16)
        payload = codec_encode(frame, CodecId.RAW_LOSSLESS, qp=10)
        np.testing.assert_array_equal(codec_decode(payload, CodecId.RAW_LOSSLESS, 10, 10, frame.shape), frame)

    def test_small_frames_exhaustive_values(self):
        for v in (0, 1, 511, 1023):
            frame = np.full((1, 1), v, np.uint16)
            payload = codec_encode(frame, CodecId.RAW_LOSSLESS)
            np.testing.assert_array_equal(codec_decode(payload, CodecId.RAW_LOSSLESS, 22, 10, (1, 1)), frame)

    def test_truncated_payload(self, rng):
        frame = rng.integers(0, 1024, size=(8, 8)).astype(np.uint16)
        payload = codec_encode(frame, CodecId.RAW_LOSSLESS)
        with pytest.raises((PayloadDecodeError, TruncatedError)):
            codec_decode(payload[: len(payload) // 2], CodecId.RAW_LOSSLESS, 22, 10, frame.shape)

    def test_wrong_dims_rejected(self, rng):
        frame = rng.integers(0, 1024, size=(8, 8)).astype(np.uint16)
        payload = codec_encode(frame, CodecId.RAW_LOSSLESS)
        with pytest.raises(PayloadDecodeError):
            codec_decode(payload, CodecId.RAW_LOSSLESS, 22, 10, (8, 9))


class TestBlockDct:
    def test_qstep_convention(self):
        assert qstep(4) == pytest.approx(1.0)
        assert qstep(10) == pytest.approx(2.0)
        assert qstep(16) == pytest.approx(4.0)

    def test_constant_frame_exact_at_low_qp(self):
        frame = np.full((16, 24), 700, np.uint16)
        payload = codec_encode(frame, CodecId.BLOCK_DCT, qp=0)
        np.testing.assert_array_equal(codec_decode(payload, CodecId.BLOCK_DCT, 0, 10, frame.shape), frame)

    def test_rate_non_increasing_in_qp(self, rng):
        frames = [smooth_frame(rng) for _ in range(4)]
        qps = [4, 10, 22, 34, 40, 51]
        sizes = []
        for qp in qps:
            sizes.append(
                sum(len(codec_encode(f, CodecId.BLOCK_DCT, qp=qp)) for f in frames)
            )
        inversions = sum(1 for a, b in zip(sizes, sizes[1:]) if b > a)
        assert inversions <= 1, sizes

    def test_distortion_non_decreasing_in_qp(self, rng):
        frame = smooth_frame(rng)
        lo = codec_decode(codec_encode(frame, CodecId.BLOCK_DCT, qp=10), CodecId.BLOCK_DCT, 10, 10, frame.shape)
        hi = codec_decode(codec_encode(frame, CodecId.BLOCK_DCT, qp=40), CodecId.BLOCK_DCT, 40, 10, frame.shape)
        assert psnr(frame, lo, 1023) >= psnr(frame, hi, 1023)

    def test_non_multiple_of_8_dims(self, rng):
        frame = smooth_frame(rng, shape=(13, 21))
        payload = codec_encode(frame, CodecId.BLOCK_DCT, qp=4)
        out = codec_decode(payload, CodecId.BLOCK_DCT, 4, 10, frame.shape)
        assert out.shape == frame.shape
        # qp=4 is the near-lossless floor (step 1)
        assert np.max(np.abs(out.astype(int) - frame.astype(int))) <= 4

    def test_truncated_payload(self, rng):
        frame = smooth_frame(rng, shape=(16, 16))
        payload = codec_encode(frame, CodecId.BLOCK_DCT, qp=22)
        with pytest.raises(FcmError):
            codec_decode(payload[:3], CodecId.BLOCK_DCT, 22, 10, frame.shape)


class TestDispatch:
    def test_unknown_codec_encode(self):
        with pytest.raises(DomainError):
            codec_encode(np.zeros((4, 4), np.uint16), 99, qp=10)

    def test_unknown_codec_decode(self):
        with pytest.raises(PayloadDecodeError):
            codec_decode(b"xx", 7, 10, 10, (4, 4))

    @pytest.mark.parametrize("qp", [-1, 64])
    def test_qp_out_of_range(self, qp):
        with pytest.raises(DomainError, match="qp must be in"):
            codec_encode(np.zeros((4, 4), np.uint16), CodecId.BLOCK_DCT, qp=qp)
        with pytest.raises(DomainError, match="qp must be in"):
            codec_decode(b"\x0a\xff", CodecId.BLOCK_DCT, qp, 10, (4, 4))

    def test_samples_exceeding_bit_depth(self):
        with pytest.raises(DomainError):
            codec_encode(np.full((2, 2), 1024, np.uint16), CodecId.RAW_LOSSLESS, bit_depth=10)

    @pytest.mark.parametrize("codec", list(CodecId))
    def test_decoded_samples_past_bit_depth(self, codec):
        # samples coded at 16 bits, decoded as a unit that declares fewer
        frame = np.array([[1023, 1024], [0, 65535]], np.uint16)
        payload = codec_encode(frame, codec, qp=0, bit_depth=16)
        np.testing.assert_array_equal(codec_decode(payload, codec, 0, 16, frame.shape), frame)
        for bit_depth in (8, 10):
            with pytest.raises(PayloadDecodeError, match=f"exceeds bit depth {bit_depth}"):
                codec_decode(payload, codec, 0, bit_depth, frame.shape)
        edge = codec_encode(frame[:, :1], codec, qp=0, bit_depth=16)
        np.testing.assert_array_equal(codec_decode(edge, codec, 0, 10, (2, 1)), frame[:, :1])
