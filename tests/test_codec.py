import math

import numpy as np
import pytest
from scipy.fft import dctn as scipy_dctn
from scipy.fft import idctn as scipy_idctn
from scipy.ndimage import gaussian_filter

from fcmcodec import CodecId, codec, codec_decode, codec_encode, qstep
from fcmcodec.errors import DomainError, FcmError, PayloadDecodeError, TruncatedError
from fcmcodec.metrics import psnr

from bitref import dct_block_forward, dct_block_inverse, reference_encode_dct


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


def extreme_16bit_blocks(rng):
    top = 65535.0
    return np.array(
        [
            np.full((8, 8), top),
            np.indices((8, 8)).sum(axis=0) % 2 * top,  # checkerboard
            np.indices((8, 8))[0] % 2 * top,  # stripes
            np.pad(np.full((1, 1), top), ((0, 7), (0, 7))),  # one corner
            rng.integers(0, 2, size=(8, 8)) * top,
        ]
    )


def assert_inverse_matches_scipy(coeffs):
    """codec.idctn of the zigzag-ordered (n, 8, 8) raster coefficient blocks
    is scipy's inverse DCT within 1e-9 of each block's largest magnitude."""
    expected = scipy_idctn(coeffs, type=2, norm="ortho", axes=(-2, -1)).reshape(-1, 64)
    got = codec.idctn(coeffs.reshape(-1, 64)[:, codec.ZIGZAG])
    scale = np.abs(coeffs).reshape(-1, 64).max(axis=1, keepdims=True)
    assert (np.abs(got - expected) <= 1e-9 * scale).all()


class TestInverseBasis:
    def test_random_blocks(self, rng):
        magnitude = 10.0 ** rng.uniform(-3, 7, size=(500, 1, 1))
        assert_inverse_matches_scipy(rng.normal(size=(500, 8, 8)) * magnitude)

    def test_extreme_16bit_blocks(self, rng):
        coeffs = list(scipy_dctn(extreme_16bit_blocks(rng), type=2, norm="ortho", axes=(-2, -1)))
        # The largest levels a 16-bit frame codes at qp 0, of either sign.
        coeffs.append(rng.choice([-1.0, 1.0], size=(8, 8)) * (2**20 - 1) * qstep(0))
        assert_inverse_matches_scipy(np.array(coeffs))


def assert_forward_matches_scipy(pixels):
    """codec.dctn of the (n, 8, 8) pixel blocks, flattened in raster order,
    is scipy's DCT in zigzag order within 1e-9 of each block's largest
    magnitude."""
    expected = scipy_dctn(pixels, type=2, norm="ortho", axes=(-2, -1)).reshape(-1, 64)[:, codec.ZIGZAG]
    got = codec.dctn(pixels.reshape(-1, 64))
    scale = np.abs(pixels).reshape(-1, 64).max(axis=1, keepdims=True)
    assert (np.abs(got - expected) <= 1e-9 * scale).all()


class TestForwardBasis:
    def test_random_blocks(self, rng):
        magnitude = 10.0 ** rng.uniform(-3, 7, size=(500, 1, 1))
        assert_forward_matches_scipy(rng.normal(size=(500, 8, 8)) * magnitude)

    def test_extreme_16bit_blocks(self, rng):
        assert_forward_matches_scipy(extreme_16bit_blocks(rng))

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("z", [0, 10, 14, 39])
    def test_exact_ties_round_away_from_zero(self, rng, z, sign):
        # Every basis entry at these zigzag positions is +-1/8, so integer
        # blocks whose signed sum t is 8k + 4 have the coefficient k + 1/2
        # exactly, and the product lands a few ulps to either side.
        pattern = np.rint(8 * codec._BASIS[z])
        blocks = rng.integers(0, 4000, size=(2000, 64)).astype(np.float64)
        blocks[:, 0] += pattern[0] * ((4 - blocks @ pattern) % 8)
        t = sign * (blocks @ pattern)
        k = (t - 4) // 8
        levels = codec._round_half_away(codec.dctn(sign * blocks))
        np.testing.assert_array_equal(levels[:, z], np.where(t > 0, k + 1, k))


class TestLevelRule:
    K = np.array([0.0, 1.0, 2.0, 37.0, 1023.0, 2.0**20 - 1])

    @pytest.mark.parametrize("sign", [1, -1])
    def test_ties_and_the_band_below_them_round_away(self, sign):
        for below in (0.0, 2.0**-21, 2.0**-20):
            x = sign * (self.K + 0.5 - below)
            assert codec._round_half_away(x) is x
            np.testing.assert_array_equal(x, sign * (self.K + 1))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_values_past_the_band_round_toward_zero(self, sign):
        x = codec._round_half_away(sign * (self.K + 0.5 - 2.0**-18))
        np.testing.assert_array_equal(x, sign * self.K)

    @pytest.mark.parametrize("z", [0, 10, 14, 39])
    def test_the_encoder_agrees_with_scipy_at_ties(self, rng, z):
        # 10-bit blocks whose signed sum at zigzag position z is 8k + 4 tie
        # there at qp 4, where qstep is 1, and at qp 22 after a scale of 8.
        # The reference coder takes its coefficients from scipy's FFT.
        pattern = np.rint(8 * codec._BASIS[z]).astype(np.int64)
        for qp, scale in ((4, 1), (22, 8)):
            blocks = rng.integers(8, 120, size=(24, 64)) * scale
            blocks[:, 0] += pattern[0] * ((4 * scale - blocks @ pattern) % (8 * scale))
            frame = blocks.reshape(4, 6, 8, 8).transpose(0, 2, 1, 3).reshape(32, 48).astype(np.uint16)
            assert codec_encode(frame, CodecId.BLOCK_DCT, qp=qp) == reference_encode_dct(frame, qp)


class TestRawLossless:
    def test_roundtrip_bit_exact(self, rng):
        frame = rng.integers(0, 1024, size=(23, 31)).astype(np.uint16)
        payload = codec_encode(frame, CodecId.RAW_LOSSLESS, qp=10)
        np.testing.assert_array_equal(codec_decode(payload, CodecId.RAW_LOSSLESS, 10, frame.shape), frame)

    def test_small_frames_exhaustive_values(self):
        for v in (0, 1, 511, 1023):
            frame = np.full((1, 1), v, np.uint16)
            payload = codec_encode(frame, CodecId.RAW_LOSSLESS)
            np.testing.assert_array_equal(codec_decode(payload, CodecId.RAW_LOSSLESS, 10, (1, 1)), frame)

    def test_truncated_payload(self, rng):
        frame = rng.integers(0, 1024, size=(8, 8)).astype(np.uint16)
        payload = codec_encode(frame, CodecId.RAW_LOSSLESS)
        with pytest.raises((PayloadDecodeError, TruncatedError)):
            codec_decode(payload[: len(payload) // 2], CodecId.RAW_LOSSLESS, 10, frame.shape)

    def test_wrong_dims_rejected(self, rng):
        frame = rng.integers(0, 1024, size=(8, 8)).astype(np.uint16)
        payload = codec_encode(frame, CodecId.RAW_LOSSLESS)
        with pytest.raises(PayloadDecodeError):
            codec_decode(payload, CodecId.RAW_LOSSLESS, 10, (8, 9))


class TestBlockDct:
    def test_qstep_convention(self):
        assert qstep(4) == pytest.approx(1.0)
        assert qstep(10) == pytest.approx(2.0)
        assert qstep(16) == pytest.approx(4.0)

    def test_constant_frame_exact_at_low_qp(self):
        frame = np.full((16, 24), 700, np.uint16)
        payload = codec_encode(frame, CodecId.BLOCK_DCT, qp=0)
        np.testing.assert_array_equal(codec_decode(payload, CodecId.BLOCK_DCT, 10, frame.shape), frame)

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
        lo = codec_decode(codec_encode(frame, CodecId.BLOCK_DCT, qp=10), CodecId.BLOCK_DCT, 10, frame.shape)
        hi = codec_decode(codec_encode(frame, CodecId.BLOCK_DCT, qp=40), CodecId.BLOCK_DCT, 10, frame.shape)
        assert psnr(frame, lo, 1023) >= psnr(frame, hi, 1023)

    def test_non_multiple_of_8_dims(self, rng):
        frame = smooth_frame(rng, shape=(13, 21))
        payload = codec_encode(frame, CodecId.BLOCK_DCT, qp=4)
        out = codec_decode(payload, CodecId.BLOCK_DCT, 10, frame.shape)
        assert out.shape == frame.shape
        # qp=4 is the near-lossless floor (step 1)
        assert np.max(np.abs(out.astype(int) - frame.astype(int))) <= 4

    def test_truncated_payload(self, rng):
        frame = smooth_frame(rng, shape=(16, 16))
        payload = codec_encode(frame, CodecId.BLOCK_DCT, qp=22)
        with pytest.raises(FcmError):
            codec_decode(payload[:3], CodecId.BLOCK_DCT, 10, frame.shape)


class TestDispatch:
    def test_unknown_codec_encode(self):
        with pytest.raises(DomainError):
            codec_encode(np.zeros((4, 4), np.uint16), 99, qp=10)
        # 1.0 == True == BLOCK_DCT, but a codec id is an integer, not a bool
        with pytest.raises(DomainError, match="^unknown codec id 1.0$"):
            codec_encode(np.zeros((4, 4), np.uint16), 1.0, qp=10)
        with pytest.raises(DomainError, match="^unknown codec id True$"):
            codec_encode(np.zeros((4, 4), np.uint16), True, qp=10)
        with pytest.raises(DomainError, match="^unknown codec id False$"):
            codec_encode(np.zeros((4, 4), np.uint16), False, qp=10)

    def test_unknown_codec_decode(self):
        # A codec id passed as an argument is a domain error; fcm_decode
        # refuses one read from a stream in UnitHeader, as an InvariantError.
        with pytest.raises(DomainError, match="^unknown codec id 7$"):
            codec_decode(b"xx", 7, 10, (4, 4))
        with pytest.raises(DomainError, match="^unknown codec id 1.0$"):
            codec_decode(b"xx", 1.0, 10, (4, 4))
        with pytest.raises(DomainError, match="^unknown codec id True$"):
            codec_decode(b"xx", True, 10, (4, 4))

    @pytest.mark.parametrize("qp", [-1, 64])
    def test_qp_out_of_range(self, qp):
        with pytest.raises(DomainError, match="qp must be in"):
            codec_encode(np.zeros((4, 4), np.uint16), CodecId.BLOCK_DCT, qp=qp)

    @pytest.mark.parametrize("bit_depth", [7, 17])
    def test_decode_bit_depth_outside_8_to_16(self, bit_depth):
        # DCT pixels are clipped to the depth, which past 16 would wrap in uint16
        payload = codec_encode(np.zeros((4, 4), np.uint16), CodecId.BLOCK_DCT, qp=22, bit_depth=8)
        with pytest.raises(DomainError, match="bit depth must be in"):
            codec_decode(payload, CodecId.BLOCK_DCT, bit_depth, (4, 4))

    def test_samples_exceeding_bit_depth(self):
        with pytest.raises(DomainError):
            codec_encode(np.full((2, 2), 1024, np.uint16), CodecId.RAW_LOSSLESS, bit_depth=10)

    @pytest.mark.parametrize("codec", list(CodecId))
    def test_decoded_samples_past_bit_depth(self, codec):
        # Samples coded at 16 bits, decoded as a unit that declares fewer: a
        # RAW sample past the depth is malformed, and DCT pixels are clipped
        # to it.
        frame = np.array([[1023, 1024], [0, 65535]], np.uint16)
        payload = codec_encode(frame, codec, qp=0, bit_depth=16)
        np.testing.assert_array_equal(codec_decode(payload, codec, 16, frame.shape), frame)
        for bit_depth in (8, 10):
            if codec == CodecId.RAW_LOSSLESS:
                with pytest.raises(PayloadDecodeError, match=f"exceeds bit depth {bit_depth}"):
                    codec_decode(payload, codec, bit_depth, frame.shape)
            else:
                clipped = np.minimum(frame, (1 << bit_depth) - 1)
                np.testing.assert_array_equal(codec_decode(payload, codec, bit_depth, frame.shape), clipped)
        edge = codec_encode(frame[:, :1], codec, qp=0, bit_depth=16)
        np.testing.assert_array_equal(codec_decode(edge, codec, 10, (2, 1)), frame[:, :1])


# Frames and bit depths codec_encode refuses. Before it checked them, each was
# coded: the 17-bit RAW sample decoded as 4464, the DCT -1 as 0, the float
# frame was rounded two ways, depth 300 raised a bare ValueError in the DCT
# coder, and depths 4 and 24 wrote payloads the DCT decoder refuses.
OUTSIDE_THE_DOMAIN = {
    "uint32_70000_at_depth_17": (np.full((2, 2), 70000, np.uint32), 17),
    "int32_minus_1": (np.array([[0, -1], [5, 7]], np.int32), 10),
    "float_frame": (np.full((2, 2), 3.4), 10),
    "depth_300": (np.zeros((2, 2), np.uint16), 300),
    "depth_4": (np.zeros((2, 2), np.uint16), 4),
    "depth_24": (np.zeros((2, 2), np.uint16), 24),
    "empty_frame": (np.zeros((0, 4), np.uint16), 10),
}


@pytest.mark.parametrize("codec", list(CodecId), ids=[c.name for c in CodecId])
@pytest.mark.parametrize("frame,bit_depth", OUTSIDE_THE_DOMAIN.values(), ids=OUTSIDE_THE_DOMAIN)
def test_encode_refuses_frames_outside_its_domain(codec, frame, bit_depth):
    with pytest.raises(DomainError):
        codec_encode(frame, codec, qp=22, bit_depth=bit_depth)


@pytest.mark.parametrize("codec", list(CodecId), ids=[c.name for c in CodecId])
@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint32, np.uint8])
def test_any_integer_dtype_within_depth_codes_like_uint16(codec, dtype):
    frame = np.array([[0, 1, 200], [255, 17, 3]], np.uint16)
    expected = codec_encode(frame, codec, qp=4, bit_depth=8)
    assert codec_encode(frame.astype(dtype), codec, qp=4, bit_depth=8) == expected


# A bit depth or qp that is not an integer is refused by the codec's one rule
# for it, under both codecs. Before, 10.0 and 22.5 reached the coders, which
# raised a bare TypeError, or in RAW_LOSSLESS's case took the qp unread; a
# bool qp was coded as qp 0 or 1.
NOT_INTEGERS = {
    "bit_depth_10.0": ({"bit_depth": 10.0}, r"^bit depth must be in \[8, 16\], got 10.0$"),
    "qp_22.5": ({"qp": 22.5}, r"^qp must be in \[0, 63\], got 22.5$"),
    "qp_True": ({"qp": True}, r"^qp must be in \[0, 63\], got True$"),
    "qp_False": ({"qp": False}, r"^qp must be in \[0, 63\], got False$"),
}


@pytest.mark.parametrize("codec", list(CodecId), ids=[c.name for c in CodecId])
@pytest.mark.parametrize("kwargs,message", NOT_INTEGERS.values(), ids=NOT_INTEGERS)
def test_encode_refuses_a_bit_depth_or_qp_that_is_not_an_integer(codec, kwargs, message):
    with pytest.raises(DomainError, match=message):
        codec_encode(np.zeros((4, 4), np.uint16), codec, **kwargs)


@pytest.mark.parametrize("codec", list(CodecId), ids=[c.name for c in CodecId])
def test_decode_refuses_a_bit_depth_that_is_not_an_integer(codec):
    payload = codec_encode(np.zeros((4, 4), np.uint16), codec, qp=22, bit_depth=10)
    with pytest.raises(DomainError, match=r"^bit depth must be in \[8, 16\], got 10.0$"):
        codec_decode(payload, codec, 10.0, (4, 4))


@pytest.mark.parametrize("codec", list(CodecId), ids=[c.name for c in CodecId])
def test_numpy_integer_bit_depth_and_qp_code_like_ints(codec):
    # qp 2 as a uint8 once went into qstep as (qp - 4), which wraps in uint8.
    frame = np.array([[0, 1, 200], [4095, 17, 3]], np.uint16)
    expected = codec_encode(frame, codec, qp=2, bit_depth=12)
    payload = codec_encode(frame, codec, qp=np.uint8(2), bit_depth=np.int64(12))
    assert payload == expected
    decoded = codec_decode(payload, codec, np.uint8(12), frame.shape)
    np.testing.assert_array_equal(decoded, codec_decode(payload, codec, 12, frame.shape))
