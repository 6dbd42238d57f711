import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcmcodec import (
    PixelSequence,
    TemporalSideInfo,
    bitdepth_restore,
    bitdepth_truncate,
    temporal_resample_scalar,
    temporal_restore,
)
from fcmcodec.errors import DomainError, InvariantError


def seq_of(frames, bit_depth=10):
    return PixelSequence(tuple(np.asarray(f, np.uint16) for f in frames), bit_depth)


def constant_seq(values, shape=(4, 4), bit_depth=10):
    return seq_of([np.full(shape, v) for v in values], bit_depth)


class TestBitDepth:
    def test_truncate_known(self):
        out = bitdepth_truncate(constant_seq([1023]), 2)
        assert out.bit_depth == 8
        assert out.frames[0][0, 0] == 255

    def test_shift_zero_identity(self):
        s = constant_seq([100, 200])
        assert bitdepth_truncate(s, 0) is s
        assert bitdepth_restore(s, 0) is s

    def test_underflow_to_zero(self):
        out = bitdepth_truncate(constant_seq([3]), 2)
        assert out.frames[0][0, 0] == 0

    def test_restore_known(self):
        out = bitdepth_restore(constant_seq([255], bit_depth=8), 2)
        assert out.bit_depth == 10
        assert out.frames[0][0, 0] == 1020

    def test_shift_too_large(self):
        with pytest.raises(DomainError):
            bitdepth_truncate(constant_seq([0]), 10)

    @pytest.mark.parametrize("shift_samples", [bitdepth_truncate, bitdepth_restore])
    @pytest.mark.parametrize("shift", [1.5, 1.0, True])
    def test_shift_that_is_not_an_integer_refused(self, shift_samples, shift):
        with pytest.raises(DomainError):
            shift_samples(constant_seq([4]), shift)

    @pytest.mark.parametrize("shift", [1, 2, 3])
    def test_truncate_restore_error_exhaustive(self, shift):
        values = np.arange(1024, dtype=np.uint16).reshape(32, 32)
        s = PixelSequence((values,), 10)
        back = bitdepth_restore(bitdepth_truncate(s, shift), shift)
        err = np.abs(back.frames[0].astype(int) - values.astype(int))
        assert err.max() < (1 << shift)


class TestPixelSequence:
    @pytest.mark.parametrize(
        "sample,bit_depth",
        [(70000, 16), (-1, 16), (1.9, 8), (256, 8)],
        ids=["past_16_bits", "negative", "not_an_integer", "past_8_bits"],
    )
    def test_sample_outside_its_bit_depth_refused(self, sample, bit_depth):
        # The first three were cast to uint16: 4464, 65535 and 1.
        with pytest.raises(DomainError):
            PixelSequence((np.array([[0, sample]]),), bit_depth)

    def test_empty_sequence_refused(self):
        with pytest.raises(DomainError, match="^sequence must contain at least one frame$"):
            PixelSequence((), 10)

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 2)], ids=["1-d", "3-d"])
    def test_frame_that_is_not_2d_refused(self, shape):
        with pytest.raises(DomainError, match="^frames must be 2-d$"):
            PixelSequence((np.zeros((2, 2), np.uint16), np.zeros(shape, np.uint16)), 10)

    def test_frames_of_mixed_shapes_refused(self):
        with pytest.raises(DomainError, match=r"^frame shape \(2, 3\) differs from \(2, 2\)$"):
            PixelSequence((np.zeros((2, 2), np.uint16), np.zeros((2, 3), np.uint16)), 10)

    @pytest.mark.parametrize("bit_depth", [True, 8.0, 0, 17])
    def test_bit_depth_outside_1_to_16_refused(self, bit_depth):
        with pytest.raises(DomainError, match="^bit depth must be in \\[1, 16\\]"):
            PixelSequence((np.zeros((2, 2), np.uint16),), bit_depth)

    def test_a_uint16_frame_is_kept_and_any_other_converted(self):
        # As FeatureTensor keeps a C-contiguous float32 array: the caller's
        # uint16 frame itself becomes read-only, with no frame copied.
        kept = np.zeros((2, 2), np.uint16)
        other = np.zeros((2, 2), np.int32)
        s = PixelSequence((kept, other), 8)
        assert s.frames[0] is kept and not kept.flags.writeable
        assert s.frames[1] is not other and other.flags.writeable
        assert not s.frames[1].flags.writeable


class TestTemporal:
    def test_kept_indices_ratio4(self):
        s = constant_seq(range(8))
        out, info = temporal_resample_scalar(s, 4)
        assert len(out) == 2
        assert out.frames[0][0, 0] == 0 and out.frames[1][0, 0] == 4
        assert (info.ratio, info.original_count) == (4, 8)

    def test_single_frame(self):
        out, info = temporal_resample_scalar(constant_seq([5]), 8)
        assert len(out) == 1 and info.original_count == 1

    def test_ratio2_odd_length(self):
        out, _ = temporal_resample_scalar(constant_seq(range(9)), 2)
        assert [f[0, 0] for f in out.frames] == [0, 2, 4, 6, 8]

    def test_invalid_ratio(self):
        with pytest.raises(DomainError):
            temporal_resample_scalar(constant_seq([0]), 3)

    @pytest.mark.parametrize("ratio", [2.0, True])
    def test_ratio_that_is_not_an_integer_refused(self, ratio):
        with pytest.raises(DomainError, match=r"^side-info ratio must be in \[2, 8\], got "):
            temporal_resample_scalar(constant_seq([0, 1, 2]), ratio)

    def test_linear_midpoint(self):
        s = constant_seq([0, 7, 100])
        sampled, info = temporal_resample_scalar(s, 2)
        back = temporal_restore(sampled, info)
        assert back.frames[1][0, 0] == 50

    def test_static_sequence_bit_exact(self):
        s = constant_seq([42] * 7)
        sampled, info = temporal_resample_scalar(s, 2)
        back = temporal_restore(sampled, info)
        for f in back.frames:
            np.testing.assert_array_equal(f, s.frames[0])

    @pytest.mark.parametrize("bit_depth", [1, 8, 10, 16])
    @pytest.mark.parametrize("ratio", [2, 4, 8])
    def test_interpolation_is_the_rounded_mix(self, bit_depth, ratio):
        # floor(a (1 - w) + b w + 1/2) for every dropped frame, the extremes
        # of the depth included, and never outside [0, 2^bit_depth - 1].
        rng = np.random.default_rng(bit_depth * 10 + ratio)
        top = (1 << bit_depth) - 1
        a = np.concatenate(([0, 0, top, top], rng.integers(0, top + 1, 2000)))
        b = np.concatenate(([0, top, 0, top], rng.integers(0, top + 1, 2000)))
        s = PixelSequence((a[None], b[None]), bit_depth)
        back = temporal_restore(s, TemporalSideInfo(ratio, ratio + 1))
        for r in range(1, ratio):
            w = r / ratio
            expected = np.floor(a * (1.0 - w) + b * w + 0.5)
            assert expected.min() >= 0 and expected.max() <= top
            np.testing.assert_array_equal(back.frames[r][0], expected)

    def test_trailing_frames_duplicate_last_kept(self):
        s = constant_seq([10, 20, 30, 40, 50, 60])
        sampled, info = temporal_resample_scalar(s, 4)  # keeps 0, 4
        back = temporal_restore(sampled, info)
        assert back.frames[5][0, 0] == 50  # past last kept frame

    def test_inconsistent_side_info(self):
        sampled, _ = temporal_resample_scalar(constant_seq(range(8)), 4)
        with pytest.raises(DomainError):
            temporal_restore(sampled, TemporalSideInfo(2, 8))

    def test_declared_count_checked_before_anything_is_sized(self):
        # 10^6 declared frames against a one-frame sequence: the kept count
        # is compared without building an index per declared frame.
        seq = constant_seq([7])
        info = TemporalSideInfo.parse(TemporalSideInfo(2, 10**6).serialize())
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="implies 500000 kept frames, sequence has 1"):
                temporal_restore(seq, info)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    @given(st.integers(1, 100), st.sampled_from([2, 4, 8]), st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_roundtrip_counts_and_kept_frames(self, count, ratio, seed):
        rng = np.random.default_rng(seed)
        frames = tuple(rng.integers(0, 1024, (3, 5)).astype(np.uint16) for _ in range(count))
        s = PixelSequence(frames, 10)
        sampled, info = temporal_resample_scalar(s, ratio)
        back = temporal_restore(sampled, info)
        assert len(back) == count
        for i in range(0, count, ratio):
            np.testing.assert_array_equal(back.frames[i], frames[i])


class TestSideInfo:
    def test_serialization_roundtrip(self):
        info = TemporalSideInfo(4, 1234)
        assert TemporalSideInfo.parse(info.serialize()) == info

    def test_parse_truncated(self):
        from fcmcodec.errors import TruncatedError

        with pytest.raises(TruncatedError):
            TemporalSideInfo.parse(b"\x02\x00")

    @pytest.mark.parametrize("ratio,count", [(2.0, 4), (2, 2**32), (2, 2**33), (2, 4.0), (2, True)])
    def test_field_that_is_not_a_u8_ratio_or_u32_count_refused(self, ratio, count):
        # Each was built; serialize raised struct.error on all but the last,
        # which it wrote as a count of 1.
        with pytest.raises(DomainError):
            TemporalSideInfo(ratio, count)

    def test_parse_trailing_bytes(self):
        with pytest.raises(InvariantError, match="1 trailing bytes"):
            TemporalSideInfo.parse(TemporalSideInfo(4, 9).serialize() + b"\x00")
