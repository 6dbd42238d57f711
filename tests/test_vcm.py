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

    @pytest.mark.parametrize("shift", [1, 2, 3])
    def test_truncate_restore_error_exhaustive(self, shift):
        values = np.arange(1024, dtype=np.uint16).reshape(32, 32)
        s = PixelSequence((values,), 10)
        back = bitdepth_restore(bitdepth_truncate(s, shift), shift)
        err = np.abs(back.frames[0].astype(int) - values.astype(int))
        assert err.max() < (1 << shift)


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

    def test_parse_trailing_bytes(self):
        with pytest.raises(InvariantError, match="1 trailing bytes"):
            TemporalSideInfo.parse(TemporalSideInfo(4, 9).serialize() + b"\x00")
