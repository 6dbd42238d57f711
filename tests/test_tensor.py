import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcmcodec import (
    FeatureTensor,
    GlobalStats,
    TensorGroup,
    compute_global_stats,
    read_tensor_file,
    write_tensor_file,
)
from fcmcodec.errors import DomainError, MagicMismatchError, TruncatedError, VersionError
from fcmcodec.tensor import _CHUNK, apply_refinement

from helpers import random_group, random_tensor


def tensor_of(values, shape):
    return FeatureTensor(np.asarray(values, dtype=np.float32).reshape(shape))


class TestGlobalStats:
    def test_all_zero(self):
        s = compute_global_stats(tensor_of([0.0] * 8, (2, 2, 2)))
        assert s.mu == 0.0 and s.sigma == 0.0

    def test_constant(self):
        s = compute_global_stats(tensor_of([7.0] * 8, (2, 2, 2)))
        assert s.mu == pytest.approx(7.0) and s.sigma == pytest.approx(0.0)

    def test_small_known(self):
        s = compute_global_stats(tensor_of([1, 2, 3, 4], (1, 2, 2)))
        assert s.mu == pytest.approx(2.5)
        # population std of {1,2,3,4}: sqrt(1.25)
        assert s.sigma == pytest.approx(1.118034, abs=1e-6)

    def test_population_not_sample_std(self):
        data = np.asarray([1, 2, 3, 4], dtype=np.float64)
        expected = math.sqrt(np.mean((data - data.mean()) ** 2))
        s = compute_global_stats(tensor_of(data, (1, 2, 2)))
        assert s.sigma == pytest.approx(expected)

    def test_permutation_invariant(self, rng):
        t = random_tensor(rng, channels=3, height=5, width=7)
        perm = rng.permutation(t.data.ravel()).reshape(t.shape)
        a = compute_global_stats(t)
        b = compute_global_stats(FeatureTensor(perm))
        assert a.mu == pytest.approx(b.mu, rel=1e-12)
        assert a.sigma == pytest.approx(b.sigma, rel=1e-12)


def buffer_of(values, shape):
    return np.asarray(values, dtype=np.float32).reshape(shape)


class TestRefinement:
    def test_affine_map(self):
        x = buffer_of([-1.0, 1.0], (1, 1, 2))  # stats (0, 1)
        out = apply_refinement(x, GlobalStats(3.0, 2.0))
        np.testing.assert_allclose(out.data.ravel(), [1.0, 5.0], atol=1e-6)

    def test_own_stats_is_identity(self, rng):
        t = random_tensor(rng)
        out = apply_refinement(t.data.copy(), compute_global_stats(t))
        np.testing.assert_allclose(out.data, t.data, atol=1e-5)

    def test_normalize_known(self):
        x = buffer_of([1.0, 2.0, 3.0], (1, 1, 3))
        out = apply_refinement(x, GlobalStats(0.0, 1.0))
        np.testing.assert_allclose(
            out.data.ravel(), [-1.224745, 0.0, 1.224745], atol=1e-6
        )

    def test_zero_spread_input(self):
        x = buffer_of([4.0] * 6, (1, 2, 3))
        out = apply_refinement(x, GlobalStats(2.5, 3.0))
        np.testing.assert_array_equal(out.data, np.full((1, 2, 3), 2.5, np.float32))
        assert np.shares_memory(out.data, x)

    @given(st.integers(0, 2**32 - 1), st.floats(-50, 50), st.floats(0.01, 20))
    @settings(max_examples=100, deadline=None)
    def test_stats_forced_onto_target(self, seed, mu, sigma):
        t = random_tensor(np.random.default_rng(seed))
        out = compute_global_stats(apply_refinement(t.data.copy(), GlobalStats(mu, sigma)))
        assert out.mu == pytest.approx(mu, rel=1e-4, abs=1e-4)
        assert out.sigma == pytest.approx(sigma, rel=1e-4)

    def test_idempotent(self, rng):
        target = GlobalStats(1.5, 0.7)
        once = apply_refinement(random_tensor(rng).data.copy(), target)
        twice = apply_refinement(once.data.copy(), target)
        assert np.max(np.abs(twice.data - once.data)) <= 1e-5

    def test_writes_into_the_buffer_it_is_given(self, rng):
        x = random_tensor(rng).data.copy()
        out = apply_refinement(x, GlobalStats(1.5, 0.7))
        assert np.shares_memory(out.data, x)
        # the buffer is now the tensor's data, and as read-only as it
        assert not x.flags.writeable

    @pytest.mark.parametrize(
        "x",
        [
            np.ones((2, 3, 4), np.float64),
            np.ones((2, 3), np.float32),
            np.ones((0, 3, 4), np.float32),
            np.ones((2, 3, 4), np.float32).transpose(2, 1, 0),
        ],
        ids=["float64", "2-d", "empty", "not-contiguous"],
    )
    def test_refuses_a_buffer_it_cannot_write_as_the_tensor(self, x):
        with pytest.raises(DomainError):
            apply_refinement(x, GlobalStats(0.0, 1.0))

    def test_refuses_a_tensors_data(self, rng):
        """A FeatureTensor's data is read-only: refining it would change the
        tensor, so the caller must hand over a copy."""
        t = random_tensor(rng)
        before = t.data.copy()
        with pytest.raises(DomainError):
            apply_refinement(t.data, GlobalStats(0.0, 1.0))
        np.testing.assert_array_equal(t.data, before)


class TestValidation:
    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            FeatureTensor(np.asarray([[[np.nan]]], dtype=np.float32))

    @pytest.mark.parametrize("at", [0, _CHUNK - 1, _CHUNK, 2 * _CHUNK + 6])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_in_any_chunk(self, at, value):
        data = np.zeros((1, 7, _CHUNK // 3), dtype=np.float32)
        data.reshape(-1)[at] = value
        with pytest.raises(DomainError, match="non-finite"):
            FeatureTensor(data)

    def test_rejects_wrong_rank(self):
        with pytest.raises(DomainError):
            FeatureTensor(np.zeros((2, 2), dtype=np.float32))

    def test_label_not_utf8_encodable(self, rng):
        with pytest.raises(DomainError, match="UTF-8"):
            TensorGroup((random_tensor(rng),), ("\ud800",))

    def test_group_size_limits(self, rng):
        with pytest.raises(DomainError):
            TensorGroup(())
        with pytest.raises(DomainError):
            TensorGroup(tuple(random_tensor(rng) for _ in range(9)))


class TestTensorFile:
    def test_roundtrip_single(self, tmp_path):
        t = tensor_of(np.arange(24), (2, 3, 4))
        path = tmp_path / "t.ftns"
        write_tensor_file(path, TensorGroup((t,)))
        back = read_tensor_file(path)
        np.testing.assert_array_equal(back.tensors[0].data, t.data)

    def test_labels_and_order_preserved(self, tmp_path, rng):
        group = TensorGroup(
            tuple(random_tensor(rng) for _ in range(4)), ("p2", "p3", "p4", "p5")
        )
        path = tmp_path / "g.ftns"
        write_tensor_file(path, group)
        back = read_tensor_file(path)
        assert back.labels == ("p2", "p3", "p4", "p5")
        for a, b in zip(group.tensors, back.tensors):
            np.testing.assert_array_equal(a.data, b.data)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.ftns"
        path.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(MagicMismatchError):
            read_tensor_file(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "bad.ftns"
        path.write_bytes(b"FTNS\x02\x01")
        with pytest.raises(VersionError):
            read_tensor_file(path)

    def test_truncated(self, tmp_path, rng):
        path = tmp_path / "t.ftns"
        write_tensor_file(path, TensorGroup((random_tensor(rng),)))
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        with pytest.raises(TruncatedError):
            read_tensor_file(path)

    def test_many_random_roundtrips(self, tmp_path, rng):
        for i in range(1000):
            # A new file each time: rewriting one costs far more on some file
            # systems.
            path = tmp_path / f"r{i}.ftns"
            group = random_group(rng)
            write_tensor_file(path, group)
            back = read_tensor_file(path)
            assert back.labels == group.labels
            for a, b in zip(group.tensors, back.tensors):
                assert a.data.tobytes() == b.data.tobytes()
