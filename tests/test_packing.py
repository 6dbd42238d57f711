import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcmcodec import FeatureTensor, PackingLayout, pack, unpack
from fcmcodec.errors import DomainError

from helpers import random_tensor


class TestPack:
    def test_perfect_square_grid(self, rng):
        t = random_tensor(rng, channels=4, height=2, width=2)
        frame, layout = pack(t)
        assert (layout.grid_rows, layout.grid_cols) == (2, 2)
        assert frame.shape == (4, 4)
        np.testing.assert_array_equal(frame[:2, :2], t.data[0])
        np.testing.assert_array_equal(frame[2:, 2:], t.data[3])

    def test_pad_tile_is_tensor_mean(self, rng):
        t = random_tensor(rng, channels=3, height=2, width=2)
        frame, layout = pack(t)
        assert (layout.grid_rows, layout.grid_cols) == (2, 2)
        mean = np.float32(t.data.astype(np.float64).mean())
        np.testing.assert_array_equal(frame[2:, 2:], np.full((2, 2), mean))

    def test_single_channel_identity(self, rng):
        t = random_tensor(rng, channels=1, height=5, width=7)
        frame, layout = pack(t)
        assert frame.shape == (5, 7)
        np.testing.assert_array_equal(frame, t.data[0])


class TestUnpack:
    def test_roundtrip(self, rng):
        t = random_tensor(rng, channels=6, height=4, width=4)
        frame, layout = pack(t)
        np.testing.assert_array_equal(unpack(frame, layout).data, t.data)

    def test_pad_tile_ignored(self, rng):
        t = random_tensor(rng, channels=3, height=2, width=2)
        frame, layout = pack(t)
        frame = frame.copy()
        frame[2:, 2:] = 99.0
        np.testing.assert_array_equal(unpack(frame, layout).data, t.data)

    def test_impossible_layout(self):
        with pytest.raises(DomainError):
            PackingLayout(2, 2, 2, 2, 5)

    def test_dims_mismatch(self, rng):
        _, layout = pack(random_tensor(rng, channels=4, height=2, width=2))
        with pytest.raises(DomainError):
            unpack(np.zeros((3, 4), np.float32), layout)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_roundtrip_random_shapes(self, seed):
        rng = np.random.default_rng(seed)
        c = int(rng.integers(1, 65))
        h = int(rng.integers(1, 33))
        w = int(rng.integers(1, 33))
        t = FeatureTensor(rng.normal(size=(c, h, w)).astype(np.float32))
        frame, layout = pack(t)
        np.testing.assert_array_equal(unpack(frame, layout).data, t.data)
        # near-square grid keeps overhead under 2x
        assert frame.size >= c * h * w
        assert frame.size / (c * h * w) < 2.0
