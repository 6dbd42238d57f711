import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcmcodec import FeatureTensor, PackingLayout, pack
from fcmcodec.errors import DomainError
from fcmcodec.packing import unpack

from helpers import random_tensor


def reference_pack(t: FeatureTensor) -> np.ndarray:
    """The frame by one copy per channel, as pack once built it."""
    layout = PackingLayout(t.channels, t.height, t.width)
    mean = np.float32(t.data.astype(np.float64).mean())
    frame = np.full((layout.frame_height, layout.frame_width), mean, dtype=np.float32)
    for i in range(t.channels):
        r, col = divmod(i, layout.grid_cols)
        frame[r * t.height : (r + 1) * t.height, col * t.width : (col + 1) * t.width] = t.data[i]
    return frame


def reference_unpack(frame: np.ndarray, layout: PackingLayout) -> np.ndarray:
    th, tw = layout.tile_h, layout.tile_w
    out = np.empty((layout.channel_count, th, tw), dtype=np.float32)
    for i in range(layout.channel_count):
        r, col = divmod(i, layout.grid_cols)
        out[i] = frame[r * th : (r + 1) * th, col * tw : (col + 1) * tw]
    return out


# Channel counts with 0 (1, 4, 9, 16), 1 (3, 5), 2 (7, 10, 130) and 3 (17)
# pad tiles.
@pytest.mark.parametrize("channels", [1, 3, 4, 5, 7, 9, 10, 16, 17, 130])
def test_pack_and_unpack_match_the_per_channel_copies(rng, channels):
    t = random_tensor(rng, channels=channels, height=3, width=5)
    frame, layout = pack(t)
    expected = reference_pack(t)
    assert frame.dtype == expected.dtype and frame.tobytes() == expected.tobytes()
    noisy = frame + rng.normal(size=frame.shape).astype(np.float32)  # pad tiles too
    back = unpack(noisy, layout)
    expected = reference_unpack(noisy, layout)
    assert back.dtype == expected.dtype and back.tobytes() == expected.tobytes()


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
        np.testing.assert_array_equal(unpack(frame, layout), t.data)

    def test_pad_tile_ignored(self, rng):
        t = random_tensor(rng, channels=3, height=2, width=2)
        frame, layout = pack(t)
        frame = frame.copy()
        frame[2:, 2:] = 99.0
        np.testing.assert_array_equal(unpack(frame, layout), t.data)

    def test_impossible_layout(self):
        # (2.5, 2, 2) was accepted, and its frame_height was a float.
        for dims in ((0, 2, 2), (5, 0, 2), (5, 2, 0), (2.5, 2, 2)):
            with pytest.raises(DomainError):
                PackingLayout(*dims)

    def test_integer_frame_keeps_its_dtype(self):
        layout = PackingLayout(3, 2, 2)
        frame = np.arange(16, dtype=np.uint16).reshape(4, 4)
        out = unpack(frame, layout)
        assert out.dtype == np.uint16
        np.testing.assert_array_equal(out, reference_unpack(frame, layout))
        assert not np.shares_memory(out, frame)

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
        np.testing.assert_array_equal(unpack(frame, layout), t.data)
        # near-square grid keeps overhead under 2x
        assert frame.size >= c * h * w
        assert frame.size / (c * h * w) < 2.0
