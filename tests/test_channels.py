import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcmcodec import (
    ChannelIndexSet,
    EncoderConfig,
    FeatureTensor,
    PruneDecision,
    prune_channels,
    score_channels,
    select_pruned,
)
from fcmcodec.channels import restore_channels
from fcmcodec.errors import DomainError

from helpers import random_tensor


def decision(indices, n):
    return PruneDecision(ChannelIndexSet(tuple(indices), n))


class TestScoring:
    def test_zero_channel(self):
        t = FeatureTensor(np.zeros((1, 2, 2), np.float32))
        assert score_channels(t) == [0.0]

    def test_constant_channel(self):
        t = FeatureTensor(np.full((1, 3, 3), 2.0, np.float32))
        assert score_channels(t) == [pytest.approx(4.0)]

    def test_known_energy(self):
        t = FeatureTensor(np.asarray([1, 2, 3, 4], np.float32).reshape(1, 2, 2))
        assert score_channels(t) == [pytest.approx(7.5)]


class TestSelection:
    def test_lowest_scores_pruned(self):
        d = select_pruned([5.0, 1.0, 3.0, 2.0], 0.5)
        assert d.pruned.indices == (1, 3)

    def test_zero_ratio(self):
        assert select_pruned([1.0, 2.0], 0.0).pruned.indices == ()

    @pytest.mark.parametrize("ratio", [1.0, "0.5", -0.5, math.nan])
    def test_ratio_outside_0_to_1_refused_by_the_selector_and_the_config_alike(self, ratio):
        # The selector accepted 1.0, a decision prune_channels then refused,
        # and raised a bare TypeError for "0.5".
        message = rf"^prune_ratio must be in \[0, 1\), got {ratio!r}$"
        with pytest.raises(DomainError, match=message):
            select_pruned([1.0, 2.0], ratio)
        with pytest.raises(DomainError, match=message):
            EncoderConfig(prune_ratio=ratio)

    def test_tie_break_lowest_index(self):
        d = select_pruned([2.0, 2.0, 2.0, 2.0], 0.5)
        assert d.pruned.indices == (0, 1)

    @given(
        st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=64),
        st.floats(0, 1, exclude_max=True),
    )
    @settings(max_examples=200, deadline=None)
    def test_count_is_floor_of_ratio(self, scores, ratio):
        import math

        d = select_pruned(scores, ratio)
        assert len(d.pruned) == math.floor(ratio * len(scores))

    def test_against_sort_oracle(self, rng):
        for _ in range(50):
            scores = list(rng.random(int(rng.integers(1, 30))))
            ratio = float(rng.random())
            expected = sorted(
                sorted(range(len(scores)), key=lambda i: (scores[i], i))[
                    : int(np.floor(ratio * len(scores)))
                ]
            )
            assert list(select_pruned(scores, ratio).pruned.indices) == expected


class TestPruneRestore:
    def test_prune_keeps_order_and_data(self, rng):
        t = random_tensor(rng, channels=4)
        out = prune_channels(t, decision([1, 3], 4))
        assert out.channels == 2
        np.testing.assert_array_equal(out.data[0], t.data[0])
        np.testing.assert_array_equal(out.data[1], t.data[2])

    def test_prune_nothing(self, rng):
        t = random_tensor(rng, channels=3)
        assert prune_channels(t, decision([], 3)) is t

    def test_prune_everything_rejected(self, rng):
        t = random_tensor(rng, channels=2)
        with pytest.raises(DomainError):
            prune_channels(t, decision([0, 1], 2))

    def test_mismatched_n_rejected(self, rng):
        with pytest.raises(DomainError):
            prune_channels(random_tensor(rng, channels=3), decision([0], 4))

    def test_restore_fill_is_mean(self):
        kept = np.asarray([[[1.0, 2.0]], [[1.0, 2.0]]], np.float32)  # mean 1.5
        before = kept.copy()
        out = restore_channels(kept, decision([1, 3], 4), np.float32(1.5))
        assert out.shape == (4, 1, 2) and out.dtype == np.float32
        np.testing.assert_array_equal(out[0], kept[0])
        np.testing.assert_array_equal(out[2], kept[1])
        np.testing.assert_array_equal(out[1], np.full((1, 2), 1.5, np.float32))
        np.testing.assert_array_equal(out[3], np.full((1, 2), 1.5, np.float32))
        np.testing.assert_array_equal(kept, before)

    def test_restore_zero_mean(self):
        kept = np.zeros((2, 2, 2), np.float32)
        out = restore_channels(kept, decision([0], 3), np.float32(0.0))
        np.testing.assert_array_equal(out, np.zeros((3, 2, 2), np.float32))

    def test_restore_count_mismatch(self, rng):
        with pytest.raises(DomainError):
            restore_channels(random_tensor(rng, channels=3).data, decision([1], 3), np.float32(0.0))

    def test_restore_nothing_pruned_passes_the_array_through(self, rng):
        kept = random_tensor(rng, channels=3).data
        assert restore_channels(kept, decision([], 3), np.float32(0.0)) is kept

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_preserves_kept_channels(self, seed):
        rng = np.random.default_rng(seed)
        c = int(rng.integers(2, 12))
        t = random_tensor(rng, channels=c)
        k = int(rng.integers(0, c))
        pruned = sorted(rng.choice(c, size=k, replace=False).tolist())
        d = decision(pruned, c)
        restored = restore_channels(prune_channels(t, d).data, d, np.float32(0.0))
        assert len(restored) == c
        keep = [i for i in range(c) if i not in pruned]
        for i in keep:
            np.testing.assert_array_equal(restored[i], t.data[i])
