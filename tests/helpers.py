"""Helpers shared by test modules, imported as `from helpers import ...`.

They live outside conftest.py because a session that also collects
perfbench/tests imports that directory's conftest under the same module name.
"""

import struct

import numpy as np
import pytest

import fcmcodec.pipeline
from fcmcodec import (
    CodecId,
    EncoderConfig,
    FeatureTensor,
    TensorGroup,
    compute_global_stats,
    fcm_encode,
    parse_stream,
)


def random_tensor(rng, channels=None, height=None, width=None, mu=0.0, sigma=1.0):
    c = channels or int(rng.integers(1, 9))
    h = height or int(rng.integers(2, 17))
    w = width or int(rng.integers(2, 17))
    return FeatureTensor(rng.normal(mu, sigma, (c, h, w)).astype(np.float32))


def random_group(rng, count=None, **kwargs):
    n = count or int(rng.integers(1, 5))
    return TensorGroup(tuple(random_tensor(rng, **kwargs) for _ in range(n)))


def record_refinements(monkeypatch) -> list:
    """Wrap the decoder's refinement binding; the returned list fills with one
    (target stats, stats of the output) pair per pass, in call order."""
    passes = []
    refine = fcmcodec.pipeline.apply_refinement

    def recorded(t, target):
        out = refine(t, target)
        passes.append((target, compute_global_stats(out)))
        return out

    monkeypatch.setattr(fcmcodec.pipeline, "apply_refinement", recorded)
    return passes


def assert_refined(passes, stream, mu_abs=1e-12):
    """Decoding stream ran exactly two refinement passes per unit, onto its
    reduced stats and then its global stats, and each pass's output is within
    1e-4 of its target (mu_abs defaults to pytest.approx's own)."""
    targets = [s for h, _ in parse_stream(stream) for s in (h.reduced_stats, h.transform_stats)]
    assert [target for target, _ in passes] == targets
    for target, achieved in passes:
        assert achieved.mu == pytest.approx(target.mu, rel=1e-4, abs=mu_abs)
        assert achieved.sigma == pytest.approx(target.sigma, rel=1e-4)


def relabelled(stream: bytes, offset: int, fmt: str, value: int) -> bytes:
    """stream with one field of its first unit (at offset into it) rewritten."""
    blob = bytearray(stream)
    struct.pack_into(fmt, blob, 6 + offset, value)
    return bytes(blob)


# (channels, prune ratio, declared N): 5 packed channels with N = 7 and no
# pruning, and 6 packed channels with N = 9 and 2 pruned.
CHANNEL_MISMATCHES = [(5, 0.0, 7), (8, 0.25, 9)]


def channel_mismatch_stream(channels: int, ratio: float, declared: int) -> bytes:
    t = FeatureTensor(np.random.default_rng(channels).normal(size=(channels, 8, 8)).astype(np.float32))
    return relabelled(fcm_encode(TensorGroup((t,)), EncoderConfig(prune_ratio=ratio)), 0, "<H", declared)


def depth_relabelled_stream(codec: CodecId) -> bytes:
    """A 16-bit stream whose header claims 8 bits (prune 0: no rank bytes)."""
    t = FeatureTensor(np.random.default_rng(16).normal(size=(2, 8, 8)).astype(np.float32))
    stream = fcm_encode(TensorGroup((t,)), EncoderConfig(codec=codec, qp=4, bit_depth=16))
    return relabelled(stream, 22, "<B", 8)  # after N, k, rank length, two stats pairs
