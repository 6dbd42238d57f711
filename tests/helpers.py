"""Helpers shared by test modules, imported as `from helpers import ...`.

They live outside conftest.py because a session that also collects
perfbench/tests imports that directory's conftest under the same module name.
"""

import struct

import numpy as np
import pytest

import fcmcodec.pipeline
from fcmcodec import (
    TRANSFORMS,
    CodecId,
    EncoderConfig,
    FeatureTensor,
    GlobalStats,
    TensorGroup,
    apply_refinement,
    codec_decode,
    compute_global_stats,
    fcm_decode,
    fcm_encode,
    pack,
    parse_stream,
    prune_channels,
    quantize_frame,
    restore_channels,
    score_channels,
    select_pruned,
    serialize_unit,
    unpack,
)
from fcmcodec.pipeline import _meanpool, _repeat


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
    """Decoding stream ran exactly one refinement pass per unit, onto its
    global stats, and each pass's output is within 1e-4 of its target
    (mu_abs defaults to pytest.approx's own)."""
    targets = [h.transform_stats for h, _ in parse_stream(stream)]
    assert [target for target, _ in passes] == targets
    for target, achieved in passes:
        assert achieved.mu == pytest.approx(target.mu, rel=1e-4, abs=mu_abs)
        assert achieved.sigma == pytest.approx(target.sigma, rel=1e-4)


def relabelled(stream: bytes, offset: int, fmt: str, value: int) -> bytes:
    """stream with one field of its first unit (at offset into it) rewritten."""
    blob = bytearray(stream)
    struct.pack_into(fmt, blob, 6 + offset, value)
    return bytes(blob)


# How far each field starts before the end of a unit's fixed fields, which
# end with the codec id, the qp and the u32 payload length; the label's bytes
# come between the transform id and the codec id.
_FIELD_FROM_END = {"qp": 5, "codec": 6, "transform_id": 8, "sigma": 17, "mu": 21}


def patched(stream: bytes, unit: int, field: str, fmt: str, value) -> bytes:
    """stream with one header field of one unit rewritten in place, so no
    UnitHeader check runs on the new value before the parser's."""
    units = parse_stream(stream)
    start = 6 + sum(len(serialize_unit(h, p)) for h, p in units[:unit])
    header = units[unit][0]
    end = start + len(serialize_unit(header, b""))
    label = len(header.label.encode("utf-8")) if field in ("transform_id", "sigma", "mu") else 0
    blob = bytearray(stream)
    struct.pack_into(fmt, blob, end - _FIELD_FROM_END[field] - label, value)
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
    return relabelled(stream, 14, "<B", 8)  # after N, k, rank length and the stats pair


def _as_sent(stats: GlobalStats) -> GlobalStats:
    """stats as an f32 header field carried them."""
    return GlobalStats(*(float(np.float32(v)) for v in (stats.mu, stats.sigma)))


def staged_reference_decode(group: TensorGroup, cfg: EncoderConfig, stream: bytes) -> list[tuple[np.ndarray, float]]:
    """Decode the stream that cfg coded group into, with the two-refinement
    chain of FCMB version 3 as the reference for the one-refinement decoder.

    Version 3 units carried the quantizer range and the stats of the kept
    channels; they are computed here from the source, as the encoder did.
    Each unit's frame is dequantized onto that range, unpacked, refined onto
    those stats, restored, inverse transformed and refined onto the global
    stats. Returns each tensor with the gain of its last refinement, the
    factor by which that pass scales its input's deviations from the mean.
    """
    factor = TRANSFORMS[cfg.transform]
    out = []
    for t, (h, payload) in zip(group.tensors, parse_stream(stream)):
        xt = _meanpool(t, factor)
        decision = select_pruned(score_channels(xt), cfg.prune_ratio)
        reduced = prune_channels(xt, decision)
        frame, layout = pack(reduced)
        _, (lo, hi) = quantize_frame(frame, cfg.bit_depth)
        q = codec_decode(payload, h.codec, h.qp, h.bit_depth, (layout.frame_height, layout.frame_width))
        if lo == hi:
            x = np.full(q.shape, lo, dtype=np.float32)
        else:
            x = q.astype(np.float64)
            x /= (1 << h.bit_depth) - 1
            x *= hi - lo
            x += lo
        x = unpack(x.astype(np.float32), layout)
        x = apply_refinement(x, _as_sent(compute_global_stats(reduced)))
        x = restore_channels(x, decision)
        x = _repeat(x, factor)
        spread = compute_global_stats(x).sigma
        out.append((apply_refinement(x, h.transform_stats).data, h.transform_stats.sigma / spread if spread else 0.0))
    return out


def assert_matches_staged_reference(group: TensorGroup, cfg: EncoderConfig, rel: float = 1e-6) -> None:
    """fcm_decode of group coded with cfg is within rel of each tensor's
    value range of the staged reference decoder's output, plus 1 + g float32
    ulps of its largest magnitude, g being the gain of the reference's last
    refinement.

    Before its last refinement the reference rounds to float32 twice at the
    tensor's magnitude (dequantize, first refinement), which that pass scales
    by g; each decoder's final rounding adds half an ulp. On a tensor whose
    mean dwarfs its spread, these are more than rel of its range.
    """
    stream = fcm_encode(group, cfg)
    decoded = fcm_decode(stream)
    for got, (want, gain) in zip(decoded.tensors, staged_reference_decode(group, cfg, stream)):
        ulps = (1 + gain) * float(np.spacing(np.abs(want).max()))
        want = want.astype(np.float64)
        err = float(np.max(np.abs(got.data - want)))
        assert err <= rel * float(want.max() - want.min()) + ulps, (err, cfg)
