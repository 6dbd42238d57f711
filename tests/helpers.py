"""Helpers shared by test modules, imported as `from helpers import ...`.

They live outside conftest.py because a session that also collects
perfbench/tests imports that directory's conftest under the same module name.
"""

import struct
import zlib
from itertools import accumulate

import numpy as np
import pytest

import fcmcodec.codec
import fcmcodec.pipeline
from fcmcodec import (
    TRANSFORMS,
    CodecId,
    EncoderConfig,
    FeatureTensor,
    GlobalStats,
    TensorGroup,
    UnitHeader,
    codec_decode,
    codec_encode,
    compute_global_stats,
    fcm_decode,
    fcm_encode,
    pack,
    parse_stream,
    prune_channels,
    quantize_frame,
    score_channels,
    select_pruned,
    serialize_stream,
)
from fcmcodec.channels import restore_channels
from fcmcodec.packing import unpack
from fcmcodec.pipeline import _meanpool, _repeat
from fcmcodec.tensor import apply_refinement


F32_MAX = float(np.finfo(np.float32).max)


def float64_map(data: np.ndarray, current: GlobalStats, target: GlobalStats) -> np.ndarray:
    """The refinement's map x * gain + offset in float64, not rounded."""
    x = data.astype(np.float64, copy=False)
    if current.sigma == 0.0:
        return np.full(data.shape, target.mu, dtype=np.float64)
    gain = target.sigma / current.sigma
    return x * gain + (target.mu - current.mu * gain)


def reference_refinement(data: np.ndarray, current: GlobalStats, target: GlobalStats, clamp: bool = False) -> np.ndarray:
    """float64_map rounded once to float32; with clamp, first clamped to
    float32's range, so a sample past it becomes float32's max, not inf."""
    out = float64_map(data, current, target)
    if clamp:
        np.clip(out, -F32_MAX, F32_MAX, out=out)
    return out.astype(np.float32)


def float64_refinement(x, current, target):
    """The decoder's refinement before it mapped in float32: x * gain +
    offset in float64, rounded once to float32."""
    with np.errstate(over="ignore", invalid="ignore"):
        return FeatureTensor(reference_refinement(x, current, target))


def clamped_float64_refinement(x, current, target):
    """float64_refinement with each sample clamped to float32's range."""
    with np.errstate(over="ignore", invalid="ignore"):
        return FeatureTensor(reference_refinement(x, current, target, clamp=True))


def within_2_ulps(got: np.ndarray, want: np.ndarray) -> bool:
    """got is within 2 float32 ulps of want's largest magnitude, an ulp
    there taken as float32's epsilon times that magnitude."""
    scale = float(np.abs(want).max()) * float(np.finfo(np.float32).eps)
    return float(np.abs(got.astype(np.float64) - want).max()) <= 2 * scale


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

    def recorded(x, current, target):
        out = refine(x, current, target)
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


def unit_bytes(header: UnitHeader, payload: bytes) -> bytes:
    """The bytes of one unit, as a one-unit stream carries them after its
    6-byte stream head."""
    return serialize_stream([(header, payload)])[6:]


# How far each field starts before the end of a unit's fixed fields, which
# end with the codec id and the u32 payload length; the label's bytes come
# between the transform id and the codec id.
_FIELD_FROM_END = {"codec": 5, "transform_id": 7, "sigma": 16, "mu": 20}


def patched(stream: bytes, unit: int, field: str, fmt: str, value) -> bytes:
    """stream with one header field of one unit rewritten in place, so no
    UnitHeader check runs on the new value before the parser's."""
    units = parse_stream(stream)
    start = 6 + sum(len(unit_bytes(h, p)) for h, p in units[:unit])
    header = units[unit][0]
    end = start + len(unit_bytes(header, b""))
    label = len(header.label.encode("utf-8")) if field in ("transform_id", "sigma", "mu") else 0
    blob = bytearray(stream)
    struct.pack_into(fmt, blob, end - _FIELD_FROM_END[field] - label, value)
    return bytes(blob)


def mutate(rng, data: bytes) -> bytes:
    """data cut short, with bytes overwritten, with a bit flipped or with
    random bytes appended, one of the four at random."""
    blob = bytearray(data)
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return bytes(blob[: int(rng.integers(0, len(blob) + 1))])
    if kind == 1:
        for _ in range(int(rng.integers(1, 5))):
            blob[int(rng.integers(0, len(blob)))] = int(rng.integers(0, 256))
    elif kind == 2:
        i = int(rng.integers(0, len(blob)))
        blob[i] ^= 1 << int(rng.integers(0, 8))
    else:
        blob += rng.integers(0, 256, size=int(rng.integers(1, 12)), dtype=np.uint8).tobytes()
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


def one_tile_stream(channels: int, tile: int, transform: str) -> bytes:
    """A one-unit BLOCK_DCT stream that keeps one tile x tile channel of
    channels, so its packed frame is one tile while its decoded tensor is
    channels x (f * tile) x (f * tile) for the transform's pooling factor f."""
    header = UnitHeader(
        original_channels=channels,
        pruned_k=channels - 1,
        lcr_rank=0,
        transform_stats=GlobalStats(0.0, 1.0),
        bit_depth=10,
        tile_h=tile,
        tile_w=tile,
        transform_id=list(TRANSFORMS).index(transform),
        label="",
        codec=int(CodecId.BLOCK_DCT),
    )
    payload = codec_encode(np.zeros((tile, tile), np.uint16), CodecId.BLOCK_DCT, qp=22, bit_depth=10)
    return serialize_stream([(header, payload)])


def with_payload_qp(stream: bytes, unit: int, qp: int) -> bytes:
    """A BLOCK_DCT stream with the qp byte of one unit's payload rewritten."""
    units = [(h, bytearray(p)) for h, p in parse_stream(stream)]
    units[unit][1][0] = qp
    return serialize_stream(units)


def _as_sent(stats: GlobalStats) -> GlobalStats:
    """stats as an f32 header field carried them."""
    return GlobalStats(*(float(np.float32(v)) for v in (stats.mu, stats.sigma)))


def _measured(x: np.ndarray) -> GlobalStats:
    """The global stats of the C x H x W float32 array x, measured in float64."""
    return compute_global_stats(FeatureTensor(x.copy()))


def staged_reference_decode(group: TensorGroup, cfg: EncoderConfig, stream: bytes) -> list[tuple[np.ndarray, float]]:
    """Decode the stream that cfg coded group into, with the two-refinement
    chain of FCMB version 3 as the reference for the one-refinement decoder.

    Version 3 units carried the quantizer range and the stats of the kept
    channels; they are computed here from the source, as the encoder did.
    Each unit's frame is dequantized onto that range, unpacked, refined onto
    those stats, restored, inverse transformed and refined onto the global
    stats. Unlike the decoder, each stage measures the stats of its float32
    input: the restore fills with its input's mean, and each refinement
    starts from its input's stats. Returns each tensor with the gain of its
    last refinement, the factor by which that pass scales its input's
    deviations from the mean.
    """
    factor = TRANSFORMS[cfg.transform]
    out = []
    for t, (h, payload) in zip(group.tensors, parse_stream(stream)):
        xt = _meanpool(t, factor)
        decision = select_pruned(score_channels(xt), cfg.prune_ratio)
        reduced = prune_channels(xt, decision)
        frame, layout = pack(reduced)
        _, (lo, hi) = quantize_frame(frame, cfg.bit_depth)
        q = codec_decode(payload, h.codec, h.bit_depth, (layout.frame_height, layout.frame_width))
        if lo == hi:
            x = np.full(q.shape, lo, dtype=np.float32)
        else:
            x = q.astype(np.float64)
            x /= (1 << h.bit_depth) - 1
            x *= hi - lo
            x += lo
        x = unpack(x.astype(np.float32), layout)
        x = apply_refinement(x, _measured(x), _as_sent(compute_global_stats(reduced))).data.copy()
        x = restore_channels(x, decision, np.float32(_measured(x).mu))
        x = _repeat(x, factor)
        current = _measured(x)
        gain = h.transform_stats.sigma / current.sigma if current.sigma else 0.0
        out.append((apply_refinement(x, current, h.transform_stats).data, gain))
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


def piece_sizes(shape) -> list[int]:
    """The byte size of each RAW_LOSSLESS deflate piece of a frame of shape:
    k = ceil(n / 2^19) pieces of its n bytes, cut at samples i * samples // k."""
    samples = shape[0] * shape[1]
    k = -(-2 * samples // fcmcodec.codec._RAW_PIECE)
    return [2 * ((i + 1) * samples // k - i * samples // k) for i in range(k)]


def frame_pieces(frame: np.ndarray) -> list[bytes]:
    """The little-endian u16 bytes of frame, cut into its pieces."""
    raw = frame.astype("<u2").tobytes()
    ends = list(accumulate(piece_sizes(frame.shape), initial=0))
    return [raw[a:b] for a, b in zip(ends, ends[1:])]


def raw_deflate(data: bytes, level: int = 6, end: int = zlib.Z_FINISH) -> bytes:
    """data as a zlib stream of zlib's default strategy, flushed by end."""
    deflate = zlib.compressobj(level)
    return deflate.compress(data) + deflate.flush(end)


def raw_payload(pieces: list[bytes]) -> bytes:
    """A RAW_LOSSLESS payload of these zlib pieces: the u32 little-endian
    length of every piece but the last, then the pieces."""
    return b"".join([*(len(piece).to_bytes(4, "little") for piece in pieces[:-1]), *pieces])
