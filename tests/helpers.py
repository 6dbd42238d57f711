"""Helpers shared by test modules, imported as `from helpers import ...`.

They live outside conftest.py because a session that also collects
perfbench/tests imports that directory's conftest under the same module name.
"""

import struct
import zlib

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
        q = codec_decode(payload, h.codec, h.bit_depth, (layout.frame_height, layout.frame_width))
        if lo == hi:
            x = np.full(q.shape, lo, dtype=np.float32)
        else:
            x = q.astype(np.float64)
            x /= (1 << h.bit_depth) - 1
            x *= hi - lo
            x += lo
        x = unpack(x.astype(np.float32), layout)
        x = apply_refinement(x, _as_sent(compute_global_stats(reduced))).data.copy()
        x = restore_channels(x, decision)
        x = _repeat(x, factor)
        spread = compute_global_stats(FeatureTensor(x.copy())).sigma
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


class DeflateBits:
    """A deflate bit string under construction (RFC 1951 3.1.1): fields are
    packed from the least significant bit of each byte on, and a Huffman
    code from its most significant bit."""

    def __init__(self):
        self._value = 0
        self.length = 0  # bits written

    def bits(self, value: int, count: int) -> "DeflateBits":
        self._value |= value << self.length
        self.length += count
        return self

    def code(self, code: int, length: int) -> "DeflateBits":
        return self.bits(int(format(code, f"0{length}b")[::-1], 2), length)

    def getvalue(self) -> bytes:
        """The bits, padded with zero bits to a byte."""
        return self._value.to_bytes(-(-self.length // 8), "little")


def fixed_code(symbol: int) -> tuple[int, int]:
    """(code, length) of a literal/length symbol in deflate's fixed Huffman
    code (RFC 1951 3.2.6)."""
    if symbol < 144:
        return 0x30 + symbol, 8
    if symbol < 256:
        return 0x190 + symbol - 144, 9
    if symbol < 280:
        return symbol - 256, 7
    return 0xC0 + symbol - 280, 8


def fixed_block(w: DeflateBits, value: int, count: int, final: bool) -> None:
    """A fixed-Huffman block of count bytes equal to value: a literal, then
    matches of 258 bytes at distance 1, then literals."""
    w.bits(final, 1).bits(1, 2).code(*fixed_code(value))
    for _ in range((count - 1) // 258):
        w.code(*fixed_code(285)).code(0, 5)  # length 258, distance code 0
    for _ in range((count - 1) % 258):
        w.code(*fixed_code(value))
    w.code(*fixed_code(256))


def canonical_code(lengths: dict[int, int]) -> dict[int, tuple[int, int]]:
    """symbol -> (code, length) of the canonical Huffman code with these
    nonzero code lengths (RFC 1951 3.2.2)."""
    out, code = {}, 0
    for length in range(1, 16):
        for symbol in sorted(s for s, n in lengths.items() if n == length):
            out[symbol] = (code, length)
            code += 1
        code <<= 1
    return out


# The order in which a dynamic block header sends the code-length code's lengths.
_CODE_LENGTH_ORDER = (16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15)


def dynamic_header(w: DeflateBits, final: bool, nlen: int, ndist: int, lengths: dict[int, int]) -> dict:
    """A dynamic block's header up to its code lengths, with a code-length
    code of these lengths; returns that code."""
    hclen = max(_CODE_LENGTH_ORDER.index(s) for s in lengths) + 1
    w.bits(final, 1).bits(2, 2).bits(nlen - 257, 5).bits(ndist - 1, 5).bits(hclen - 4, 4)
    for symbol in _CODE_LENGTH_ORDER[:hclen]:
        w.bits(lengths.get(symbol, 0), 3)
    return canonical_code(lengths)


FLUSH_MARKER = b"\x00\x00\xff\xff"

# Two pieces of 262,144 and 262,146 bytes.
FAKE_BOUNDARY_SHAPE = (1, (1 << 18) + 1)


def fake_boundary_payload(final: bool) -> tuple[bytes, np.ndarray]:
    """A RAW_LOSSLESS payload of FAKE_BOUNDARY_SHAPE that zlib refuses, with
    the one flush marker of a 2-piece frame inside the code lengths of a
    dynamic block header; and the frame that a fresh inflater per piece reads.

    Piece 0 holds a fixed-Huffman block of its 262,144 bytes, then the
    dynamic block, which is final if final is. Its code-length code is
    0 -> "0", 1 -> "10" and a repeat code "11" (16 if final, else 17). The
    marker's zeros are 16 zero lengths, and its ones repeat codes.
    - final: the marker's ones are four "11"+"11", 24 zero lengths, and
      literals 0..255 are coded with literal 0 alone of length 1. The empty
      final stored block F completes the header: "10" gives the end-of-block
      code length 1, then 34 zero lengths; its last byte holds end-of-block,
      "1", so F reaches the end with no byte left. The longer probe L codes
      too many lengths.
    - not final: the marker's ones are three "11"+"111", 30 zero lengths,
      and a last "1". The longer probe L's first bit, 0, completes it to
      "10", the end-of-block code length 1; its next bit makes the one
      distance length 0, and its third is end-of-block, which alone has a
      code, "0". The next block header, 000, starts a stored block whose
      LEN and NLEN are the rest of L's first empty stored block, and L's
      other blocks end the stream with no byte left. F codes too many
      lengths.
    Piece 1 is a non-final fixed-Huffman block of 262,146 bytes of 0xC8, an
    empty final fixed block and the frame's Adler-32. Read on from piece 0,
    its first bits leave end-of-block with no code (final), or end the header
    where a literal's first bit, 1, has no code (not final).
    """
    w = DeflateBits()
    fixed_block(w, 0x11, 1 << 18, final=False)
    repeat, nlen, ndist = (16, 261, 30) if final else (17, 257, 1)
    cl = dynamic_header(w, final, nlen, ndist, {0: 1, 1: 2, repeat: 2})
    if final:
        w.code(*cl[1])  # literal 0
    # The zero lengths of the other literals before the marker's, coded "0",
    # but for a few repeats of 3 (16) or 4 (17) zeros, each a bit longer than
    # as many "0"s, that bring the marker to a byte.
    zeros = 215 if final else 210
    repeats = -(w.length + zeros) % 8
    w.code(*cl[0])
    for _ in range(repeats):
        w.code(*cl[repeat]).bits(0 if final else 1, 2 if final else 3)
    for _ in range(zeros - 1 - repeats * (3 if final else 4)):
        w.code(*cl[0])
    assert w.length % 8 == 0
    first = w.getvalue() + FLUSH_MARKER

    w = DeflateBits()
    fixed_block(w, 0xC8, (1 << 18) + 2, final=False)
    w.bits(1, 1).bits(1, 2).code(*fixed_code(256))  # an empty final fixed block
    data = bytes([0x11]) * (1 << 18) + bytes([0xC8]) * ((1 << 18) + 2)
    payload = b"\x78\x01" + first + w.getvalue() + zlib.adler32(data).to_bytes(4, "big")
    assert payload.count(FLUSH_MARKER) == 1
    return payload, np.frombuffer(data, dtype="<u2").reshape(FAKE_BOUNDARY_SHAPE)
