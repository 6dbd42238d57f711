"""End-to-end encoder and decoder orchestration.

Encoder, per tensor: capture global stats, mean-pool by the factor the
configured transform names in `bitstream.TRANSFORMS` (factor 1 passes the
tensor through), prune low-energy channels, pack, quantize, inner-codec
encode, emit one unit. Decoder, per unit: inner-codec decode, unpack the
integer tiles, take their exact moments, dequantize them onto [0, 1], restore
pruned channels, repeat samples by the unit's transform factor, refine onto
the transmitted global stats.

A unit needs to carry neither the quantizer range nor the stats of the kept
channels. Mapping the samples onto either is a positive affine map; restoring
fills pruned channels with the kept mean and the repeat copies samples, so
such a map commutes with both, and the refinement cancels it.

The same argument gives the statistics the refinement starts from, so the
decoder never measures its float buffer. It takes the mean m and deviation s
of the kept samples on [0, 1] from exact integer moments of the unpacked
tiles (conversion.dequantized_stats). With c of N channels kept, restoring
fills the others with m, which leaves the mean at m and scales the variance
by c / N; repeating changes neither. The refinement maps the buffer from
(m, s * sqrt(c / N)) onto the transmitted pair.

The decoder is one chain of calls that rebinds a single name, so each
intermediate is freed once the next stage has returned, and it computes
nothing the output does not need. It holds one float32 buffer per unit:
unpacking comes first, so the pad tiles are dropped while the samples are
still 16-bit integers; dequantizing makes the buffer; restoring and repeating
pass it through or replace it; and the refinement writes its affine map, a
subtract, a multiply and an add per sample, back into it in float32, before
it becomes the output tensor's read-only data. Only where the output could
near float32's range are the map's gain and addend scaled by a power of two;
there a sample the map takes past float32's max by at most an ulp becomes
that max.

The output is close to, not bit for bit, that of a decoder that measures
each stage's float32 buffer in float64, as the staged reference in the tests
does: the moments are those of the exact quotients q / (2^n - 1), not of
their float32 roundings, and the map rounds in float32. On perfbench's
workloads the output differs from such a decoder's, with its maps in
float64, by at most 2.2e-7 of each tensor's largest magnitude, and from
this decoder's with a float64 map by at most 1.1e-7.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bitstream import TRANSFORMS, UnitHeader, check_element_cap, parse_stream, serialize_stream
from .channels import PruneDecision, check_prune_ratio, prune_channels, restore_channels, score_channels, select_pruned
from .codec import CodecId, check_qp, codec_decode, codec_encode, codec_id, sample_max
from .conversion import dequantize_frame, dequantized_stats, quantize_frame
from .errors import DomainError, FcmError, InvariantError, integer_in
from .lcr import LcrCode, lcr_decode, lcr_encode
from .packing import pack, unpack
from .tensor import FeatureTensor, GlobalStats, TensorGroup, _float64_chunks, apply_refinement, compute_global_stats


def _meanpool(t: FeatureTensor, factor: int) -> FeatureTensor:
    """Mean-pool each spatial axis by factor; factor 1 is the identity."""
    if factor == 1:
        return t
    if t.height % factor or t.width % factor:
        raise DomainError(f"pooling by {factor} needs spatial dimensions divisible by {factor}")
    c, h, w = t.shape
    pooled = np.empty((c, h // factor, w // factor), dtype=np.float32)
    # Each output is the float64 mean of its window, a float64 chunk of
    # channels at a time.
    for x, out in _float64_chunks(t.data.reshape(c, -1), pooled.reshape(c, -1)):
        windows = x.reshape(-1, h // factor, factor, w // factor, factor)
        out[...] = windows.mean(axis=(2, 4)).reshape(len(out), -1)
    return FeatureTensor(pooled)


def _repeat(x: np.ndarray, factor: int) -> np.ndarray:
    """Repeat each sample of the C x H x W array x factor times along each
    spatial axis: x itself for factor 1, else one new array, made with no
    intermediate one."""
    if factor == 1:
        return x
    c, h, w = x.shape
    out = np.empty((c, h, factor, w, factor), dtype=x.dtype)
    out[...] = x[:, :, None, :, None]
    return out.reshape(c, factor * h, factor * w)


@dataclass(frozen=True)
class EncoderConfig:
    prune_ratio: float = 0.0
    bit_depth: int = 10
    codec: CodecId = CodecId.RAW_LOSSLESS
    qp: int = 22
    transform: str = "identity"

    def __post_init__(self):
        check_prune_ratio(self.prune_ratio)
        sample_max(self.bit_depth)
        check_qp(self.qp)
        codec_id(self.codec)
        if not (isinstance(self.transform, str) and self.transform in TRANSFORMS):
            raise DomainError(f"unknown transform {self.transform!r}")


def _encode_one(t: FeatureTensor, label: str, cfg: EncoderConfig) -> tuple[UnitHeader, bytes]:
    stats = compute_global_stats(t)
    xt = _meanpool(t, TRANSFORMS[cfg.transform])

    decision = select_pruned(score_channels(xt), cfg.prune_ratio)
    frame, layout = pack(prune_channels(xt, decision))
    # Built and sized before any coding, so a tensor the header cannot carry,
    # or that the decoder would refuse to size, costs none.
    header = UnitHeader(
        original_channels=xt.channels,
        pruned_k=len(decision.pruned),
        lcr_rank=lcr_encode(decision.pruned).rank,
        transform_stats=stats,
        bit_depth=cfg.bit_depth,
        tile_h=layout.tile_h,
        tile_w=layout.tile_w,
        transform_id=list(TRANSFORMS).index(cfg.transform),
        label=label,
        codec=int(cfg.codec),
    )
    check_element_cap(header, DomainError)
    frame, _ = quantize_frame(frame, cfg.bit_depth)
    return header, codec_encode(frame, cfg.codec, cfg.qp, cfg.bit_depth)


def fcm_encode(group: TensorGroup, cfg: EncoderConfig, workers: int = 1) -> bytes:
    """Encode a tensor group into one FCMB stream (deterministic byte output).

    Units are always emitted in input order, so the stream is byte-identical
    for any worker count, an integer of at least 1.
    """
    workers = integer_in(workers, "workers", 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            units = list(pool.map(lambda t, label: _encode_one(t, label, cfg), group.tensors, group.labels))
    else:
        units = [_encode_one(t, label, cfg) for t, label in zip(group.tensors, group.labels)]
    return serialize_stream(units)


def _decode_one(header: UnitHeader, payload: bytes) -> FeatureTensor:
    lay = header.layout
    x = codec_decode(payload, header.codec, header.bit_depth, (lay.frame_height, lay.frame_width))
    x = unpack(x, lay)
    kept = dequantized_stats(x, header.bit_depth)
    x = dequantize_frame(x, header.bit_depth)
    decision = PruneDecision(lcr_decode(LcrCode(header.pruned_k, header.lcr_rank), header.original_channels))
    x = restore_channels(x, decision, np.float32(kept.mu))
    x = _repeat(x, TRANSFORMS[header.transform])
    current = GlobalStats(kept.mu, kept.sigma * math.sqrt(decision.kept_count / decision.total_channels))
    return apply_refinement(x, current, header.transform_stats)


def fcm_decode(data: bytes) -> TensorGroup:
    """Decode an FCMB stream into the labelled tensor group it carries."""
    units = parse_stream(data)
    tensors = []
    for i, (header, payload) in enumerate(units):
        try:
            tensors.append(_decode_one(header, payload))
        except FcmError as exc:
            # Every argument of a unit's decode comes from the stream, so a
            # domain error there is malformed input too.
            cls = InvariantError if isinstance(exc, DomainError) else type(exc)
            raise cls(f"unit {i}: {exc}") from exc
    return TensorGroup(tuple(tensors), tuple(header.label for header, _ in units))
