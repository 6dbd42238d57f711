"""End-to-end encoder and decoder orchestration.

Encoder, per tensor: capture global stats, mean-pool by the factor the
configured transform names in `bitstream.TRANSFORMS` (factor 1 passes the
tensor through), prune low-energy channels, pack, quantize, inner-codec
encode, emit one unit. Decoder, per unit: inner-codec decode, unpack the
integer tiles, dequantize them onto [0, 1], restore pruned channels, repeat
samples by the unit's transform factor, refine onto the transmitted global
stats.

A unit needs to carry neither the quantizer range nor the stats of the kept
channels. Mapping the samples onto either is a positive affine map; restoring
fills pruned channels with the kept mean and the repeat copies samples, so
such a map commutes with both, and the refinement cancels it.

The decoder is one chain of calls that rebinds a single name, so each
intermediate is freed once the next stage has returned, and it computes
nothing the output does not need. It holds one float32 buffer per unit:
unpacking comes first, so the pad tiles are dropped while the samples are
still 16-bit integers; dequantizing makes the buffer; restoring and repeating
pass it through or replace it; and the refinement writes its affine map back
into it, a float64 chunk at a time, before it becomes the output tensor's
read-only data. Each sample sees the same IEEE operations in the same order
as in a decoder that copies at every stage, so the output has the same bits.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bitstream import TRANSFORMS, UnitHeader, check_element_cap, parse_stream, serialize_stream
from .channels import PruneDecision, prune_channels, restore_channels, score_channels, select_pruned
from .codec import CodecId, codec_decode, codec_encode
from .conversion import dequantize_frame, quantize_frame
from .errors import DomainError, FcmError, InvariantError
from .lcr import LcrCode, lcr_decode, lcr_encode
from .packing import pack, unpack
from .tensor import FeatureTensor, TensorGroup, _float64_chunks, apply_refinement, compute_global_stats


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
    spatial axis: x itself for factor 1, else one new array."""
    if factor == 1:
        return x
    return np.repeat(np.repeat(x, factor, axis=1), factor, axis=2)


@dataclass(frozen=True)
class EncoderConfig:
    prune_ratio: float = 0.0
    bit_depth: int = 10
    codec: CodecId = CodecId.RAW_LOSSLESS
    qp: int = 22
    transform: str = "identity"

    def __post_init__(self):
        if not 0.0 <= self.prune_ratio < 1.0:
            raise DomainError(f"prune_ratio must be in [0, 1), got {self.prune_ratio}")
        if not 8 <= self.bit_depth <= 16:
            raise DomainError(f"bit_depth must be in [8, 16], got {self.bit_depth}")
        if not 0 <= self.qp <= 63:
            raise DomainError(f"qp must be in [0, 63], got {self.qp}")
        if self.transform not in TRANSFORMS:
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
    for any worker count.
    """
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
    x = dequantize_frame(x, header.bit_depth)
    pruned = lcr_decode(LcrCode(header.pruned_k, header.lcr_rank), header.original_channels)
    x = restore_channels(x, PruneDecision(pruned))
    x = _repeat(x, TRANSFORMS[header.transform])
    return apply_refinement(x, header.transform_stats)


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
