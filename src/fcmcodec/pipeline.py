"""End-to-end encoder and decoder orchestration.

Encoder, per tensor: capture global stats, forward transform, prune low-energy
channels, capture reduced stats, pack, quantize, inner-codec encode, emit one
unit. Decoder, per unit: inner-codec decode, dequantize, unpack, refine onto
the transmitted reduced stats, restore pruned channels, inverse transform,
refine onto the transmitted global stats. It is one chain of calls that
rebinds a single name, so each intermediate is freed once the next stage has
returned, and it computes nothing the output does not need.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bitstream import UnitHeader, parse_stream, serialize_stream
from .channels import PruneDecision, prune_channels, restore_channels, score_channels, select_pruned
from .codec import CodecId, codec_decode, codec_encode
from .conversion import ConversionParams, dequantize_frame, quantize_frame
from .errors import DomainError, FcmError, InvariantError
from .lcr import LcrCode, lcr_decode, lcr_encode
from .packing import pack, unpack
from .tensor import FeatureTensor, TensorGroup, apply_refinement, compute_global_stats


@dataclass(frozen=True)
class TransformStage:
    """Pluggable dimensionality-reduction hook (forward/inverse pair)."""

    identifier: str
    forward: callable
    inverse: callable


def _meanpool_forward(t: FeatureTensor) -> FeatureTensor:
    if t.height % 2 or t.width % 2:
        raise DomainError("mean-pool transform requires even spatial dimensions")
    x = t.data.astype(np.float64)
    c, h, w = t.shape
    pooled = x.reshape(c, h // 2, 2, w // 2, 2).mean(axis=(2, 4))
    return FeatureTensor(pooled.astype(np.float32))


def _meanpool_inverse(t: FeatureTensor) -> FeatureTensor:
    up = np.repeat(np.repeat(t.data, 2, axis=1), 2, axis=2)
    return FeatureTensor(up)


# A stage's position in this table is the transform id FCMB units carry, so
# new stages go at the end and none is ever removed or reordered.
TRANSFORMS: dict[str, TransformStage] = {
    "identity": TransformStage("identity", lambda t: t, lambda t: t),
    "meanpool2x": TransformStage("meanpool2x", _meanpool_forward, _meanpool_inverse),
}


def transform_stage(transform_id: int) -> TransformStage:
    """The stage a unit's transform id names; malformed input if there is none."""
    stages = tuple(TRANSFORMS.values())
    if transform_id >= len(stages):
        raise InvariantError(f"unknown transform id {transform_id}")
    return stages[transform_id]


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
    stage = TRANSFORMS[cfg.transform]
    stats = compute_global_stats(t)
    xt = stage.forward(t)

    decision = select_pruned(score_channels(xt), cfg.prune_ratio)
    reduced = prune_channels(xt, decision)
    reduced_stats = stats if reduced is t else compute_global_stats(reduced)

    frame, layout = pack(reduced)
    qframe, params = quantize_frame(frame, cfg.bit_depth)
    payload = codec_encode(qframe, cfg.codec, cfg.qp, cfg.bit_depth)
    header = UnitHeader(
        original_channels=xt.channels,
        pruned_k=len(decision.pruned),
        lcr_rank=lcr_encode(decision.pruned).rank,
        transform_stats=stats,
        reduced_stats=reduced_stats,
        bit_depth=cfg.bit_depth,
        conv_min=params.min_val,
        conv_max=params.max_val,
        layout=layout,
        transform_id=list(TRANSFORMS).index(cfg.transform),
        label=label,
        codec=int(cfg.codec),
        qp=cfg.qp,
    )
    return header, payload


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
    stage = transform_stage(header.transform_id)
    lay = header.layout
    x = codec_decode(payload, header.codec, header.qp, header.bit_depth, (lay.frame_height, lay.frame_width))
    x = dequantize_frame(x, ConversionParams(header.bit_depth, header.conv_min, header.conv_max))
    x = unpack(x, lay)
    x = apply_refinement(x, header.reduced_stats)
    pruned = lcr_decode(LcrCode(header.pruned_k, header.lcr_rank), header.original_channels)
    x = restore_channels(x, PruneDecision(pruned))
    x = stage.inverse(x)
    return apply_refinement(x, header.transform_stats)


def fcm_decode(data: bytes) -> TensorGroup:
    """Decode an FCMB stream into the labelled tensor group it carries."""
    units = parse_stream(data)
    tensors = []
    for i, (header, payload) in enumerate(units):
        try:
            tensors.append(_decode_one(header, payload))
        except FcmError as exc:
            raise type(exc)(f"unit {i}: {exc}") from exc
    return TensorGroup(tuple(tensors), tuple(header.label for header, _ in units))
