"""Workloads and the seeded feature-pyramid corpus they code.

Inputs imitate post-ReLU backbone features: each channel is a Gaussian-
smoothed noise field, shifted down and clipped at zero, then scaled to a
log-normal peak. Sparsity and smoothness set the DCT coefficient count and the
zlib ratio; the spread of channel energy is what pruning ranks.

The peaks of a tensor's channels are the C evenly spaced quantiles of the
log-normal, dealt to channels in a random order. The largest peak sets the
quantiser range of the whole packed frame; drawing peaks at random would
swing bits and speed from group to group far more than the code under test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import dctn
from scipy.ndimage import gaussian_filter
from scipy.special import ndtri

from fcmcodec import (
    CodecId,
    EncoderConfig,
    FeatureTensor,
    TensorGroup,
    pack,
    prune_channels,
    qstep,
    quantize_frame,
    score_channels,
    select_pruned,
)
from fcmcodec.codec import ZIGZAG, _round_half_away, _to_blocks

SMOOTH_SIGMA = 1.5  # spatial Gaussian filter width, pixels
LOG_PEAK_SIGMA = 1.0  # std of the natural log of per-channel peak
RELU_SHIFT = 0.3  # shift below zero, in units of each channel's std

FPN_P3_P5 = ((256, 32, 48), (256, 16, 24), (256, 8, 12))


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: the tensor shapes of a group and how to code it.

    `groups` distinct groups make one pass; a run repeats passes until its
    time is spent, so every run of a seed codes the same first pass.
    """

    name: str
    shapes: tuple[tuple[int, int, int], ...]
    config: EncoderConfig
    groups: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pyramid_dct",
            FPN_P3_P5,
            EncoderConfig(prune_ratio=0.5, bit_depth=10, codec=CodecId.BLOCK_DCT, qp=22),
            groups=8,
        ),
        Workload(
            "pyramid_lossless",
            FPN_P3_P5,
            EncoderConfig(prune_ratio=0.0, bit_depth=10, codec=CodecId.RAW_LOSSLESS),
            groups=8,
        ),
        Workload(
            "dense_dct16",
            ((64, 32, 48),),
            EncoderConfig(prune_ratio=0.0, bit_depth=16, codec=CodecId.BLOCK_DCT, qp=4),
            groups=6,
        ),
    )
}


def make_group(workload: Workload, seed: int, index: int) -> list[np.ndarray]:
    """The float32 tensors of group `index`; they depend only on (seed, index)."""
    rng = np.random.default_rng([seed, index])
    out = []
    for c, h, w in workload.shapes:
        field = gaussian_filter(
            rng.standard_normal((c, h, w)), sigma=(0, SMOOTH_SIGMA, SMOOTH_SIGMA), mode="wrap"
        )
        field /= field.std(axis=(1, 2), keepdims=True)
        active = np.maximum(field - RELU_SHIFT, 0.0)
        top = active.max(axis=(1, 2), keepdims=True)
        active = np.divide(active, top, out=np.zeros_like(active), where=top > 0)
        peaks = np.exp(LOG_PEAK_SIGMA * ndtri((rng.permutation(c) + 0.5) / c))
        out.append((peaks[:, None, None] * active).astype(np.float32))
    return out


def to_group(arrays: list[np.ndarray]) -> TensorGroup:
    return TensorGroup(tuple(FeatureTensor(a) for a in arrays))


def codeword_lengths(array: np.ndarray, config: EncoderConfig) -> np.ndarray:
    """Bits of every exp-Golomb codeword BLOCK_DCT writes for one tensor.

    Rebuilt from the quantised packed frame with the codec's own blocking,
    rounding and qstep, and the ue length formula 2*bit_length(v+1) - 1, so it
    needs no bit writer and stays outside any timed region.
    """
    t = FeatureTensor(array)
    decision = select_pruned(score_channels(t), config.prune_ratio)
    reduced = prune_channels(t, decision) if decision.pruned.indices else t
    frame, _ = pack(reduced)
    qframe, _ = quantize_frame(frame, config.bit_depth)
    blocks = _to_blocks(qframe.astype(np.float64))
    levels = _round_half_away(dctn(blocks, type=2, norm="ortho", axes=(-2, -1)) / qstep(config.qp))
    flat = levels.reshape(-1, 64)[:, ZIGZAG].astype(np.int64)
    nz = flat != 0
    rows, cols = np.nonzero(nz)
    prev = np.where(np.diff(rows, prepend=-1) != 0, -1, np.roll(cols, 1))
    lv = flat[rows, cols]
    symbols = np.concatenate([nz.sum(axis=1), cols - prev - 1, np.where(lv > 0, 2 * lv - 1, -2 * lv)])
    _, bit_length = np.frexp((symbols + 1).astype(np.float64))
    return 2 * bit_length - 1


def input_properties(arrays: list[np.ndarray]) -> dict:
    """Zero fraction and per-channel energy spread (p90 / p10) of one group."""
    elements = sum(a.size for a in arrays)
    zeros = sum(int((a == 0).sum()) for a in arrays)
    energy = np.concatenate([np.mean(a.astype(np.float64) ** 2, axis=(1, 2)) for a in arrays])
    p10, p90 = np.percentile(energy, [10, 90])
    return {"zero_fraction": zeros / elements, "channel_energy_p90_over_p10": float(p90 / p10)}
