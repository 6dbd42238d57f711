#!/usr/bin/env python3
"""Sweep qp and prune ratio on a seeded synthetic corpus of feature-like
tensors and print a rate-distortion table (stream size in bytes, PSNR of the
reconstruction against the source tensors).

With --csv DIR it also writes one rate-distortion curve per codec and prune
ratio, in the `rate_kbps,quality` form that `fcmcodec bdrate` reads: the rate
column holds stream bits per tensor element and the quality column PSNR in
dB, one row per operating point in order of rate. BLOCK_DCT curves sweep qp
4 to 40 in steps of 6 at the default bit depth; RAW_LOSSLESS ignores qp, so
its curves sweep the bit depth. Files are named <codec>_prune<ratio>.csv, for
example dct_prune0.25.csv. At the default size, bdrate can compare the
BLOCK_DCT curve at prune 0.25, and the RAW_LOSSLESS one at prune 0, with the
BLOCK_DCT one at prune 0.

Usage:
    python3 scripts/rd_sweep.py [--channels 16] [--size 32] [--seed 7] [--csv DIR]
"""

import argparse
import csv
import pathlib

import numpy as np

from fcmcodec import (
    CodecId,
    EncoderConfig,
    FeatureTensor,
    TensorGroup,
    fcm_decode,
    fcm_encode,
    psnr,
)

RATIOS = (0.0, 0.25, 0.5)
CURVE_QPS = (4, 10, 16, 22, 28, 34, 40)
CURVE_BIT_DEPTHS = (8, 10, 12, 14)


def make_group(rng, channels, size, count=3):
    """count feature-like tensors: sparse ReLU-style activations,
    max(N(0, 1) - 0.3, 0), each channel scaled by exp(N(0, 1.5)), so channel
    energies spread over orders of magnitude and pruning drops the weak ones."""
    tensors = []
    for _ in range(count):
        scale = np.exp(rng.normal(0.0, 1.5, (channels, 1, 1)))
        data = scale * np.maximum(rng.normal(size=(channels, size, size)) - 0.3, 0.0)
        tensors.append(FeatureTensor(data.astype(np.float32)))
    return TensorGroup(tuple(tensors))


def group_psnr(a, b):
    """PSNR of group b against group a over all their samples, with peak max |a|."""
    x = np.concatenate([t.data.reshape(-1) for t in a.tensors])
    y = np.concatenate([t.data.reshape(-1) for t in b.tensors])
    return psnr(x, y, peak=float(np.max(np.abs(x))))


def rd_point(group, cfg):
    """(stream bits per element, PSNR in dB) of one encode and decode."""
    stream = fcm_encode(group, cfg)
    elements = sum(t.data.size for t in group.tensors)
    return 8 * len(stream) / elements, group_psnr(group, fcm_decode(stream))


def write_curves(group, directory):
    directory.mkdir(parents=True, exist_ok=True)
    for ratio in RATIOS:
        sweeps = {
            "dct": [EncoderConfig(ratio, codec=CodecId.BLOCK_DCT, qp=qp) for qp in CURVE_QPS],
            "raw": [EncoderConfig(ratio, bit_depth=depth) for depth in CURVE_BIT_DEPTHS],
        }
        for name, configs in sweeps.items():
            points = sorted(rd_point(group, cfg) for cfg in configs)
            with open(directory / f"{name}_prune{ratio:.2f}.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["rate_kbps", "quality"])
                writer.writerows((f"{rate:.6f}", f"{quality:.4f}") for rate, quality in points)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--channels", type=int, default=16)
    ap.add_argument("--size", type=int, default=32)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--csv", type=pathlib.Path, metavar="DIR", help="also write rate_kbps,quality curves to DIR")
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    group = make_group(rng, args.channels, args.size)

    print(f"{'codec':<6} {'qp':>3} {'prune':>5} {'bytes':>8} {'psnr_db':>8}")
    for codec, name in ((CodecId.RAW_LOSSLESS, "raw"), (CodecId.BLOCK_DCT, "dct")):
        for qp in (4, 22, 40):
            for ratio in RATIOS:
                cfg = EncoderConfig(prune_ratio=ratio, codec=codec, qp=qp)
                stream = fcm_encode(group, cfg)
                decoded = fcm_decode(stream)
                print(
                    f"{name:<6} {qp:>3} {ratio:>5.2f} {len(stream):>8} "
                    f"{group_psnr(group, decoded):>8.2f}"
                )
            if codec == CodecId.RAW_LOSSLESS:
                break  # qp does not affect the lossless path
    if args.csv is not None:
        write_curves(group, args.csv)


if __name__ == "__main__":
    main()
