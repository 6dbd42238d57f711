"""Command-line interface.

Exit codes: 0 success, 2 usage error, 3 parse/format error, 4 domain error.
Machine-readable output goes to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from .bitstream import parse_stream
from .codec import CodecId
from .errors import DomainError, FormatError
from .metrics import RdCurve, bd_rate, psnr
from .pipeline import EncoderConfig, fcm_decode, fcm_encode
from .planar import read_sequence, write_sequence
from .tensor import compute_global_stats, read_tensor_file, write_tensor_file
from .vcm import (
    TemporalSideInfo,
    bitdepth_restore,
    bitdepth_truncate,
    temporal_resample_scalar,
    temporal_restore,
)

_CODEC_NAMES = {"raw": CodecId.RAW_LOSSLESS, "dct": CodecId.BLOCK_DCT}


def _add_encoder_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--prune-ratio", type=float, default=0.0)
    p.add_argument("--bit-depth", type=int, default=10)
    p.add_argument("--codec", choices=sorted(_CODEC_NAMES), default="raw")
    p.add_argument("--qp", type=int, default=22)
    p.add_argument("--transform", default="identity")


def _config(args) -> EncoderConfig:
    return EncoderConfig(
        prune_ratio=args.prune_ratio,
        bit_depth=args.bit_depth,
        codec=_CODEC_NAMES[args.codec],
        qp=args.qp,
        transform=args.transform,
    )


def _cmd_encode(args) -> int:
    group = read_tensor_file(args.input)
    stream = fcm_encode(group, _config(args))
    with open(args.output, "wb") as fh:
        fh.write(stream)
    print(f"wrote {len(stream)} bytes ({len(group)} units)", file=sys.stderr)
    return 0


def _cmd_decode(args) -> int:
    with open(args.input, "rb") as fh:
        data = fh.read()
    group = fcm_decode(data)
    write_tensor_file(args.output, group)
    print(f"decoded {len(group)} tensors", file=sys.stderr)
    return 0


def _cmd_roundtrip(args) -> int:
    group = read_tensor_file(args.input)
    stream = fcm_encode(group, _config(args))
    decoded = fcm_decode(stream)
    headers = [h for h, _ in parse_stream(stream)]

    tensors = []
    for orig, rec, h, label in zip(group.tensors, decoded.tensors, headers, group.labels):
        a = orig.data.astype(np.float64)
        b = rec.data.astype(np.float64)
        mse = float(np.mean((a - b) ** 2))
        peak = float(a.max() - a.min()) or 1.0
        final = compute_global_stats(rec)
        tensors.append(
            {
                "label": label,
                "shape": list(orig.shape),
                "mse": mse,
                "psnr_db": psnr(a, b, peak) if mse else None,
                "stats_error": {
                    "mu": abs(final.mu - h.transform_stats.mu),
                    "sigma": abs(final.sigma - h.transform_stats.sigma),
                },
            }
        )
    report = {"stream_bytes": len(stream), "tensors": tensors}
    with open(args.report, "w") as fh:
        json.dump(report, fh, indent=2)
    print(json.dumps({"stream_bytes": len(stream)}))
    return 0


def _cmd_inspect(args) -> int:
    with open(args.input, "rb") as fh:
        data = fh.read()
    for i, (h, payload) in enumerate(parse_stream(data)):
        lay = h.layout
        print(
            f"unit={i} N={h.original_channels} k={h.pruned_k} rank={h.lcr_rank} "
            f"mu={h.transform_stats.mu:.6g} sigma={h.transform_stats.sigma:.6g} "
            f"bit_depth={h.bit_depth} "
            f"grid={lay.grid_rows}x{lay.grid_cols} tile={lay.tile_h}x{lay.tile_w} "
            f"channels={lay.channel_count} transform={h.transform} "
            f"label={h.label!r} "
            f"codec={h.codec} qp={h.qp} payload_len={len(payload)}"
        )
    return 0


def _read_curve(path) -> RdCurve:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or [c.strip().lower() for c in rows[0]] != ["rate_kbps", "quality"]:
        raise FormatError(f"{path}: expected header row 'rate_kbps,quality'")
    rates, qualities = [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 2:
            raise FormatError(f"{path}:{lineno}: expected 2 columns")
        try:
            rates.append(float(row[0]))
            qualities.append(float(row[1]))
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
    return RdCurve(tuple(rates), tuple(qualities))


def _cmd_bdrate(args) -> int:
    value = bd_rate(_read_curve(args.anchor), _read_curve(args.test))
    print(f"{value:+.2f}%")
    return 0


def _cmd_vcm_truncate(args) -> int:
    seq = read_sequence(args.input)
    write_sequence(args.output, bitdepth_truncate(seq, args.shift))
    return 0


def _cmd_vcm_restore(args) -> int:
    seq = read_sequence(args.input)
    write_sequence(args.output, bitdepth_restore(seq, args.shift))
    return 0


def _cmd_vcm_tsample(args) -> int:
    seq = read_sequence(args.input)
    out, info = temporal_resample_scalar(seq, args.ratio)
    write_sequence(args.output, out)
    with open(args.sideinfo, "wb") as fh:
        fh.write(info.serialize())
    return 0


def _cmd_vcm_trestore(args) -> int:
    seq = read_sequence(args.input)
    with open(args.sideinfo, "rb") as fh:
        info = TemporalSideInfo.parse(fh.read())
    write_sequence(args.output, temporal_restore(seq, info))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fcmcodec")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="encode an FTNS tensor file to an FCMB stream")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    _add_encoder_flags(p)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="decode an FCMB stream to an FTNS tensor file")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("roundtrip", help="encode+decode and report distortion")
    p.add_argument("--input", required=True)
    p.add_argument("--report", required=True)
    _add_encoder_flags(p)
    p.set_defaults(func=_cmd_roundtrip)

    p = sub.add_parser("inspect", help="print every unit header of a stream")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("bdrate", help="Bjontegaard delta rate between two CSV curves")
    p.add_argument("--anchor", required=True)
    p.add_argument("--test", required=True)
    p.set_defaults(func=_cmd_bdrate)

    p = sub.add_parser("vcm-truncate", help="right-shift sample precision")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--shift", type=int, required=True)
    p.set_defaults(func=_cmd_vcm_truncate)

    p = sub.add_parser("vcm-restore", help="left-shift sample precision back")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--shift", type=int, required=True)
    p.set_defaults(func=_cmd_vcm_restore)

    p = sub.add_parser("vcm-tsample", help="drop frames at a fixed ratio")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--ratio", type=int, required=True)
    p.add_argument("--sideinfo", required=True)
    p.set_defaults(func=_cmd_vcm_tsample)

    p = sub.add_parser("vcm-trestore", help="rebuild dropped frames")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--sideinfo", required=True)
    p.set_defaults(func=_cmd_vcm_trestore)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
