import json
import os
import pathlib
import re
import struct
import subprocess
import sys
import tracemalloc
import warnings
from collections.abc import Callable

import numpy as np
import pytest

import fcmcodec.bitstream
import fcmcodec.pipeline
from fcmcodec import CodecId, EncoderConfig, FeatureTensor, TensorGroup, compute_global_stats, fcm_decode, fcm_encode
from fcmcodec.bitstream import parse_stream
from fcmcodec.cli import _config, build_parser, main
from fcmcodec.errors import DimensionOverflowError, InvariantError
from fcmcodec.planar import read_sequence, write_sequence
from fcmcodec.tensor import _CHUNK, read_tensor_file, write_tensor_file
from fcmcodec.vcm import PixelSequence

from helpers import (
    CHANNEL_MISMATCHES,
    F32_MAX,
    channel_mismatch_stream,
    clamped_float64_refinement,
    depth_relabelled_stream,
    mutate,
    one_tile_stream,
    patched,
    random_group,
    with_payload_qp,
    within_2_ulps,
)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "bdrate"


# Bound (fixed bytes, bytes per input byte) on the tracemalloc peak of one CLI
# run on a mutated input file. Building the parser and opening the files cost
# most of it: on the inputs below, of at most 1 KB, the peak stays under 94 KB.
MUTATED_RUN_PEAK = (128 << 10, 64)


def run_mutated(
    seed: int,
    valid: bytes,
    tmp_path: pathlib.Path,
    name: str,
    argv: Callable[[pathlib.Path], list[str]],
    extra_bytes: int = 0,
) -> set[int]:
    """Run argv(case) on 200 seeded mutations of valid, each written to the
    file name in a new directory case under tmp_path, where the run also
    writes its output: rewriting one file costs far more than writing a new
    one on some file systems. Each run exits 0, 3 or 4, and its tracemalloc
    peak is within MUTATED_RUN_PEAK of the mutation's size plus extra_bytes,
    the size of the run's other inputs. Returns the exit codes seen."""
    rng = np.random.default_rng(seed)
    fixed, per_byte = MUTATED_RUN_PEAK
    codes = set()
    for i in range(200):
        blob = mutate(rng, valid)
        case = tmp_path / f"case{i}"
        case.mkdir()
        (case / name).write_bytes(blob)
        args = argv(case)
        tracemalloc.start()
        try:
            code = main(args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code in (0, 3, 4), (i, blob)
        assert peak < fixed + per_byte * (len(blob) + extra_bytes), (i, peak, blob)
        codes.add(code)
    return codes


def test_cold_start_imports_no_scipy():
    """The package and its CLI load without scipy, which alone took most of
    a fresh interpreter's import time when the encoder used scipy.fft."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, fcmcodec, fcmcodec.cli\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_coding_path_imports_no_numpy_ma():
    """A fresh interpreter encodes and decodes a pruned BLOCK_DCT group
    without importing numpy.ma, which np.unique and np.setdiff1d load; that
    import took 8-17 ms of a process's first such coding on a 2-core Xeon
    host."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from fcmcodec import CodecId, EncoderConfig, FeatureTensor, TensorGroup, fcm_decode, fcm_encode\n"
        "t = FeatureTensor(np.random.default_rng(0).normal(size=(8, 16, 16)).astype(np.float32))\n"
        "fcm_decode(fcm_encode(TensorGroup((t,)), EncoderConfig(codec=CodecId.BLOCK_DCT, prune_ratio=0.5)))\n"
        "print('numpy.ma' in sys.modules)"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


@pytest.fixture
def ftns(tmp_path, rng):
    path = tmp_path / "in.ftns"
    write_tensor_file(path, random_group(rng, count=2))
    return path


class TestCodecCommands:
    def test_encode_decode_roundtrip(self, tmp_path, ftns):
        fcmb = tmp_path / "out.fcmb"
        back = tmp_path / "back.ftns"
        assert main(["encode", "--input", str(ftns), "--output", str(fcmb)]) == 0
        assert fcmb.read_bytes()[:4] == b"FCMB"
        assert main(["decode", "--input", str(fcmb), "--output", str(back)]) == 0
        orig = read_tensor_file(ftns)
        dec = read_tensor_file(back)
        assert [t.shape for t in dec.tensors] == [t.shape for t in orig.tensors]

    def test_encode_flags(self, tmp_path, ftns):
        fcmb = tmp_path / "out.fcmb"
        rc = main(
            [
                "encode", "--input", str(ftns), "--output", str(fcmb),
                "--prune-ratio", "0.25", "--bit-depth", "12", "--codec", "dct", "--qp", "30",
            ]
        )
        assert rc == 0

    def test_roundtrip_report(self, tmp_path, ftns, capsys):
        report = tmp_path / "report.json"
        rc = main(
            ["roundtrip", "--input", str(ftns), "--report", str(report), "--codec", "raw"]
        )
        assert rc == 0
        data = json.loads(report.read_text())
        assert data["stream_bytes"] > 0
        for entry in data["tensors"]:
            assert {"mse", "psnr_db", "stats_error", "shape"} <= set(entry)
        assert json.loads(capsys.readouterr().out)["stream_bytes"] == data["stream_bytes"]

        # stats_error is |stats of the decoded tensor - transmitted global stats|
        fcmb = tmp_path / "out.fcmb"
        back = tmp_path / "back.ftns"
        assert main(["encode", "--input", str(ftns), "--output", str(fcmb), "--codec", "raw"]) == 0
        assert main(["decode", "--input", str(fcmb), "--output", str(back)]) == 0
        units = parse_stream(fcmb.read_bytes())
        decoded = read_tensor_file(back).tensors
        assert len(data["tensors"]) == len(units) == len(decoded)
        for entry, (h, _), t in zip(data["tensors"], units, decoded):
            final = compute_global_stats(t)
            assert entry["stats_error"] == {
                "mu": abs(final.mu - h.transform_stats.mu),
                "sigma": abs(final.sigma - h.transform_stats.sigma),
            }

    def test_inspect_one_line_per_unit(self, tmp_path, ftns, rng, capsys):
        fcmb = tmp_path / "out.fcmb"
        main(["encode", "--input", str(ftns), "--output", str(fcmb)])
        assert main(["inspect", "--input", str(fcmb)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            for field in (
                "N=", "k=", "rank=", "mu=", "sigma=", "bit_depth=", "transform=", "label=", "codec=", "payload_len=",
            ):
                assert field in line
            assert "transform=identity" in line
            # a RAW_LOSSLESS unit codes no qp
            assert "qp=" not in line

        even = tmp_path / "even.ftns"
        write_tensor_file(even, random_group(rng, count=2, height=8, width=6))
        pooled = tmp_path / "pooled.fcmb"
        assert main(["encode", "--input", str(even), "--output", str(pooled), "--transform", "meanpool2x"]) == 0
        assert main(["inspect", "--input", str(pooled)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2 and all("transform=meanpool2x" in line for line in lines)

        # a BLOCK_DCT unit's qp is read from its payload
        dct = tmp_path / "dct.fcmb"
        assert main(["encode", "--input", str(ftns), "--output", str(dct), "--codec", "dct", "--qp", "37"]) == 0
        assert main(["inspect", "--input", str(dct)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2 and all("codec=1 qp=37 payload_len=" in line for line in lines)

    def test_payload_qp_over_63_exit_3(self, tmp_path, ftns, capsys):
        fcmb = tmp_path / "out.fcmb"
        assert main(["encode", "--input", str(ftns), "--output", str(fcmb), "--codec", "dct"]) == 0
        bad = tmp_path / "bad.fcmb"
        bad.write_bytes(with_payload_qp(fcmb.read_bytes(), 1, 64))
        for argv in (["decode", "--output", str(tmp_path / "o.ftns")], ["inspect"]):
            assert main(argv + ["--input", str(bad)]) == 3
            assert "qp 64 in payload outside [0, 63]" in capsys.readouterr().err

    def test_decode_bad_magic_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.fcmb"
        bad.write_bytes(b"JUNKJUNKJUNK")
        rc = main(["decode", "--input", str(bad), "--output", str(tmp_path / "o.ftns")])
        assert rc == 3
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("count", [0, 9])
    def test_decode_unit_count_exit_3(self, tmp_path, rng, capsys, count):
        one = fcm_encode(random_group(rng, count=1), EncoderConfig())
        bad = tmp_path / "bad.fcmb"
        bad.write_bytes(one[:5] + bytes([count]) + one[6:] * count)
        rc = main(["decode", "--input", str(bad), "--output", str(tmp_path / "o.ftns")])
        assert rc == 3
        assert f"declares {count} units" in capsys.readouterr().err

    def test_unknown_transform_exit_3(self, tmp_path, rng, capsys):
        stream = fcm_encode(random_group(rng, count=1), EncoderConfig())
        bad = tmp_path / "bad.fcmb"
        bad.write_bytes(patched(stream, 0, "transform_id", "<B", 200))
        for argv in (["decode", "--output", str(tmp_path / "o.ftns")], ["inspect"]):
            assert main(argv + ["--input", str(bad)]) == 3
            assert "transform id must be in [0, 1], got 200" in capsys.readouterr().err

    def test_unknown_codec_exit_3(self, tmp_path, rng, capsys):
        stream = fcm_encode(random_group(rng, count=2), EncoderConfig())
        bad = tmp_path / "bad.fcmb"
        bad.write_bytes(patched(stream, 1, "codec", "<B", 7))
        for argv in (["decode", "--output", str(tmp_path / "o.ftns")], ["inspect"]):
            assert main(argv + ["--input", str(bad)]) == 3
            assert "unit 1: codec id must be in [0, 1], got 7" in capsys.readouterr().err
        assert capsys.readouterr().out == ""

    def test_rank_with_a_leading_zero_byte_exit_3(self, tmp_path, rng, capsys):
        # 00 || rank names the same pruned set as rank; only the fewest bytes
        # are accepted, so each pruned set has one encoding.
        stream = fcm_encode(random_group(rng, count=1, channels=8), EncoderConfig(prune_ratio=0.5))
        rank_at = 6 + 4  # magic, version, unit count, N, k
        (rank_len,) = struct.unpack_from("<H", stream, rank_at)
        assert rank_len and stream[rank_at + 2]
        bad = tmp_path / "bad.fcmb"
        bad.write_bytes(stream[:rank_at] + struct.pack("<H", rank_len + 1) + b"\0" + stream[rank_at + 2 :])
        for argv in (["decode", "--output", str(tmp_path / "o.ftns")], ["inspect"]):
            assert main(argv + ["--input", str(bad)]) == 3
            assert "unit 0: rank field has a leading zero byte" in capsys.readouterr().err

    def test_decoded_tensor_over_the_element_cap_exit_3(self, tmp_path, capsys):
        # A 161-byte stream whose 65535 channels of 256x256, all but one pruned,
        # would restore to about 17 GB: refused before any channel is sized.
        bad = tmp_path / "bad.fcmb"
        bad.write_bytes(one_tile_stream(65535, 256, "identity"))
        for argv in (["decode", "--output", str(tmp_path / "o.ftns")], ["inspect"]):
            assert main(argv + ["--input", str(bad)]) == 3
            assert "unit 0: decoded tensor 65535x256x256 exceeds the element cap" in capsys.readouterr().err
        assert not (tmp_path / "o.ftns").exists()

    def test_sigma_overflowing_the_refinement_exit_3(self, tmp_path, rng, capsys):
        # A finite f32 sigma whose refined samples overflow float32: one
        # error line, and no numpy warning before it.
        stream = fcm_encode(random_group(rng, count=2), EncoderConfig())
        bad = tmp_path / "bad.fcmb"
        bad.write_bytes(patched(stream, 1, "sigma", "<f", 3e38))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["decode", "--input", str(bad), "--output", str(tmp_path / "o.ftns")]) == 3
        assert not caught, [str(w.message) for w in caught]
        err = capsys.readouterr().err
        assert err.startswith("error: unit 1:") and err.count("\n") == 1, err

    def test_float32_cast_of_a_huge_gain_warns_outside_errstate(self):
        # Why the test above can fail: a float32 cast of a gain past
        # float32's range warns. The refinement casts only the gain and the
        # addend scaled by a power of two below 2^126, and refuses a sample
        # past float32's max before it scales the samples back.
        with pytest.warns(RuntimeWarning, match="overflow encountered in cast"):
            np.float32(3e38 / 1e-3)
        with np.errstate(over="ignore"):
            assert np.float32(3e38 / 1e-3) == np.inf

    def test_tensor_refined_just_past_the_float32_max_decodes(self, tmp_path, monkeypatch):
        # The header's float32 stats take the hot sample past float32's max
        # by less than an ulp, so it decodes clamped to that max.
        data = np.zeros((8, 8, 8), np.float32)
        data[3, 4, 5] = F32_MAX
        src, fcmb, back = tmp_path / "in.ftns", tmp_path / "out.fcmb", tmp_path / "back.ftns"
        write_tensor_file(src, TensorGroup((FeatureTensor(data),)))
        assert main(["encode", "--input", str(src), "--output", str(fcmb), "--codec", "raw"]) == 0
        assert main(["decode", "--input", str(fcmb), "--output", str(back)]) == 0
        monkeypatch.setattr(fcmcodec.pipeline, "apply_refinement", clamped_float64_refinement)
        want = fcm_decode(fcmb.read_bytes()).tensors[0].data
        assert within_2_ulps(read_tensor_file(back).tensors[0].data, want)

    @pytest.mark.parametrize("channels,ratio,declared", CHANNEL_MISMATCHES)
    def test_layout_channel_mismatch_exit_3(self, tmp_path, capsys, channels, ratio, declared):
        bad = tmp_path / "bad.fcmb"
        bad.write_bytes(channel_mismatch_stream(channels, ratio, declared))
        # the grid follows from N - k, so the payload no longer fits the frame
        assert main(["decode", "--input", str(bad), "--output", str(tmp_path / "o.ftns")]) == 3
        assert "unit 0:" in capsys.readouterr().err

    @pytest.mark.parametrize("codec", [CodecId.RAW_LOSSLESS])
    def test_samples_past_bit_depth_exit_3(self, tmp_path, capsys, codec):
        bad = tmp_path / "bad.fcmb"
        bad.write_bytes(depth_relabelled_stream(codec))
        assert main(["decode", "--input", str(bad), "--output", str(tmp_path / "o.ftns")]) == 3
        assert "exceeds bit depth 8" in capsys.readouterr().err

    def test_dct_stream_relabelled_to_8_bits_decodes(self, tmp_path):
        # the decoder clips DCT pixels to the bit depth of the unit header
        relabelled = tmp_path / "relabelled.fcmb"
        relabelled.write_bytes(depth_relabelled_stream(CodecId.BLOCK_DCT))
        assert main(["decode", "--input", str(relabelled), "--output", str(tmp_path / "o.ftns")]) == 0

    def test_non_finite_ftns_past_the_first_chunk_exit_3(self, tmp_path, capsys):
        data = np.zeros((3, 1, _CHUNK), dtype="<f4")
        data[2, 0, 5] = np.nan
        bad = tmp_path / "bad.ftns"
        bad.write_bytes(b"FTNS" + struct.pack("<BBB", 1, 1, 0) + struct.pack("<III", *data.shape) + data.tobytes())
        assert main(["encode", "--input", str(bad), "--output", str(tmp_path / "o.fcmb")]) == 3
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "blob,error,message",
        [
            (b"FTNS\x01\x00", InvariantError, "got 0"),
            (b"FTNS\x01\x09" + (b"\x00" + struct.pack("<III", 1, 1, 1) + bytes(4)) * 9, InvariantError, "got 9"),
            (b"FTNS\x01\x01\x02\xff\xfe" + struct.pack("<III", 1, 1, 1) + bytes(4), InvariantError, "at byte 7"),
            (b"FTNS\x01\x01\x00" + struct.pack("<III", 2, 0, 3), DimensionOverflowError, "zero dimension"),
            # the other two dimensions' product overflows numpy's intp if sized
            (b"FTNS\x01\x01\x00" + struct.pack("<III", 0xFFFFFFFF, 0, 0xFFFFFFFF), DimensionOverflowError, "zero dimension"),
            # 19 bytes, header and dimensions only: refused before any size is taken
            (b"FTNS\x01\x01\x00" + struct.pack("<III", 65536, 65536, 1), DimensionOverflowError, "element cap"),
        ],
        ids=["count-0", "count-9", "label-not-utf8", "zero-dimension", "zero-between-huge", "over-the-element-cap"],
    )
    def test_tensor_file_refusals_exit_3(self, tmp_path, capsys, blob, error, message):
        bad = tmp_path / "bad.ftns"
        bad.write_bytes(blob)
        with pytest.raises(error, match=message):
            read_tensor_file(bad)
        assert main(["encode", "--input", str(bad), "--output", str(tmp_path / "o.fcmb")]) == 3
        assert message in capsys.readouterr().err

    def test_mutated_tensor_files(self, tmp_path, ftns, capsys):
        out = tmp_path / "o.fcmb"
        # The first BLOCK_DCT encode of a process pays one-off costs that
        # MUTATED_RUN_PEAK does not cover.
        assert main(["encode", "--input", str(ftns), "--output", str(out), "--codec", "dct"]) == 0

        def argv(case):
            return ["encode", "--input", str(case / "bad.ftns"), "--output", str(case / "o.fcmb"), "--codec", "dct"]

        assert run_mutated(4, ftns.read_bytes(), tmp_path, "bad.ftns", argv) == {0, 3}

    def test_missing_file_exit_3(self, tmp_path):
        rc = main(["decode", "--input", str(tmp_path / "nope"), "--output", str(tmp_path / "o")])
        assert rc == 3

    def test_bad_config_exit_4(self, tmp_path, ftns):
        rc = main(
            ["encode", "--input", str(ftns), "--output", str(tmp_path / "o"), "--qp", "99"]
        )
        assert rc == 4

    @pytest.mark.parametrize(
        "argv", [["encode", "--output", "b"], ["roundtrip", "--report", "b"]], ids=["encode", "roundtrip"]
    )
    def test_encoder_flag_defaults_are_the_config_defaults(self, argv):
        args = build_parser().parse_args([*argv, "--input", "a"])
        assert _config(args) == EncoderConfig()

    @pytest.mark.parametrize(
        ("shape", "cap"),
        [((65536, 1, 1), None), ((1, 1, 70000), None), ((4, 8, 8), 255)],
        ids=["shape0", "shape1", "over_the_element_cap"],
    )
    def test_tensor_the_header_cannot_carry_exit_4_before_coding(self, tmp_path, monkeypatch, shape, cap):
        """65536 channels, or a 70000-wide tile, overflow a u16 header field,
        and with the element cap lowered to 255, parse_stream would refuse the
        stream of a 4x8x8 tensor; the encoder refuses the tensor before the
        inner codec runs."""
        if cap is not None:
            monkeypatch.setattr(fcmcodec.bitstream, "MAX_ELEMENTS", cap)
        src = tmp_path / "big.ftns"
        write_tensor_file(src, TensorGroup((FeatureTensor(np.zeros(shape, dtype=np.float32)),)))
        coded = []
        monkeypatch.setattr(fcmcodec.pipeline, "codec_encode", lambda *args: coded.append(args))
        assert main(["encode", "--input", str(src), "--output", str(tmp_path / "o.fcmb")]) == 4
        assert coded == []

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["encode"])  # missing required flags
        assert exc.value.code == 2


class TestBdrateCommand:
    def test_fixture_curves(self, capsys):
        rc = main(
            [
                "bdrate",
                "--anchor", str(FIXTURES / "sfu_class_c_remote.csv"),
                "--test", str(FIXTURES / "sfu_class_c_fcm.csv"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out.strip()
        assert re.fullmatch(r"[+-]\d+\.\d\d%", out)
        # the feature pipeline needs far less rate than remote inference
        assert out.startswith("-")

    def test_tracking_fixtures(self, capsys):
        rc = main(
            [
                "bdrate",
                "--anchor", str(FIXTURES / "tvd_tracking_remote.csv"),
                "--test", str(FIXTURES / "tvd_tracking_fcm.csv"),
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out.strip().startswith("-")

    def test_missing_header_exit_3(self, tmp_path):
        csv = tmp_path / "c.csv"
        csv.write_text("1,2\n3,4\n5,6\n7,8\n")
        rc = main(["bdrate", "--anchor", str(csv), "--test", str(csv)])
        assert rc == 3

    def test_no_overlap_exit_4(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("rate_kbps,quality\n1,10\n2,11\n4,12\n8,13\n")
        b.write_text("rate_kbps,quality\n1,20\n2,21\n4,22\n8,23\n")
        assert main(["bdrate", "--anchor", str(a), "--test", str(b)]) == 4

    @pytest.mark.parametrize(
        "anchor,test,code",
        [
            (b"rate_kbps,quality\n1,10\n2,\xff11\n4,12\n8,13\n", None, 3),
            (b'rate_kbps,quality\n1,"' + b"1" * 131073 + b'"\n', None, 3),
            # the cubic fit fails
            (b"rate_kbps,quality\n1,-1e308\n2,-1e307\n4,1e307\n8,1e308\n", None, 4),
            # an infinite rate, and a NaN one, which passes every comparison
            (b"rate_kbps,quality\n1,1\n2,2\n4,3\n1e400,4\n", b"rate_kbps,quality\n1,1\n2,2\n4,3\n8,4\n", 4),
            (b"rate_kbps,quality\n1,1\n2,2\n4,3\nnan,4\n", b"rate_kbps,quality\n1,1\n2,2\n4,3\n8,4\n", 4),
            # the rates differ by a factor of 1e600
            (b"rate_kbps,quality\n1e-300,1\n2e-300,2\n4e-300,3\n8e-300,4\n",
             b"rate_kbps,quality\n1e300,1\n2e300,2\n4e300,3\n8e300,4\n", 4),
        ],
        ids=[
            "not_utf8", "field_past_the_csv_limit", "qualities_of_1e308", "rate_of_1e400", "nan_rate",
            "rate_ratio_of_1e600",
        ],
    )
    def test_unreadable_or_unfittable_curves(self, tmp_path, capsys, anchor, test, code):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_bytes(anchor)
        b.write_bytes(test or anchor)
        assert main(["bdrate", "--anchor", str(a), "--test", str(b)]) == code
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "qualities,code",
        [((-1e308, -1e307, 1e307, 1e308), 4), ((1e100, 2e100, 3e100, 4e100), 0)],
        ids=["qualities_of_1e308", "qualities_near_1e100"],
    )
    def test_huge_qualities_print_one_line(self, tmp_path, capfd, qualities, code):
        # An overflowing and an ill-conditioned cubic fit: one result or
        # error line, with no numpy warning and no LAPACK message.
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path, rates in ((a, (1, 2, 4, 8)), (b, (1.5, 2.5, 4.5, 8.5))):
            path.write_text("rate_kbps,quality\n" + "".join(f"{r},{q}\n" for r, q in zip(rates, qualities)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["bdrate", "--anchor", str(a), "--test", str(b)]) == code
        assert not caught, [str(w.message) for w in caught]
        out, err = capfd.readouterr()
        line = err if code else out
        assert (out if code else err) == "" and line.count("\n") == 1, (out, err)

    def test_tiny_qualities_exit_promptly(self, tmp_path):
        # A cubic fit in qualities near 1e-100 spun in LAPACK; in the
        # overlap's own scale it gives the unscaled curves' result. Run in a
        # subprocess, so that a hang fails by the timeout.
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path, rates in ((a, (1, 2, 4, 8)), (b, (1.5, 2.5, 4.5, 8.5))):
            path.write_text("rate_kbps,quality\n" + "".join(f"{r},{q}e-100\n" for r, q in zip(rates, (1, 2, 3, 4))))
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-m", "fcmcodec.cli", "bdrate", "--anchor", str(a), "--test", str(b)],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "+20.46%\n", "")

    def test_mutated_csv_files(self, tmp_path, capsys):
        def argv(case):
            return ["bdrate", "--anchor", str(FIXTURES / "sfu_class_c_remote.csv"), "--test", str(case / "bad.csv")]

        assert run_mutated(3, (FIXTURES / "sfu_class_c_fcm.csv").read_bytes(), tmp_path, "bad.csv", argv) >= {0, 3}


class TestVcmCommands:
    @pytest.fixture
    def seq_file(self, tmp_path, rng):
        frames = tuple(rng.integers(0, 1024, (6, 8)).astype(np.uint16) for _ in range(9))
        path = tmp_path / "seq.raw"
        write_sequence(path, PixelSequence(frames, 10))
        return path

    def test_truncate_restore(self, tmp_path, seq_file):
        trunc = tmp_path / "t.raw"
        rest = tmp_path / "r.raw"
        assert main(["vcm-truncate", "--input", str(seq_file), "--output", str(trunc), "--shift", "2"]) == 0
        assert read_sequence(trunc).bit_depth == 8
        assert main(["vcm-restore", "--input", str(trunc), "--output", str(rest), "--shift", "2"]) == 0
        orig = read_sequence(seq_file)
        back = read_sequence(rest)
        for a, b in zip(orig.frames, back.frames):
            assert np.max(np.abs(a.astype(int) - b.astype(int))) < 4

    def test_tsample_trestore(self, tmp_path, seq_file):
        sampled = tmp_path / "s.raw"
        side = tmp_path / "side.bin"
        restored = tmp_path / "r.raw"
        assert main(
            ["vcm-tsample", "--input", str(seq_file), "--output", str(sampled),
             "--ratio", "4", "--sideinfo", str(side)]
        ) == 0
        assert len(read_sequence(sampled)) == 3
        assert main(
            ["vcm-trestore", "--input", str(sampled), "--output", str(restored),
             "--sideinfo", str(side)]
        ) == 0
        orig = read_sequence(seq_file)
        back = read_sequence(restored)
        assert len(back) == len(orig)
        for i in (0, 4, 8):
            np.testing.assert_array_equal(back.frames[i], orig.frames[i])

    def test_trailing_side_info_bytes_exit_3(self, tmp_path, seq_file, capsys):
        sampled = tmp_path / "s.raw"
        side = tmp_path / "side.bin"
        argv = ["--input", str(seq_file), "--output", str(sampled), "--ratio", "4", "--sideinfo", str(side)]
        assert main(["vcm-tsample"] + argv) == 0
        side.write_bytes(side.read_bytes() + bytes(4))
        argv = ["--input", str(sampled), "--output", str(tmp_path / "r.raw"), "--sideinfo", str(side)]
        assert main(["vcm-trestore"] + argv) == 3
        assert "4 trailing bytes" in capsys.readouterr().err

    def test_sample_past_the_frame_bit_depth_exit_3(self, tmp_path, capsys):
        seq = tmp_path / "seq.raw"
        seq.write_bytes(struct.pack("<IIB", 2, 1, 8) + np.array([3, 256], "<u2").tobytes())
        assert main(["vcm-truncate", "--input", str(seq), "--output", str(tmp_path / "o.raw"), "--shift", "1"]) == 3
        assert "exceeds 8-bit range" in capsys.readouterr().err

    @pytest.mark.parametrize("ratio,count", [(3, 9), (4, 0)])
    def test_side_info_outside_its_domain_exit_3(self, tmp_path, seq_file, capsys, ratio, count):
        side = tmp_path / "side.bin"
        side.write_bytes(struct.pack("<BI", ratio, count))
        argv = ["--input", str(seq_file), "--output", str(tmp_path / "r.raw"), "--sideinfo", str(side)]
        assert main(["vcm-trestore"] + argv) == 3
        assert "side-info" in capsys.readouterr().err

    def test_bad_ratio_exit_4(self, tmp_path, seq_file):
        rc = main(
            ["vcm-tsample", "--input", str(seq_file), "--output", str(tmp_path / "o"),
             "--ratio", "3", "--sideinfo", str(tmp_path / "s")]
        )
        assert rc == 4

    @pytest.mark.parametrize(
        "depths,message", [((10, 12), "mixed bit depths"), ((0,), "bit depth must be"), ((17,), "bit depth must be")]
    )
    def test_bad_bit_depths_exit_3(self, tmp_path, capsys, depths, message):
        seq = tmp_path / "seq.raw"
        seq.write_bytes(b"".join(struct.pack("<IIB", 2, 1, depth) + bytes(4) for depth in depths))
        with pytest.raises(InvariantError, match=message):
            read_sequence(seq)
        assert main(["vcm-truncate", "--input", str(seq), "--output", str(tmp_path / "o.raw"), "--shift", "1"]) == 3
        assert message in capsys.readouterr().err

    def test_mutated_sequence_files(self, tmp_path, seq_file, capsys):
        def argv(case):
            return ["vcm-truncate", "--input", str(case / "bad.raw"), "--output", str(case / "o.raw"), "--shift", "2"]

        assert run_mutated(1, seq_file.read_bytes(), tmp_path, "bad.raw", argv) >= {0, 3}

    def test_mutated_side_info_files(self, tmp_path, seq_file, capsys):
        sampled = tmp_path / "s.raw"
        side = tmp_path / "side.bin"
        argv = ["--input", str(seq_file), "--output", str(sampled), "--ratio", "4", "--sideinfo", str(side)]
        assert main(["vcm-tsample"] + argv) == 0

        def restore(case):
            out, bad = str(case / "r.raw"), str(case / "side.bin")
            return ["vcm-trestore", "--input", str(sampled), "--output", out, "--sideinfo", bad]

        assert run_mutated(2, side.read_bytes(), tmp_path, "side.bin", restore, sampled.stat().st_size) >= {0, 3}
