import json
import pathlib
import re
import struct
import warnings

import numpy as np
import pytest

from fcmcodec import CodecId, EncoderConfig, compute_global_stats, fcm_encode
from fcmcodec.bitstream import parse_stream
from fcmcodec.cli import main
from fcmcodec.planar import read_sequence, write_sequence
from fcmcodec.tensor import _CHUNK, read_tensor_file, write_tensor_file
from fcmcodec.vcm import PixelSequence

from helpers import CHANNEL_MISMATCHES, channel_mismatch_stream, depth_relabelled_stream, patched, random_group

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "bdrate"


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
                "N=", "k=", "rank=", "mu=", "sigma=", "bit_depth=", "transform=", "label=", "codec=", "qp=",
                "payload_len=",
            ):
                assert field in line
            assert "transform=identity" in line

        even = tmp_path / "even.ftns"
        write_tensor_file(even, random_group(rng, count=2, height=8, width=6))
        pooled = tmp_path / "pooled.fcmb"
        assert main(["encode", "--input", str(even), "--output", str(pooled), "--transform", "meanpool2x"]) == 0
        assert main(["inspect", "--input", str(pooled)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2 and all("transform=meanpool2x" in line for line in lines)

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
            assert "unknown transform id 200" in capsys.readouterr().err

    def test_unknown_codec_exit_3(self, tmp_path, rng, capsys):
        stream = fcm_encode(random_group(rng, count=2), EncoderConfig())
        bad = tmp_path / "bad.fcmb"
        bad.write_bytes(patched(stream, 1, "codec", "<B", 7))
        for argv in (["decode", "--output", str(tmp_path / "o.ftns")], ["inspect"]):
            assert main(argv + ["--input", str(bad)]) == 3
            assert "unit 1: unknown codec id 7" in capsys.readouterr().err
        assert capsys.readouterr().out == ""

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

    @pytest.mark.parametrize("channels,ratio,declared", CHANNEL_MISMATCHES)
    def test_layout_channel_mismatch_exit_3(self, tmp_path, capsys, channels, ratio, declared):
        bad = tmp_path / "bad.fcmb"
        bad.write_bytes(channel_mismatch_stream(channels, ratio, declared))
        # the grid follows from N - k, so the payload no longer fits the frame
        assert main(["decode", "--input", str(bad), "--output", str(tmp_path / "o.ftns")]) == 3
        assert "unit 0:" in capsys.readouterr().err

    @pytest.mark.parametrize("codec", list(CodecId))
    def test_samples_past_bit_depth_exit_3(self, tmp_path, capsys, codec):
        bad = tmp_path / "bad.fcmb"
        bad.write_bytes(depth_relabelled_stream(codec))
        assert main(["decode", "--input", str(bad), "--output", str(tmp_path / "o.ftns")]) == 3
        assert "exceeds bit depth 8" in capsys.readouterr().err

    def test_non_finite_ftns_past_the_first_chunk_exit_3(self, tmp_path, capsys):
        data = np.zeros((3, 1, _CHUNK), dtype="<f4")
        data[2, 0, 5] = np.nan
        bad = tmp_path / "bad.ftns"
        bad.write_bytes(b"FTNS" + struct.pack("<BBB", 1, 1, 0) + struct.pack("<III", *data.shape) + data.tobytes())
        assert main(["encode", "--input", str(bad), "--output", str(tmp_path / "o.fcmb")]) == 3
        assert "non-finite" in capsys.readouterr().err

    def test_missing_file_exit_3(self, tmp_path):
        rc = main(["decode", "--input", str(tmp_path / "nope"), "--output", str(tmp_path / "o")])
        assert rc == 3

    def test_bad_config_exit_4(self, tmp_path, ftns):
        rc = main(
            ["encode", "--input", str(ftns), "--output", str(tmp_path / "o"), "--qp", "99"]
        )
        assert rc == 4

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

    def test_bad_ratio_exit_4(self, tmp_path, seq_file):
        rc = main(
            ["vcm-tsample", "--input", str(seq_file), "--output", str(tmp_path / "o"),
             "--ratio", "3", "--sideinfo", str(tmp_path / "s")]
        )
        assert rc == 4
