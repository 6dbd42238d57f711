"""Smoke tests of the scripts the README walks through."""

import os
import pathlib
import re
import subprocess
import sys

from fcmcodec.cli import main
from fcmcodec.tensor import read_tensor_file

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_readme_cli_walkthrough(tmp_path, capsys):
    demo, stream, back = tmp_path / "demo.ftns", tmp_path / "demo.fcmb", tmp_path / "back.ftns"
    done = run_script("make_demo_tensors.py", str(demo))
    assert done.returncode == 0, done.stderr
    argv = ["encode", "--input", str(demo), "--output", str(stream), "--codec", "dct"]
    assert main(argv + ["--transform", "meanpool2x", "--prune-ratio", "0.25"]) == 0
    assert main(["decode", "--input", str(stream), "--output", str(back)]) == 0
    source, decoded = read_tensor_file(demo), read_tensor_file(back)
    assert decoded.labels == source.labels == ("p3", "p4", "p5")
    assert [t.data.shape for t in decoded.tensors] == [t.data.shape for t in source.tensors]
    capsys.readouterr()
    assert main(["inspect", "--input", str(stream)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["unit=0", "unit=1", "unit=2"]
    assert all("transform=meanpool2x" in line and "qp=22" in line for line in lines), lines


def test_rd_sweep_prints_its_table():
    done = run_script("rd_sweep.py", "--channels", "4", "--size", "8")
    assert (done.returncode, done.stderr) == (0, "")
    # a header, 3 RAW rows (qp does not apply) and 9 DCT rows
    assert len(done.stdout.splitlines()) == 13


def test_rd_sweep_curves_feed_bdrate(tmp_path, capsys):
    """--csv DIR writes one rate_kbps,quality curve per codec and prune
    ratio; bdrate reads two of them, the BLOCK_DCT curves at prune 0 of two
    seeds of the same corpus."""
    for seed in ("7", "8"):
        done = run_script("rd_sweep.py", "--channels", "4", "--size", "8", "--seed", seed, "--csv", str(tmp_path / seed))
        assert (done.returncode, done.stderr) == (0, "")
        names = sorted(path.name for path in (tmp_path / seed).iterdir())
        assert names == [f"{codec}_prune{ratio}.csv" for codec in ("dct", "raw") for ratio in ("0.00", "0.25", "0.50")]
    # qp 4, 10, 16, 22, 28, 34 and 40; bit depths 8, 10, 12 and 14
    assert [len((tmp_path / "7" / f"{codec}_prune0.00.csv").read_text().splitlines()) for codec in ("dct", "raw")] == [8, 5]
    capsys.readouterr()
    anchor, test = (str(tmp_path / seed / "dct_prune0.00.csv") for seed in ("7", "8"))
    assert main(["bdrate", "--anchor", anchor, "--test", test]) == 0
    out = capsys.readouterr().out.strip()
    assert re.fullmatch(r"[+-]\d+\.\d\d%", out)
    # the same corpus, so the two curves differ by its noise only
    assert abs(float(out[:-1])) < 20


def test_rd_sweep_curves_compare_prune_ratios_and_codecs(tmp_path, capsys):
    """At the default size, bdrate compares the BLOCK_DCT curve at prune 0
    with the one at prune 0.25, and with the RAW_LOSSLESS curve at prune 0:
    their quality ranges overlap. Pruning costs rate at equal quality, and
    where the RAW_LOSSLESS curve overlaps, above 64 dB, it needs less rate."""
    done = run_script("rd_sweep.py", "--csv", str(tmp_path))
    assert (done.returncode, done.stderr) == (0, "")
    anchor = str(tmp_path / "dct_prune0.00.csv")
    for test, sign in (("dct_prune0.25.csv", "+"), ("raw_prune0.00.csv", "-")):
        capsys.readouterr()
        assert main(["bdrate", "--anchor", anchor, "--test", str(tmp_path / test)]) == 0, capsys.readouterr().err
        out = capsys.readouterr().out.strip()
        assert re.fullmatch(r"[+-]\d+\.\d\d%", out) and out.startswith(sign), (test, out)
