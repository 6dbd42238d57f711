"""Acceptance suite: one test per criterion, printing a pass line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import itertools
import random
import time

import numpy as np
import pytest

from fcmcodec import (
    ChannelIndexSet,
    CodecId,
    EncoderConfig,
    FeatureTensor,
    RdCurve,
    TensorGroup,
    bd_rate,
    binomial,
    codec_decode,
    codec_encode,
    fcm_decode,
    fcm_encode,
    lcr_decode,
    lcr_encode,
)
from fcmcodec.bitstream import parse_stream
from fcmcodec.errors import FcmError
from fcmcodec.vcm import (
    PixelSequence,
    bitdepth_restore,
    bitdepth_truncate,
    temporal_resample_scalar,
    temporal_restore,
)

from helpers import assert_refined, record_refinements


def report(n, text):
    print(f"[criterion {n:2d}] PASS: {text}")


def test_criterion_01_lcr_exhaustive():
    start = time.monotonic()
    checked = 0
    for n in range(1, 13):
        for k in range(0, n + 1):
            for rank, combo in enumerate(itertools.combinations(range(n), k)):
                s = ChannelIndexSet(combo, n)
                code = lcr_encode(s)
                assert code.rank == rank, (combo, n, code.rank, rank)
                assert lcr_decode(code, n).indices == combo
                checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    report(1, f"rank coding exact on all {checked} subsets for N <= 12 in {elapsed:.2f}s")


def test_criterion_02_lcr_worked_examples():
    for indices, expected in (((0, 2), 1), ((1, 3), 5)):
        code = lcr_encode(ChannelIndexSet(indices, 5))
        assert (code.k, code.rank) == (2, expected)
        assert lcr_decode(code, 5).indices == indices
    report(2, "worked examples {0,2}->rank 1 and {1,3}->rank 5 at N=5, both invertible")


def test_criterion_03_large_n_bignum():
    r = random.Random(2024)
    n, k = 256, 128
    for _ in range(100):
        combo = tuple(sorted(r.sample(range(n), k)))
        code = lcr_encode(ChannelIndexSet(combo, n))
        assert lcr_decode(code, n).indices == combo
        assert code.rank < binomial(n, k)
        rank_bytes = (code.rank.bit_length() + 7) // 8
        assert rank_bytes <= 32, rank_bytes
    report(3, "100 random (N=256, k=128) subsets round-trip; ranks fit 32 bytes")


def test_criterion_04_statistics_restoration(monkeypatch):
    start = time.monotonic()
    passes = record_refinements(monkeypatch)
    rng = np.random.default_rng(4)
    combos = list(
        itertools.product(
            (CodecId.RAW_LOSSLESS, CodecId.BLOCK_DCT), (4, 22, 40), (0.0, 0.25, 0.5)
        )
    )
    for i in range(200):
        codec, qp, ratio = combos[i % len(combos)]
        count = int(rng.integers(1, 4))
        tensors = tuple(
            FeatureTensor(
                rng.normal(rng.uniform(0.5, 3.0), rng.uniform(0.5, 2.0),
                           (int(rng.integers(4, 13)), int(rng.integers(8, 21)),
                            int(rng.integers(8, 21)))).astype(np.float32)
            )
            for _ in range(count)
        )
        stream = fcm_encode(TensorGroup(tensors), EncoderConfig(prune_ratio=ratio, codec=codec, qp=qp))
        passes.clear()
        fcm_decode(stream)
        assert_refined(passes, stream)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(4, f"decoded stats match the transmitted pair within 1e-4 on 200 groups in {elapsed:.1f}s")


def test_criterion_05_near_lossless_path():
    # The refinement stage adds drift proportional to the value range
    # (global rescale) and to step/sqrt(elements) (mean residue); the 1e-6
    # slack is absolute, so this holds for large tensors of moderate range.
    # At prune 0 the quantizer spans the source's min and max.
    rng = np.random.default_rng(5)
    cfg = EncoderConfig(prune_ratio=0.0, codec=CodecId.RAW_LOSSLESS, bit_depth=10)
    worst = 0.0
    for _ in range(100):
        t = FeatureTensor((rng.random((128, 128, 128)) * 0.25).astype(np.float32))
        decoded = fcm_decode(fcm_encode(TensorGroup((t,)), cfg))
        bound = (float(t.data.max()) - float(t.data.min())) / (2 * 1023) + 1e-6
        err = float(np.max(np.abs(decoded.tensors[0].data.astype(np.float64) - t.data)))
        assert err <= bound, (err, bound)
        worst = max(worst, err / bound)
    report(5, f"100 lossless-path tensors within half-step bound (worst {worst:.3f} of bound)")


def test_criterion_06_bitrate_dominance():
    rng = np.random.default_rng(6)
    group = TensorGroup(
        tuple(
            FeatureTensor(rng.normal(1.0, 1.0, (8, 24, 24)).astype(np.float32))
            for _ in range(3)
        )
    )
    for codec in (CodecId.RAW_LOSSLESS, CodecId.BLOCK_DCT):
        sizes = [
            len(fcm_encode(group, EncoderConfig(prune_ratio=r, codec=codec, qp=22)))
            for r in (0.0, 0.25, 0.5)
        ]
        assert sizes[0] > sizes[1] > sizes[2], (codec, sizes)

    from scipy.ndimage import gaussian_filter

    frames = []
    for _ in range(4):
        img = gaussian_filter(rng.normal(size=(48, 64)), sigma=4)
        img = (img - img.min()) / (img.max() - img.min())
        frames.append(np.round(img * 1023).astype(np.uint16))
    qps = (4, 10, 22, 34, 40, 51)
    sizes = [
        sum(len(codec_encode(f, CodecId.BLOCK_DCT, qp=qp)) for f in frames)
        for qp in qps
    ]
    inversions = sum(1 for a, b in zip(sizes, sizes[1:]) if b > a)
    assert inversions <= 1, sizes
    report(6, f"stream shrinks with pruning; payload sizes over qp {qps}: {sizes}")


def test_criterion_07_bd_rate_analytics():
    anchor = RdCurve((100, 200, 400, 800, 1600), (30.0, 33.0, 36.0, 39.0, 41.0))
    assert abs(bd_rate(anchor, anchor)) < 1e-9
    doubled = RdCurve(tuple(r * 2 for r in anchor.rates), anchor.qualities)
    assert bd_rate(anchor, doubled) == pytest.approx(100.0, abs=1e-6)
    halved = RdCurve(tuple(r / 2 for r in anchor.rates), anchor.qualities)
    assert bd_rate(anchor, halved) == pytest.approx(-50.0, abs=1e-6)
    cheaper = RdCurve(tuple(r * 0.7 for r in anchor.rates), anchor.qualities)
    assert bd_rate(anchor, cheaper) < 0
    report(7, "identical -> 0, doubled -> +100%, halved -> -50%, cheaper -> negative")


def test_criterion_08_bit_depth_tools_exhaustive():
    values = np.arange(1024, dtype=np.uint16).reshape(32, 32)
    seq = PixelSequence((values,), 10)
    for shift in (1, 2, 3):
        back = bitdepth_restore(bitdepth_truncate(seq, shift), shift)
        err = np.abs(back.frames[0].astype(int) - values.astype(int))
        assert err.max() < (1 << shift), (shift, err.max())
    report(8, "truncate->restore error < 2^shift for every 10-bit value, shift in {1,2,3}")


def test_criterion_09_temporal_tools():
    rng = np.random.default_rng(9)
    for _ in range(60):
        count = int(rng.integers(1, 101))
        ratio = int(rng.choice([2, 4, 8]))
        frames = tuple(
            rng.integers(0, 1024, (4, 6)).astype(np.uint16) for _ in range(count)
        )
        seq = PixelSequence(frames, 10)
        sampled, info = temporal_resample_scalar(seq, ratio)
        back = temporal_restore(sampled, info)
        assert len(back) == count
        for i in range(0, count, ratio):
            np.testing.assert_array_equal(back.frames[i], frames[i])
    static = PixelSequence(
        tuple(np.full((4, 6), 123, np.uint16) for _ in range(17)), 10
    )
    for ratio in (2, 4, 8):
        sampled, info = temporal_resample_scalar(static, ratio)
        back = temporal_restore(sampled, info)
        for f in back.frames:
            np.testing.assert_array_equal(f, static.frames[0])
    report(9, "resample->restore keeps kept frames bit-exact and restores counts; static exact")


def _fuzz_stream(iterations):
    rng = np.random.default_rng(10)
    base_rng = np.random.default_rng(11)
    group = TensorGroup(
        (FeatureTensor(base_rng.normal(1, 1, (3, 8, 8)).astype(np.float32)),)
    )
    valid = bytearray(fcm_encode(group, EncoderConfig(prune_ratio=0.25)))
    outcomes = {"ok": 0, "error": 0}
    for i in range(iterations):
        if i % 2 == 0:
            blob = bytes(rng.integers(0, 256, size=int(rng.integers(0, 80)), dtype=np.uint8))
        else:
            blob = bytearray(valid)
            for _ in range(int(rng.integers(1, 8))):
                blob[int(rng.integers(0, len(blob)))] = int(rng.integers(0, 256))
            blob = bytes(blob)
        try:
            parse_stream(blob)
            outcomes["ok"] += 1
        except FcmError:
            outcomes["error"] += 1
    return outcomes


def _fuzz_payloads(iterations):
    rng = np.random.default_rng(12)
    frame = rng.integers(0, 1024, (16, 16)).astype(np.uint16)
    valid = {
        codec: bytearray(codec_encode(frame, codec, qp=22))
        for codec in (CodecId.RAW_LOSSLESS, CodecId.BLOCK_DCT)
    }
    outcomes = {"ok": 0, "error": 0}
    codecs = (CodecId.RAW_LOSSLESS, CodecId.BLOCK_DCT)
    for i in range(iterations):
        codec = codecs[i % 2]
        blob = bytearray(valid[codec])
        cut = int(rng.integers(0, len(blob) + 1))
        blob = blob[:cut] if i % 5 == 0 else blob
        if blob:
            for _ in range(int(rng.integers(1, 5))):
                blob[int(rng.integers(0, len(blob)))] = int(rng.integers(0, 256))
        try:
            out = codec_decode(bytes(blob), int(codec), 10, (16, 16))
            assert out.shape == (16, 16)
            outcomes["ok"] += 1
        except FcmError:
            outcomes["error"] += 1
    return outcomes


def test_criterion_10_robustness_fuzzing():
    n = 100_000
    streams = _fuzz_stream(n)
    payloads = _fuzz_payloads(n)
    assert streams["ok"] + streams["error"] == n
    assert payloads["ok"] + payloads["error"] == n
    report(
        10,
        f"{n} stream and {n} payload fuzz cases: every input parsed or raised a "
        f"classified error (streams {streams}, payloads {payloads})",
    )


def test_criterion_11_multithreaded_determinism():
    rng = np.random.default_rng(13)
    group = TensorGroup(
        tuple(
            FeatureTensor(rng.normal(1, 1, (6, 16, 16)).astype(np.float32))
            for _ in range(6)
        )
    )
    cfg = EncoderConfig(prune_ratio=0.25, codec=CodecId.BLOCK_DCT, qp=22)
    baseline = fcm_encode(group, cfg, workers=1)
    for workers in (2, 4, 8):
        for _ in range(3):
            assert fcm_encode(group, cfg, workers=workers) == baseline
    report(11, "repeated multi-threaded encodes byte-identical to the serial stream")
