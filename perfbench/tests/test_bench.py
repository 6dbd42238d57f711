"""Tests of the benchmark itself: corpus, tracing, checks and failure accounting.

Run from the repository root with `python3 -m pytest perfbench/tests`.
"""

import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import fcmcodec.pipeline
from fcmcodec import CodecId, EncoderConfig, fcm_encode, parse_stream

import harness
import spans
from corpus import WORKLOADS, Workload, codeword_lengths, make_group, to_group

TINY_DCT = Workload(
    "tiny_dct",
    ((8, 16, 16), (6, 8, 8)),
    EncoderConfig(prune_ratio=0.5, bit_depth=10, codec=CodecId.BLOCK_DCT, qp=22),
    groups=2,
)
TINY_LOSSLESS = Workload(
    "tiny_lossless",
    ((8, 16, 16),),
    EncoderConfig(prune_ratio=0.0, bit_depth=10, codec=CodecId.RAW_LOSSLESS),
    groups=2,
)


def test_generator_is_deterministic_per_seed():
    wl = WORKLOADS["pyramid_dct"]
    later = make_group(wl, 7, 3)
    for a, b in zip(later, make_group(wl, 7, 3)):
        np.testing.assert_array_equal(a, b)
    assert [a.shape for a in later] == list(wl.shapes)
    assert all(a.dtype == np.float32 and a.min() == 0.0 for a in later)
    assert not np.array_equal(make_group(wl, 8, 3)[0], later[0])
    assert not np.array_equal(make_group(wl, 7, 2)[0], later[0])


@pytest.mark.parametrize("name", ["dense_dct16", "pyramid_dct"])
def test_codeword_lengths_account_for_every_payload_bit(name):
    wl = WORKLOADS[name]
    arrays = make_group(wl, 1, 0)
    units = parse_stream(fcm_encode(to_group(arrays), wl.config))
    assert len(units) == len(arrays)
    for a, (_, payload) in zip(arrays, units):
        bits = int(codeword_lengths(a, wl.config).sum())
        assert -(-bits // 8) == len(payload) - 1  # one leading bit-depth byte


def _fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_is_parent_minus_children():
    tracer = spans.Tracer(clock=_fake_clock([0, 10, 30, 40, 50, 60, 90, 100]))
    with tracer.span("root"):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            with tracer.span("c"):
                pass
    assert [s.duration_ns for s in tracer.spans] == [100, 20, 50, 10]
    assert tracer.self_ns() == [30, 20, 40, 10]
    assert sum(tracer.self_ns()) == tracer.spans[0].duration_ns


def test_children_exceeding_their_parent_are_rejected():
    tracer = spans.Tracer()
    tracer.spans = [spans.Span("root", 0, 10, -1), spans.Span("child", 0, 11, 0)]
    with pytest.raises(spans.TraceGuardError, match="exceed"):
        tracer.self_ns()


def test_traced_run_matches_untraced_streams_and_fires_every_layer():
    result = harness.run(TINY_DCT, seed=3, seconds=0, traced=True)
    assert result["correct"] and result["failed"] == 0
    names = set(result["metrics"])
    assert names >= set(harness.MS_PER_MB.values())
    assert result["metrics"]["lcr.decode_ms_per_mb"]["value"] > 0
    assert result["metrics"]["codec.transform_ms_per_mb"]["value"] > 0
    spans.check_removed()


def test_checks_run_outside_the_root_spans(monkeypatch):
    def slow_check(*args):
        time.sleep(0.05)

    monkeypatch.setattr(harness, "check_stream", slow_check)
    monkeypatch.setattr(harness, "check_decoded", slow_check)
    result = harness.run(TINY_LOSSLESS, seed=3, seconds=0, traced=True)
    assert result["correct"]
    self_ms = result["report"]["trace_root_ns"] / 1e6
    assert self_ms < 50 * TINY_LOSSLESS.groups  # the sleeps of the checks are not in it


def test_root_span_that_does_not_cover_its_call_fails_loudly():
    tracer = spans.Tracer()
    tracer.spans = [spans.Span("pipeline.encode", 0, 100, -1), spans.Span("pipeline.decode", 0, 100, -1)]
    harness.TraceTally().add(tracer, [100, 100 + harness.ROOT_GAP_NS], 1.0)
    with pytest.raises(spans.TraceGuardError, match="pipeline.decode"):
        harness.TraceTally().add(tracer, [100, 101 + 2 * harness.ROOT_GAP_NS], 1.0)
    with pytest.raises(spans.TraceGuardError, match="root spans"):
        harness.TraceTally().add(spans.Tracer(), [], 1.0)


def test_traced_stream_that_differs_fails_its_operation(monkeypatch):
    real_encode = fcmcodec.pipeline.fcm_encode
    calls = []

    def encode_differently_when_traced(group, cfg):
        calls.append(cfg)
        if len(calls) % 2 == 0:
            cfg = EncoderConfig(prune_ratio=cfg.prune_ratio, codec=cfg.codec, qp=cfg.qp + 1)
        return real_encode(group, cfg)

    monkeypatch.setattr(fcmcodec.pipeline, "fcm_encode", encode_differently_when_traced)
    result = harness.run(TINY_DCT, seed=3, seconds=0, traced=True)
    assert not result["correct"]
    assert result["failed"] == TINY_DCT.groups
    assert all(f["op"].startswith("traced fcm_encode") for f in result["report"]["failures"])
    assert "differ" in result["report"]["failures"][0]["traceback"]
    spans.check_removed()


def test_untraced_run_repeats_quality_and_bytes_for_a_seed():
    first = harness.run(TINY_LOSSLESS, seed=5, seconds=0, traced=False)
    again = harness.run(TINY_LOSSLESS, seed=5, seconds=0.2, traced=False)
    assert first["correct"] and again["correct"]
    assert first["report"]["stream_sha256"] == again["report"]["stream_sha256"]
    for name in ("bits_per_element", "psnr_db"):
        assert first["metrics"][name] == again["metrics"][name]


def test_missing_binding_fails_loudly(monkeypatch):
    monkeypatch.delattr(fcmcodec.pipeline, "pack")
    with pytest.raises(spans.TraceGuardError, match="pack"):
        with spans.installed(spans.Tracer()):
            pass


def test_binding_that_never_fires_fails_loudly():
    tracer = spans.Tracer()
    with spans.installed(tracer):
        fcmcodec.pipeline.fcm_encode(to_group(make_group(TINY_DCT, 1, 0)), TINY_DCT.config)
    spans.check_removed()
    fired = {s.name for s in tracer.spans}
    with pytest.raises(spans.TraceGuardError, match="lcr.decode"):
        spans.check_fired(fired, TINY_DCT.config, [8, 6])


def test_peak_alloc_follows_the_codec(monkeypatch):
    base = harness.run(TINY_LOSSLESS, seed=1, seconds=0, traced=False)["metrics"]["peak_alloc_mb"]["value"]
    real_pack = fcmcodec.pipeline.pack

    def pack_with_scratch(t):
        scratch = np.ones(1_000_000, dtype=np.uint8)
        out = real_pack(t)
        del scratch
        return out

    monkeypatch.setattr(fcmcodec.pipeline, "pack", pack_with_scratch)
    grown = harness.run(TINY_LOSSLESS, seed=1, seconds=0, traced=False)["metrics"]["peak_alloc_mb"]["value"]
    assert base < 1.0 < grown <= base + 1.001


def test_forced_failures_raise_error_rate(monkeypatch):
    def wrong_shape(stream):
        return to_group([np.ones((1, 2, 2), dtype=np.float32)])

    monkeypatch.setattr(fcmcodec.pipeline, "fcm_decode", wrong_shape)
    result = harness.run(TINY_LOSSLESS, seed=1, seconds=0, traced=False)
    assert not result["correct"]
    assert result["failed"] == 2 and result["attempted"] == 4
    assert result["report"]["error_rate"] == 0.5
    assert "CheckFailed" in result["report"]["failures"][0]["traceback"]

    def boom(group, cfg):
        raise RuntimeError("not an FcmError")

    monkeypatch.setattr(fcmcodec.pipeline, "fcm_encode", boom)
    result = harness.run(TINY_LOSSLESS, seed=1, seconds=0, traced=False)
    assert result["failed"] == result["attempted"] == 2
    assert "not an FcmError" in result["report"]["failures"][0]["traceback"]


def test_byte_split_sums_to_stream_length():
    arrays = make_group(TINY_DCT, 2, 0)
    stream = fcm_encode(to_group(arrays), TINY_DCT.config)
    split = harness.byte_split(stream)
    assert split["header"] + split["rank"] + split["payload"] == len(stream)
    assert split["rank"] > 0
    assert split["payload"] == sum(len(p) for _, p in parse_stream(stream))


def test_run_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(
        Path(harness.__file__).parent, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pyramid_dct", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
