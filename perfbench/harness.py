"""One benchmark run: code a workload's groups, check every output, report metrics.

Each operation is one `fcm_encode` or `fcm_decode` of one group. Only the call
is timed; generating inputs, checking outputs and computing quality metrics
happen outside the timed region. A failed operation (an exception of any
class, or an output that fails its check) is counted and its traceback kept.

Times are rescaled by the host speed measured with `reference` right before
and after each operation (see that module): with its interpreter-bound work
on BLOCK_DCT workloads and its native work on RAW_LOSSLESS ones. The report
also carries the raw figures.

Memory is the codec's own: group 0 of the first pass is coded with tracemalloc
on, and the peak of each call above the level before it is read around the
call alone. That group's times are not used.
"""

from __future__ import annotations

import hashlib
import statistics
import time
import tracemalloc
import traceback
from dataclasses import dataclass, field

import numpy as np

import fcmcodec.pipeline
from fcmcodec import CodecId, parse_stream, serialize_stream

import spans
from corpus import Workload, codeword_lengths, input_properties, make_group, to_group
from reference import host_speed

STATS_REL_TOL = 1e-4  # acceptance criterion 04's tolerance on decoded mean and std
# A traced call's root span may start and end this much inside the time
# `Operations.run` measured for the call: wrapper and span bookkeeping.
ROOT_GAP_NS, ROOT_GAP_SHARE = 1_000_000, 0.01
# glibc raises its mmap threshold to the largest mmapped block freed so far,
# and trims the heap above twice that. Left to the history of a run, that
# decided whether a pyramid_lossless decode took about 1300 or 3000 page
# faults, and moved decode_mbps by 12% from process to process. Freeing one
# block larger than any array a workload makes, and under glibc's 32 MiB cap,
# sets that state before anything is timed.
ALLOCATOR_WARMUP_BYTES = 16_000_000

# Span name -> per-layer metric, in ms of self time per MB of float32 input.
MS_PER_MB = {
    "codec.encode": "codec.entropy_encode_ms_per_mb",
    "codec.decode": "codec.entropy_decode_ms_per_mb",
    "tensor.stats": "tensor.stats_ms_per_mb",
    "tensor.refine": "tensor.refine_ms_per_mb",
    "conversion.quantize": "conversion.quantize_ms_per_mb",
    "conversion.dequantize": "conversion.dequantize_ms_per_mb",
    "packing.pack": "packing.pack_ms_per_mb",
    "packing.unpack": "packing.unpack_ms_per_mb",
    "channels.score": "channels.score_ms_per_mb",
    "channels.select": "channels.select_ms_per_mb",
    "channels.prune": "channels.prune_ms_per_mb",
    "channels.restore": "channels.restore_ms_per_mb",
    "lcr.encode": "lcr.encode_ms_per_mb",
    "lcr.decode": "lcr.decode_ms_per_mb",
    "bitstream.serialize": "bitstream.serialize_ms_per_mb",
    "bitstream.parse": "bitstream.parse_ms_per_mb",
    "pipeline.encode": "pipeline.encode_self_ms_per_mb",
    "pipeline.decode": "pipeline.decode_self_ms_per_mb",
}


class CheckFailed(Exception):
    """An operation returned an output that is not correct."""


@dataclass
class Operations:
    """Attempted and failed operations, with the traceback of each failure."""

    attempted: int = 0
    failed: int = 0
    failures: list[dict] = field(default_factory=list)

    def run(self, label: str, call, check):
        """Time `call`, then `check` its output; return (output, ns) or (None, None)."""
        self.attempted += 1
        try:
            start = time.perf_counter_ns()
            out = call()
            elapsed = time.perf_counter_ns() - start
            check(out)
        except Exception:
            self.failed += 1
            self.failures.append({"op": label, "traceback": traceback.format_exc()})
            return None, None
        return out, elapsed

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_stream(stream: bytes, arrays: list[np.ndarray], expected_sha: str | None) -> None:
    units = parse_stream(stream)
    if [h.original_channels for h, _ in units] != [a.shape[0] for a in arrays]:
        raise CheckFailed("stream units do not match the group's tensors")
    if expected_sha is not None and sha256(stream) != expected_sha:
        raise CheckFailed("stream bytes differ from an earlier encode of the same group")


def check_decoded(group, arrays: list[np.ndarray]) -> None:
    shapes = [t.shape for t in group.tensors]
    if shapes != [a.shape for a in arrays]:
        raise CheckFailed(f"decoded shapes {shapes} != source {[a.shape for a in arrays]}")
    for t, a in zip(group.tensors, arrays):
        src, dec = a.astype(np.float64), t.data.astype(np.float64)
        for what, want, got in (("mean", src.mean(), dec.mean()), ("std", src.std(), dec.std())):
            if abs(got - want) > STATS_REL_TOL * abs(want):
                raise CheckFailed(f"decoded {what} {got!r} not within 1e-4 of source {want!r}")


def psnr_db(source: np.ndarray, decoded: np.ndarray) -> float:
    """PSNR with peak = the source tensor's max - min."""
    src = source.astype(np.float64)
    mse = float(np.mean((src - decoded.astype(np.float64)) ** 2))
    peak = float(src.max() - src.min())
    return 10.0 * np.log10(peak * peak / mse)


def byte_split(stream: bytes) -> dict[str, int]:
    """Header, LCR-rank and inner-payload bytes of an FCMB stream.

    Header bytes are measured by re-serialising the parsed headers with empty
    payloads, so the three parts summing to the stream length is a check.
    """
    units = parse_stream(stream)
    rank = sum((h.lcr_rank.bit_length() + 7) // 8 for h, _ in units)
    payload = sum(len(p) for _, p in units)
    header = len(serialize_stream([(h, b"") for h, _ in units])) - rank
    return {"header": header, "rank": rank, "payload": payload}


def with_peak(call, peaks: list[int]):
    """Wrap `call` to append to `peaks` its tracemalloc peak above the level before it."""

    def measured(*args):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = call(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - base)
        return out

    return measured


@dataclass
class Sample:
    """One group coded without tracing; speeds are host_speed(kind) around each call."""

    mb: float
    encode_ns: int
    decode_ns: int
    encode_speed: float
    decode_speed: float


@dataclass
class FirstPass:
    """Figures of the first pass only, which every run of a seed codes alike."""

    sha256: list = field(default_factory=list)
    bits: int = 0
    elements: int = 0
    psnr: list = field(default_factory=list)
    splits: list = field(default_factory=list)
    props: list = field(default_factory=list)
    long_codewords: int = 0
    codewords: int = 0

    def add(self, arrays, stream, decoded, cfg) -> None:
        self.sha256.append(sha256(stream) if stream is not None else None)
        if stream is not None:
            self.bits += 8 * len(stream)
            self.elements += sum(a.size for a in arrays)
            self.splits.append(byte_split(stream))
        if decoded is not None:
            self.psnr += [psnr_db(a, t.data) for a, t in zip(arrays, decoded.tensors)]
        self.props.append(input_properties(arrays))
        if cfg.codec == CodecId.BLOCK_DCT:
            lengths = np.concatenate([codeword_lengths(a, cfg) for a in arrays])
            self.long_codewords += int((lengths > 16).sum())
            self.codewords += lengths.size

    def input_report(self) -> dict:
        return {
            "zero_fraction": statistics.fmean(p["zero_fraction"] for p in self.props),
            "channel_energy_p90_over_p10": statistics.median(
                p["channel_energy_p90_over_p10"] for p in self.props
            ),
            "long_codeword_share": self.long_codewords / self.codewords if self.codewords else None,
        }


@dataclass
class TraceTally:
    """Per-layer totals over the traced groups, self times rescaled by host speed."""

    mb: float = 0.0
    payload_bits: int = 0
    tensors: int = 0
    root_ns: int = 0
    untraced_ns: int = 0
    self_ns: dict = field(default_factory=dict)
    calls: dict = field(default_factory=dict)

    def add(self, tracer: spans.Tracer, call_ns: list[int], speed: float) -> None:
        """Add one group's spans; `call_ns` is the measured time of each traced call.

        The roots must be the encode and decode spans, each covering its call,
        so child plus self times add up to the traced fcm_encode + fcm_decode.
        """
        roots = [s for s in tracer.spans if s.parent == -1]
        if [s.name for s in roots] != ["pipeline.encode", "pipeline.decode"]:
            raise spans.TraceGuardError(f"root spans {[s.name for s in roots]} are not one encode, one decode")
        for root, ns in zip(roots, call_ns):
            if not 0 <= ns - root.duration_ns <= ROOT_GAP_NS + ROOT_GAP_SHARE * ns:
                raise spans.TraceGuardError(
                    f"span {root.name!r} lasts {root.duration_ns} ns of a {ns} ns call"
                )
        totals = tracer.totals()
        self.root_ns += sum(s.duration_ns for s in roots)
        for name, (calls, ns) in totals.items():
            self.calls[name] = self.calls.get(name, 0) + calls
            self.self_ns[name] = self.self_ns.get(name, 0.0) + ns * speed

    def metrics(self, splits: list[dict]) -> dict:
        def ms_per_mb(*names):
            return sum(self.self_ns.get(n, 0.0) for n in names) / 1e6 / self.mb

        out = {m: (ms_per_mb(s), "ms/MB") for s, m in MS_PER_MB.items()}
        out["codec.transform_ms_per_mb"] = (ms_per_mb("codec.dct", "codec.idct"), "ms/MB")
        out["codec.decode_ns_per_payload_bit"] = (
            self.self_ns.get("codec.decode", 0.0) / self.payload_bits,
            "ns/bit",
        )
        out["tensor.stats_calls"] = (self.calls.get("tensor.stats", 0) / self.tensors, "count/tensor")
        for part in ("header", "rank", "payload"):
            out[f"bitstream.{part}_bytes"] = (statistics.fmean(s[part] for s in splits), "B/group")
        out["trace.overhead_ratio"] = (self.root_ns / self.untraced_ns, "ratio")
        return out


def _summary(values) -> dict:
    values = list(values)
    return {"median": statistics.median(values), "min": min(values), "max": max(values), "n": len(values)}


def run(workload: Workload, seed: int, seconds: float, traced: bool) -> dict:
    """Code groups 0, 1, ... of the workload, repeating passes until `seconds` is spent.

    Every run codes at least one full pass, and quality and byte figures come
    from the first pass only, so they repeat exactly for a seed. With
    `traced`, each group is coded again with the layer bindings wrapped, and
    the traced stream must equal the untraced one byte for byte.
    """
    cfg = workload.config
    ops = Operations()
    first = FirstPass()
    tally = TraceTally()
    fired: set[str] = set()
    samples: list[Sample] = []
    peaks: list[int] = []
    kind = "interpreter" if cfg.codec == CodecId.BLOCK_DCT else "native"
    host_speed(kind)  # the first call runs cold
    np.empty(ALLOCATOR_WARMUP_BYTES, dtype=np.uint8)

    start = time.monotonic()
    index = 0
    while index < workload.groups or time.monotonic() - start < seconds:
        g = index % workload.groups
        arrays = make_group(workload, seed, g)
        group = to_group(arrays)
        mb = sum(a.nbytes for a in arrays) / 1e6
        expected = first.sha256[g] if index >= workload.groups else None
        label = f"group {g} pass {index // workload.groups}"
        encode, decode = fcmcodec.pipeline.fcm_encode, fcmcodec.pipeline.fcm_decode
        memory = index == 0 and not traced
        if memory:
            tracemalloc.start()
            encode, decode = with_peak(encode, peaks), with_peak(decode, peaks)

        speed_a = host_speed(kind)
        stream, enc_ns = ops.run(
            f"fcm_encode {label}",
            lambda: encode(group, cfg),
            lambda s: check_stream(s, arrays, expected),
        )
        speed_b = host_speed(kind)
        decoded = dec_ns = None
        if stream is not None:
            decoded, dec_ns = ops.run(
                f"fcm_decode {label}",
                lambda: decode(stream),
                lambda d: check_decoded(d, arrays),
            )
        speed_c = host_speed(kind)
        if memory:
            tracemalloc.stop()
        if index < workload.groups:
            first.add(arrays, stream, decoded, cfg)
        if decoded is not None and not memory:
            samples.append(Sample(mb, enc_ns, dec_ns, (speed_a + speed_b) / 2, (speed_b + speed_c) / 2))

        if traced and decoded is not None:
            sha = sha256(stream)
            decoded = None
            tracer = spans.Tracer()
            # Only the calls run inside the root spans; their checks run after.
            t_encode = tracer.wrap(encode, "pipeline.encode")
            t_decode = tracer.wrap(decode, "pipeline.decode")
            with spans.installed(tracer):
                t_stream, t_enc_ns = ops.run(
                    f"traced fcm_encode {label}",
                    lambda: t_encode(group, cfg),
                    lambda s: check_stream(s, arrays, sha),
                )
                if t_stream is not None:
                    decoded, t_dec_ns = ops.run(
                        f"traced fcm_decode {label}",
                        lambda: t_decode(t_stream),
                        lambda d: check_decoded(d, arrays),
                    )
            spans.check_removed()
            fired |= {s.name for s in tracer.spans}
            if decoded is not None:
                tally.add(tracer, [t_enc_ns, t_dec_ns], (speed_c + host_speed(kind)) / 2)
                tally.untraced_ns += enc_ns + dec_ns
                tally.mb += mb
                tally.payload_bits += 8 * byte_split(stream)["payload"]
                tally.tensors += len(arrays)
        del arrays, group, stream, decoded
        index += 1

    report = {
        "workload": workload.name,
        "seed": seed,
        "groups_coded": index,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "error_rate": ops.error_rate,
        "failures": ops.failures,
        "stream_sha256": first.sha256,
        "input": first.input_report(),
    }
    metrics = {}
    if samples:
        report["raw_encode_ms"] = _summary(s.encode_ns / 1e6 for s in samples)
        report["raw_decode_ms"] = _summary(s.decode_ns / 1e6 for s in samples)
        report["host_speed"] = _summary(s.encode_speed for s in samples)
    if samples and not traced:
        metrics = {
            "encode_mbps": (
                statistics.median(s.mb * 1e9 / (s.encode_ns * s.encode_speed) for s in samples),
                "MB/s",
            ),
            "decode_mbps": (
                statistics.median(s.mb * 1e9 / (s.decode_ns * s.decode_speed) for s in samples),
                "MB/s",
            ),
            "bits_per_element": (first.bits / first.elements, "bits/element"),
            "psnr_db": (statistics.fmean(first.psnr), "dB"),
        }
    if peaks and not traced:
        metrics["peak_alloc_mb"] = (max(peaks) / 1e6, "MB")
    if traced and tally.mb:
        if not ops.failed:  # a failed call can stop later layers from firing
            spans.check_fired(fired, cfg, [c for c, _, _ in workload.shapes])
        metrics = tally.metrics(first.splits)
        report["trace_root_ns"] = tally.root_ns

    return {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "report": report,
    }
