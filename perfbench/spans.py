"""Spans around calls into each coding layer, recorded from outside the program.

The tracer replaces the layer functions that `fcmcodec.pipeline` binds (and
`dctn`/`idctn` as bound in `fcmcodec.codec`) with timing wrappers, and puts
the originals back afterwards. Nothing under `src/` knows about it.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass

import fcmcodec.codec
import fcmcodec.pipeline

# (module, bound name) -> span name. The span name's prefix is the layer.
BINDINGS = {
    (fcmcodec.pipeline, "compute_global_stats"): "tensor.stats",
    (fcmcodec.pipeline, "apply_refinement"): "tensor.refine",
    (fcmcodec.pipeline, "score_channels"): "channels.score",
    (fcmcodec.pipeline, "select_pruned"): "channels.select",
    (fcmcodec.pipeline, "prune_channels"): "channels.prune",
    (fcmcodec.pipeline, "restore_channels"): "channels.restore",
    (fcmcodec.pipeline, "lcr_encode"): "lcr.encode",
    (fcmcodec.pipeline, "lcr_decode"): "lcr.decode",
    (fcmcodec.pipeline, "pack"): "packing.pack",
    (fcmcodec.pipeline, "unpack"): "packing.unpack",
    (fcmcodec.pipeline, "quantize_frame"): "conversion.quantize",
    (fcmcodec.pipeline, "dequantize_frame"): "conversion.dequantize",
    (fcmcodec.pipeline, "codec_encode"): "codec.encode",
    (fcmcodec.pipeline, "codec_decode"): "codec.decode",
    (fcmcodec.pipeline, "serialize_stream"): "bitstream.serialize",
    (fcmcodec.pipeline, "parse_stream"): "bitstream.parse",
    (fcmcodec.codec, "dctn"): "codec.dct",
    (fcmcodec.codec, "idctn"): "codec.idct",
}

PRUNING_SPANS = frozenset({"channels.prune", "channels.restore", "lcr.decode"})
TRANSFORM_SPANS = frozenset({"codec.dct", "codec.idct"})


class TraceGuardError(RuntimeError):
    """A layer binding is missing, never fired, or was not removed."""


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index into Tracer.spans, -1 for a root

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Single-threaded span recorder; spans nest by call order."""

    def __init__(self, clock=time.perf_counter_ns):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._clock = clock

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(Span(name, self._clock(), 0, self._stack[-1] if self._stack else -1))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end_ns = self._clock()

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        traced.span_name = name
        return traced

    def self_ns(self) -> list[int]:
        """Each span's duration minus the durations of its direct children.

        Children run inside their parent on one thread, so they never overlap
        and their sum is the part of the parent's interval they cover.
        """
        out = [s.duration_ns for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.duration_ns
        for s, own in zip(self.spans, out):
            if own < 0:
                raise TraceGuardError(f"children of span {s.name!r} exceed it by {-own} ns")
        return out

    def totals(self) -> dict[str, tuple[int, int]]:
        """Span name -> (call count, summed self time in ns)."""
        out: dict[str, tuple[int, int]] = {}
        for s, own in zip(self.spans, self.self_ns()):
            calls, ns = out.get(s.name, (0, 0))
            out[s.name] = (calls + 1, ns + own)
        return out


@contextmanager
def installed(tracer: Tracer):
    """Wrap every binding in BINDINGS for the duration of the block.

    A binding that no longer exists fails loudly, so a later change that
    renames or inlines a layer function cannot drop that layer silently.
    """
    originals = {}
    for (module, attr), name in BINDINGS.items():
        fn = getattr(module, attr, None)
        if not callable(fn):
            raise TraceGuardError(f"{module.__name__}.{attr} is gone; layer {name!r} cannot be traced")
        originals[(module, attr)] = fn
    try:
        for (module, attr), fn in originals.items():
            setattr(module, attr, tracer.wrap(fn, BINDINGS[(module, attr)]))
        yield
    finally:
        for (module, attr), fn in originals.items():
            setattr(module, attr, fn)


def expected_spans(config, channel_counts) -> set[str]:
    """Span names that must fire when coding tensors of these channel counts."""
    expected = set(BINDINGS.values())
    if not any(math.floor(config.prune_ratio * c) for c in channel_counts):
        expected -= PRUNING_SPANS
    if config.codec != fcmcodec.codec.CodecId.BLOCK_DCT:
        expected -= TRANSFORM_SPANS
    return expected


def check_fired(fired: set[str], config, channel_counts) -> None:
    """Raise unless every span expected for this workload is in `fired`."""
    missing = sorted(expected_spans(config, channel_counts) - fired)
    if missing:
        raise TraceGuardError(f"layer bindings never fired: {', '.join(missing)}")


def check_removed() -> None:
    """Raise unless every binding is the undecorated original again."""
    for module, attr in BINDINGS:
        if hasattr(getattr(module, attr), "span_name"):
            raise TraceGuardError(f"{module.__name__}.{attr} is still wrapped")
