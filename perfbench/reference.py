"""Fixed reference work that gauges how fast the host runs right now.

Shared hosts change speed by up to half for seconds at a time, which swamps
most changes to the codec. Timing a fixed piece of work next to each measured
operation, and rescaling the operation's time by it, gives the time the
operation would take on a host where the reference takes its nominal time.

There are two kinds of reference work, because interpreted and native code
do not slow down alike. "interpreter" is a Python bit-packing loop, the kind
of loop that carries the BLOCK_DCT path. "native" is a zlib compress plus a
float64 mean/variance pass, the kind of work that carries the RAW_LOSSLESS
path. Cold set-up (imports, extension initialisation) tracks the native kind
more closely than the interpreter kind.
"""

from __future__ import annotations

import time
import zlib

import numpy as np

_RNG = np.random.default_rng(0)
_SAMPLES = (np.cumsum(_RNG.integers(-3, 4, 49152)) % 1024).astype("<u2").tobytes()
_FIELD = _RNG.standard_normal(200_000)


def _pack_bits() -> bytearray:
    buf = bytearray()
    acc = nbits = 0
    for i in range(6_000):
        value = i & 0x1F
        for shift in range(4, -1, -1):
            acc = (acc << 1) | ((value >> shift) & 1)
            nbits += 1
            if nbits == 8:
                buf.append(acc)
                acc = nbits = 0
    return buf


def _native() -> float:
    zlib.compress(_SAMPLES, 6)
    x = _FIELD.astype(np.float32).astype(np.float64)
    return float(np.mean((x - x.mean()) ** 2))


# kind -> (work, its time in ns on the 2-core host the bounds were set on)
KINDS = {"interpreter": (_pack_bits, 6.0e6), "native": (_native, 8.0e6)}


def host_speed(kind: str) -> float:
    """Nominal over measured time of the reference work: above 1 on a fast host."""
    work, nominal_ns = KINDS[kind]
    start = time.perf_counter_ns()
    work()
    return nominal_ns / (time.perf_counter_ns() - start)
