"""The benchmark's set-up: import fcmcodec and warm up both inner codecs.

Run as a script it does the set-up once in a fresh interpreter and prints the
seconds it took and the host speed (see `reference`) right after, so `run.py`
can take the median of several cold set-ups.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def set_up():
    """Import fcmcodec from this checkout's `src/` and code one tiny tensor per codec.

    The round trips pay the first-call cost of scipy.fft and zlib here, not in
    the first timed operation.
    """
    if not (SRC / "fcmcodec" / "__init__.py").is_file():
        raise FileNotFoundError(f"no fcmcodec sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fcmcodec
    import numpy as np

    if Path(fcmcodec.__file__).resolve().parent != SRC / "fcmcodec":
        raise ImportError(f"fcmcodec imported from {fcmcodec.__file__}, not from {SRC}")
    x = np.linspace(0.0, 1.0, 4 * 8 * 8, dtype=np.float32).reshape(4, 8, 8)
    group = fcmcodec.TensorGroup((fcmcodec.FeatureTensor(x),))
    for codec in fcmcodec.CodecId:
        cfg = fcmcodec.EncoderConfig(prune_ratio=0.5, codec=codec)
        fcmcodec.fcm_decode(fcmcodec.fcm_encode(group, cfg))


if __name__ == "__main__":
    start = time.perf_counter()
    set_up()
    elapsed = time.perf_counter() - start
    from reference import host_speed  # after set-up: it imports numpy

    # The first calls run cold; the median of several gauges the host itself.
    print(elapsed, statistics.median(host_speed("native") for _ in range(5)))
