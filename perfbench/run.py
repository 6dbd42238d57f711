"""fcmcodec benchmark: seeded feature pyramids through fcm_encode / fcm_decode.

    python3 perfbench/run.py --workload pyramid_dct --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; fcmcodec is imported from its `src/`. With
`--trace 0` the last line of output carries the end-to-end metrics, with
`--trace 1` the per-layer metrics of a traced run. The line before it is a
JSON report: stream sha256 values, input properties, failures with their
tracebacks, and timing summaries.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 11  # cold set-ups per run; setup_s is their median
SETUP_TIMEOUT_S = 60


def measure_setup() -> list[tuple[float, float]]:
    """(seconds, host speed) of SETUP_SAMPLES set-ups, each in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py")],
            capture_output=True,
            text=True,
            check=True,
            timeout=SETUP_TIMEOUT_S,
        )
        seconds, speed = map(float, done.stdout.split())
        samples.append((seconds, speed))
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    from setup_probe import set_up

    try:
        set_up()
    except (FileNotFoundError, ImportError) as exc:
        print(f"cannot set up fcmcodec: {exc}", file=sys.stderr)
        return 2
    setups = [] if args.trace else measure_setup()

    import harness
    from corpus import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    result = harness.run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    report = result.pop("report")
    for failure in report["failures"]:
        print(f"FAILED {failure['op']}\n{failure['traceback']}", file=sys.stderr)
    if setups:
        setup_s = statistics.median(seconds * speed for seconds, speed in setups)
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
        report["raw_setup_s"] = [seconds for seconds, _ in setups]
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
