"""The repository benchmark: one command, one workload per run.

    python3 perfbench/run.py --workload sim-micro-mdcc --seed 7 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the program from ``src/``
there and from nowhere else.  ``--trace 0`` measures the end-to-end
metrics with nothing wrapped; ``--trace 1`` is the separate traced run
that prints the per-layer metrics.  Every run first checks the program's
outputs and exits 1 without printing metrics if a check fails.  The last
line of standard output is the JSON result; the lines before it are a
human-readable summary.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SIM_WORKLOADS = ("sim-micro-mdcc", "sim-tpcw-multi")
TCP_WORKLOADS = ("tcp-micro-mdcc",)
#: fresh interpreters timed for the start-up part of ``setup_s``.
IMPORT_SAMPLES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=SIM_WORKLOADS + TCP_WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def start_up_seconds(module: str) -> float:
    """Median wall time for a fresh interpreter to start and import the
    workload's module, and with it the program."""
    from common import median

    code = f"import sys; sys.path[:0] = [{HERE!r}, {SRC!r}]; import {module}"
    samples = []
    for _ in range(IMPORT_SAMPLES):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        samples.append(time.perf_counter() - started)
    return median(samples)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    from common import END_TO_END, OUT_DIR, CheckFailed
    from tracing import PER_LAYER

    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}.bin") if args.trace else None
    try:
        if args.workload in SIM_WORKLOADS:
            import simwork

            if args.trace:
                report = simwork.run_traced(args.workload, args.seed, spans_path)
            else:
                report = simwork.run(
                    args.workload, args.seed, args.seconds, start_up_seconds("simwork")
                )
        else:
            import tcpwork

            if args.trace:
                report = tcpwork.run_traced(args.seed, spans_path)
            else:
                report = tcpwork.run(args.seed, args.seconds, start_up_seconds("tcpwork"))
    except CheckFailed as exc:
        print(f"perfbench: output check failed: {exc}", file=sys.stderr)
        return 1

    names = PER_LAYER if args.trace else END_TO_END
    metrics = report["metrics"]
    notes = " ".join(f"{key}={value}" for key, value in report["notes"].items())
    print(f"# {args.workload} seed={args.seed} trace={args.trace} {notes}")
    for name, unit in names:
        print(f"# {name:45s} {metrics[name]:>14.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": int(report["attempted"]),
                "failed": int(report["failed"]),
                "metrics": {
                    name: {"value": float(metrics[name]), "unit": unit} for name, unit in names
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
