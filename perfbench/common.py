"""Pieces shared by the simulated and the TCP workloads."""

from __future__ import annotations

import os
import resource
from typing import Dict, Sequence

from repro.metrics import percentile

#: (name, unit) of every end-to-end metric, in print order.
END_TO_END = (
    ("setup_s", "s"),
    ("drive_wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("commit_p50_ms", "ms"),
    ("commit_p99_ms", "ms"),
    ("commits_per_s", "1/s"),
    ("commit_share", "share"),
)

#: where runs write spans, server summaries and topologies (inside the
#: checkout, ignored by git).
OUT_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".perfbench")

#: a tail percentile needs at least this many samples beyond it.
TAIL_SAMPLES = 10


class CheckFailed(Exception):
    """An output check failed: the run reports no metrics."""


def latency_summary(values: Sequence[float]) -> Dict[str, float]:
    """Median and the highest percentile up to p99 that has at least
    :data:`TAIL_SAMPLES` samples beyond it, with the sample count."""
    count = len(values)
    if count < 2 * TAIL_SAMPLES:
        raise CheckFailed(f"only {count} committed write transactions to take percentiles of")
    ordered = sorted(values)
    fraction = min(0.99, 1.0 - TAIL_SAMPLES / count)
    return {
        "p50": percentile(ordered, 0.5),
        "tail": percentile(ordered, fraction),
        "tail_fraction": fraction,
        "samples": count,
    }


def median(values: Sequence[float]) -> float:
    return percentile(sorted(values), 0.5)


def peak_rss_mb(children: bool = False) -> float:
    """Peak RSS of this process, or the largest among its reaped children."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0
