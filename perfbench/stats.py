"""Percentiles and spreads shared by the benchmark and its steadiness check."""

from __future__ import annotations

import math
import statistics
from fractions import Fraction
from typing import Dict, Optional, Sequence

#: Percentiles a tail may be reported at, lowest first.
LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)

#: Samples that must lie beyond a percentile for it to count as a tail.
BEYOND = 10


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of the ``p``-th percentile among ``n``,
    computed exactly (``99.9 / 100 * 10000`` is not 9990 in floats)."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile of ``values`` (need not be sorted)."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(len(values), p) - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``p``-th."""
    return n - _rank(n, p)


def tail_percentile(n: int, ladder: Sequence[float] = LADDER) -> Optional[float]:
    """The highest percentile of ``ladder`` with at least ``BEYOND``
    samples beyond it, or ``None`` when even the lowest has too few."""
    best = None
    for p in ladder:
        if samples_beyond(n, p) >= BEYOND:
            best = p
    return best


def quartile_spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and the quartile distance as a share of the
    median, as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else math.inf,
    }


def summarize(segments: Sequence[Dict], tail: float) -> Dict[str, Dict]:
    """A run's end-to-end figures from the windows of its segments.

    Each segment holds ``latencies`` (one list per window, in operation
    order), each window's ``busy`` seconds and its calibration
    ``scales``.  The rate is the median over the windows of all
    segments of each window's operations per busy second; p50 and the
    ``tail`` percentile are taken over every latency of the run, each
    scaled by its window's calibration, and the tail must leave
    ``BEYOND`` samples beyond it.  Where segments label each operation
    with its class (``classes``, one list per window), the p50 of every
    class is given too (``class_p50_ms``).  Returns the figures scaled
    to the reference host, and raw.
    """
    out = {}
    for name in ("scaled", "raw"):
        rates, pooled = [], []
        by_class: Dict[str, list] = {}
        for segment in segments:
            windows = segment["latencies"]
            scales = segment["scales"] if name == "scaled" else [1.0] * len(windows)
            for index, (window, busy, scale) in enumerate(
                zip(windows, segment["busy"], scales)
            ):
                rates.append(len(window) / (busy * scale))
                pooled.extend(latency * scale for latency in window)
                if "classes" in segment:
                    for klass, latency in zip(segment["classes"][index], window):
                        by_class.setdefault(klass, []).append(latency * scale)
        qualified = tail_percentile(len(pooled))
        if qualified is None or qualified < tail:
            raise RuntimeError(
                f"run too short: {len(pooled)} samples cannot carry a p{tail:g}"
            )
        out[name] = {
            "ops_per_s": statistics.median(rates),
            "op_p50_ms": percentile(pooled, 50.0) * 1000.0,
            "op_tail_ms": percentile(pooled, tail) * 1000.0,
            "samples": len(pooled),
            "windows": len(rates),
        }
        if by_class:
            out[name]["class_p50_ms"] = {
                klass: percentile(samples, 50.0) * 1000.0
                for klass, samples in sorted(by_class.items())
            }
    out["raw"]["calibration_ms_median"] = 1000.0 * statistics.median(
        c for segment in segments for c in segment["calibrations"]
    )
    return out
