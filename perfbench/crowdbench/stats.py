"""Sample statistics: raw-sample percentiles, the ladder's stop rule and
the backlog-growth detector.

Everything here works on plain sequences of numbers, so it is tested
without building a road network.  Percentiles are always taken from the
raw samples: the repository's histogram buckets (100/250/500 ms edges)
are too coarse to show a 300 -> 260 ms move.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: A percentile is trusted only when at least this many samples lie
#: beyond it; with fewer, one outlier moves it.
MIN_BEYOND = 10

#: The fixed doubling ladder of offered rates (queries per second).
LADDER_QPS: Tuple[float, ...] = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

#: Requests sent per ladder rung.  40 samples support p74, the
#: percentile the latency limit is applied to on a rung.
RUNG_REQUESTS = 40

#: Queue-depth rise (requests) between the first and last third of a
#: rung that counts as a growing backlog.
DEPTH_TOLERANCE = 2.0

#: Generator-lateness rise (ms) between the first and last third of a
#: rung that counts as the load generator falling behind its schedule.
LATE_TOLERANCE_MS = 50.0


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0 <= q <= 1) of raw samples.

    Linear interpolation between the two nearest order statistics, the
    same rule as ``numpy.percentile``'s default.
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} outside [0, 1]")
    ordered = sorted(samples)
    position = q * (len(ordered) - 1)
    lo = math.floor(position)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (position - lo)


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the ``q``-quantile.

    The quantile sits at position ``q * (n - 1)`` of the sorted sample
    (see :func:`percentile`); the samples after that position count.
    """
    if n < 1:
        return 0
    # The epsilon keeps 0.9 * 90 (= 80.99999999999999) at position 81.
    return n - 1 - math.floor(q * (n - 1) + 1e-9)


def supported(n: int, q: float) -> bool:
    """Whether ``n`` samples support the ``q``-quantile (MIN_BEYOND beyond)."""
    return beyond(n, q) >= MIN_BEYOND


def highest_supported(n: int, cap: float = 0.9) -> Optional[float]:
    """The highest quantile <= ``cap`` that ``n`` samples support, or None."""
    if n <= MIN_BEYOND:
        return None
    return min(cap, (n - 1 - MIN_BEYOND) / (n - 1))


@dataclass(frozen=True)
class LatencySummary:
    """Median and p90 of one latency sample, with its support."""

    n: int
    p50_ms: float
    p90_ms: float

    @property
    def beyond_p90(self) -> int:
        """Samples beyond the p90 (p90 is trusted from MIN_BEYOND up)."""
        return beyond(self.n, 0.9)


def summarize(samples_ms: Sequence[float]) -> LatencySummary:
    """p50/p90 of a latency sample (ms)."""
    return LatencySummary(
        n=len(samples_ms),
        p50_ms=percentile(samples_ms, 0.5),
        p90_ms=percentile(samples_ms, 0.9),
    )


def growing(series: Sequence[float], tolerance: float) -> bool:
    """Whether a sampled series trends upward.

    True when the median of its last third exceeds the median of its
    first third by more than ``tolerance``.  A queue that drains between
    bursts stays flat; one the server cannot keep up with climbs.
    """
    if len(series) < 6:
        return False
    third = len(series) // 3
    return statistics.median(series[-third:]) - statistics.median(series[:third]) > tolerance


@dataclass
class Rung:
    """What one ladder rate produced.

    Attributes:
        rate_qps: Offered rate.
        latencies_ms: Due-time-to-answer latency of every answered request.
        failed: Requests failed, rejected or not answered in time.
        depths: ``QueryService.queue_depth()`` sampled at each arrival.
        late_ms: Generator lateness at each arrival.
    """

    rate_qps: float
    latencies_ms: List[float] = field(default_factory=list)
    failed: int = 0
    depths: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)

    def verdict(self, limit_ms: float) -> Tuple[bool, str]:
        """Whether the rung meets the limit, and why not when it fails."""
        if self.failed:
            return False, f"{self.failed} failed or rejected"
        q = highest_supported(len(self.latencies_ms))
        if q is None:
            return False, f"{len(self.latencies_ms)} samples support no percentile"
        value = percentile(self.latencies_ms, q)
        if value > limit_ms:
            return False, f"p{100 * q:.0f} {value:.1f} ms > {limit_ms:.0f} ms"
        if growing(self.depths, DEPTH_TOLERANCE):
            return False, "queue depth grows"
        if growing(self.late_ms, LATE_TOLERANCE_MS):
            return False, "generator falls behind"
        return True, f"p{100 * q:.0f} {value:.1f} ms"


def climb(
    rates: Sequence[float],
    run_rung: Callable[[float], Rung],
    limit_ms: float,
) -> Tuple[float, List[Dict[str, object]]]:
    """Walk the ladder upward until a rung fails.

    Returns:
        ``(max_rate, log)``: the highest rate whose rung and every rung
        below it passed (0 when the first fails), and one entry per rung
        run.
    """
    best = 0.0
    log: List[Dict[str, object]] = []
    for rate in rates:
        rung = run_rung(rate)
        ok, why = rung.verdict(limit_ms)
        log.append({"rate_qps": rate, "ok": ok, "why": why})
        if not ok:
            break
        best = rate
    return best, log
