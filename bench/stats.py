"""Small statistics helpers shared by the benchmark's runner and checker.

A *span* here is the plain tuple ``(name, start, end, tid)`` in
``perf_counter`` seconds; spans recorded by ``repro.profile.Tracer`` are
converted to that shape so in-process and client-side (serve) traces go
through the same arithmetic.
"""

from __future__ import annotations

import bisect
import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Span = Tuple[str, float, float, int]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def tail_samples(count: int, q: float) -> int:
    """How many of ``count`` samples lie beyond the ``q`` percentile."""
    return count - max(1, math.ceil(q * count))


def geomean(values: Iterable[float]) -> float:
    logs = [math.log(v) for v in values]
    return math.exp(sum(logs) / len(logs))


def spread(values: Sequence[float]) -> Optional[float]:
    """Inter-quartile distance as a share of the median (None if < 4)."""
    if len(values) < 4:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / mid if mid else None


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def covered(
    parent: Tuple[float, float], children: Iterable[Tuple[float, float]]
) -> float:
    """Length of ``parent`` that the child intervals cover."""
    lo, hi = parent
    return union_length(
        (max(lo, s), min(hi, e)) for s, e in children if e > lo and s < hi
    )


def self_time(
    parent: Tuple[float, float], children: Iterable[Tuple[float, float]]
) -> float:
    """A span's duration minus the part of it its child spans cover."""
    return (parent[1] - parent[0]) - covered(parent, children)


def span_totals(spans: Iterable[Span]) -> Dict[str, Tuple[int, float]]:
    """``name -> (calls, busy seconds)`` summed over every span."""
    totals: Dict[str, Tuple[int, float]] = {}
    for name, start, end, _tid in spans:
        calls, busy = totals.get(name, (0, 0.0))
        totals[name] = (calls + 1, busy + (end - start))
    return totals


def chrome_trace(spans: Sequence[Span]) -> Dict[str, object]:
    """The spans as a Chrome ``traceEvents`` document."""
    t0 = min((s[1] for s in spans), default=0.0)
    events: List[Dict[str, object]] = [
        {
            "name": name,
            "cat": name.split(".", 1)[0],
            "ph": "X",
            "ts": (start - t0) * 1e6,
            "dur": (end - start) * 1e6,
            "pid": 1,
            "tid": tid,
        }
        for name, start, end, tid in spans
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def probe_around(
    times: Sequence[float], values: Sequence[float], start: float, end: float
) -> float:
    """Mean of the last probe taken by ``start`` and the first taken
    after ``end`` (``times`` ascending; the nearest one if a side has none)."""
    before = max(bisect.bisect_right(times, start) - 1, 0)
    after = min(bisect.bisect_left(times, end), len(times) - 1)
    return (values[before] + values[after]) / 2.0
