"""Compare two ``results.json`` files, A (the parent) and B (the change).

    python bench/compare.py A.json B.json

One row per workload x end-to-end metric: both values, B's change
relative to A in the direction that is *worse* for the metric, the
metric's bound, and a verdict:

* ``worse``  - B is worse than A by more than the bound;
* ``better`` - B is better than A by more than the bound;
* ``same``   - the change is inside the bound;
* ``unresolved`` - the spread between a side's own reps (inter-quartile
  distance over median) is wider than the bound, so the change cannot
  be told from noise.

Exits 1 on any ``worse`` row or any rise in ``failed_share``.
"""

from __future__ import annotations

import json
import math
import sys
from typing import Any, Dict, List, Optional, Tuple

import spec


def worse_by(a: float, b: float, better: str) -> float:
    """B's change relative to A, positive when B is worse."""
    if a == b:
        return 0.0
    if a == 0:
        change = math.inf if b > 0 else -math.inf
    else:
        change = (b - a) / abs(a)
    return change if better == "lower" else -change


def verdict(
    change: float, bound: float, spreads: Tuple[Optional[float], Optional[float]]
) -> str:
    if any(s is not None and s > bound for s in spreads):
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> List[Dict[str, Any]]:
    specs = spec.end_to_end_specs(spec.load_benchmark())
    rows = []
    for workload, doc_a in a["workloads"].items():
        doc_b = b["workloads"].get(workload)
        if doc_b is None:
            continue
        for entry in specs:
            name = entry["name"]
            metric_a = doc_a["end_to_end"].get(name)
            metric_b = doc_b["end_to_end"].get(name)
            if metric_a is None or metric_b is None:
                continue
            change = worse_by(
                metric_a["value"], metric_b["value"], entry["better"]
            )
            if name == "failed_share":
                outcome = "worse" if change > 0 else "same"
            else:
                outcome = verdict(
                    change,
                    entry["bound"],
                    (metric_a.get("spread"), metric_b.get("spread")),
                )
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": entry["unit"],
                "a": metric_a["value"],
                "b": metric_b["value"],
                "worse_by": change,
                "bound": entry["bound"],
                "verdict": outcome,
            })
    return rows


def render(rows: List[Dict[str, Any]]) -> str:
    lines = [
        f"{'workload':<16}{'metric':<20}{'A':>16}{'B':>16}"
        f"{'worse by':>10}{'bound':>8}  verdict"
    ]
    for r in rows:
        lines.append(
            f"{r['workload']:<16}{r['metric']:<20}{r['a']:>16.4f}"
            f"{r['b']:>16.4f}{r['worse_by']:>+10.1%}{r['bound']:>8.0%}"
            f"  {r['verdict']} ({r['unit']})"
        )
    return "\n".join(lines)


def main(argv: List[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as fa, open(argv[2]) as fb:
        rows = compare(json.load(fa), json.load(fb))
    print(render(rows))
    bad = [r for r in rows if r["verdict"] == "worse"]
    print(f"{len(rows)} rows, {len(bad)} worse")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
