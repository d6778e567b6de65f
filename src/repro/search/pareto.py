"""Multi-objective frontier math: dominance, frontier, hypervolume.

Pure functions over plain numeric vectors so the property-based tests can
hammer them without any DSE machinery.  Every routine is deterministic:
ties break by point value, returned indices are sorted, and the default
hypervolume reference point is derived from the data by a fixed rule
(worst value per axis plus/minus one), never from wall-clock or RNG.

Axis *senses* say which direction is better: the DSE objective is
maximized, resource axes (LUT/FF/BRAM/DSP) are minimized — the same
perf-vs-area trade-off the paper sweeps in Fig. 14-16.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

#: Sense tokens accepted by :func:`parse_axis`.
SENSES = ("max", "min")


@dataclass(frozen=True)
class Axis:
    """One objective axis: a trial attribute name plus its sense."""

    name: str
    sense: str  # "max" | "min"

    def __post_init__(self) -> None:
        if self.sense not in SENSES:
            raise ValueError(f"axis sense must be max|min, got {self.sense!r}")

    def __str__(self) -> str:
        return f"{self.name}:{self.sense}"


#: The default study axes: modeled performance against the FPGA resource
#: vector (Fig. 14-16's sweep, generalized to every resource class).
DEFAULT_AXES: Tuple[Axis, ...] = (
    Axis("objective", "max"),
    Axis("lut", "min"),
    Axis("dsp", "min"),
    Axis("bram", "min"),
)


def parse_axis(spec: str) -> Axis:
    """Parse ``"name:sense"`` (sense defaults to ``min``)."""
    name, sep, sense = spec.partition(":")
    if not name:
        raise ValueError(f"empty axis name in {spec!r}")
    return Axis(name, sense if sep else "min")


def _gain(value: float, sense: str) -> float:
    """Map a value to 'bigger is better' space."""
    return value if sense == "max" else -value


def dominates(
    a: Sequence[float], b: Sequence[float], senses: Sequence[str]
) -> bool:
    """True iff ``a`` is at least as good as ``b`` on every axis and
    strictly better on at least one."""
    if len(a) != len(b) or len(a) != len(senses):
        raise ValueError("point/sense dimension mismatch")
    better = False
    for x, y, sense in zip(a, b, senses):
        gx, gy = _gain(x, sense), _gain(y, sense)
        if gx < gy:
            return False
        if gx > gy:
            better = True
    return better


def non_dominated(
    points: Sequence[Sequence[float]], senses: Sequence[str]
) -> List[int]:
    """Sorted indices of the points no other point dominates.

    Duplicates of a frontier point are all kept (neither dominates the
    other), so the frontier's *value set* is invariant under duplication
    and under any permutation of the input.
    """
    keep: List[int] = []
    for i, p in enumerate(points):
        if not any(
            dominates(q, p, senses) for j, q in enumerate(points) if j != i
        ):
            keep.append(i)
    return keep


def default_reference(
    points: Sequence[Sequence[float]], senses: Sequence[str]
) -> List[float]:
    """Deterministic 'worst corner' just beyond the data: one unit worse
    than the worst observed value on each axis."""
    if not points:
        return [0.0] * len(senses)
    ref = []
    for k, sense in enumerate(senses):
        values = [p[k] for p in points]
        ref.append(min(values) - 1.0 if sense == "max" else max(values) + 1.0)
    return ref


def hypervolume(
    points: Sequence[Sequence[float]],
    senses: Sequence[str],
    reference: Optional[Sequence[float]] = None,
) -> float:
    """Volume dominated by ``points`` relative to ``reference``.

    Computed by recursive slicing on the last axis (exact, exponential in
    dimension — fine for the 2-4 axis frontiers we report).  Adding a
    dominated point never changes the result; adding a non-dominated point
    inside the reference box never decreases it.
    """
    if not points:
        return 0.0
    if reference is None:
        reference = default_reference(points, senses)
    if len(reference) != len(senses):
        raise ValueError("reference/sense dimension mismatch")
    gains = []
    for p in points:
        g = tuple(
            _gain(v, sense) - _gain(r, sense)
            for v, r, sense in zip(p, reference, senses)
        )
        if all(x > 0 for x in g):
            gains.append(g)
    return _box_union_volume(gains, len(senses))


def _box_union_volume(gains: Sequence[Tuple[float, ...]], k: int) -> float:
    """Volume of the union of boxes ``[0, g]`` for each gain vector."""
    if not gains:
        return 0.0
    if k == 1:
        return max(g[0] for g in gains)
    levels = sorted({g[k - 1] for g in gains})
    volume = 0.0
    prev = 0.0
    for z in levels:
        live = [g[: k - 1] for g in gains if g[k - 1] >= z]
        volume += (z - prev) * _box_union_volume(live, k - 1)
        prev = z
    return volume
