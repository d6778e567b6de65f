"""Deterministic, shard-count-invariant work splitting.

A :class:`ShardPlan` divides a contiguous index range ``0..total`` into
``shards`` slices.  The split is the one rule every sharded subsystem
shares (soak campaigns, study evaluation batches, the cluster router's
slot map):

* **contiguous and complete** — concatenating the slices reproduces
  ``0..total`` exactly, in order;
* **deterministic** — the same ``(total, shards)`` always yields the
  same slices, independent of hash randomization, platform, or process;
* **shard-count-invariant merges** — because each slice is a contiguous
  run of *global* indices, per-item results can be replayed in global
  index order and any downstream aggregate is independent of how many
  shards executed them.  (This is why a soak triage report is
  byte-identical for ``--shards 1`` and ``--shards 8``.)

The arithmetic: ``base, extra = divmod(total, shards)`` — the first
``extra`` shards take ``base + 1`` items, the rest ``base``.  Requested
shard counts are clamped to at least 1; empty trailing shards (when
``shards > total``) are kept so shard *indices* stay stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple, TypeVar

T = TypeVar("T")


@dataclass(frozen=True)
class ShardPlan:
    """How ``total`` items split across ``shards`` workers."""

    total: int
    shards: int = 1

    def __post_init__(self) -> None:
        if self.total < 0:
            raise ValueError(f"negative total: {self.total}")

    @property
    def count(self) -> int:
        """Effective shard count (requests below 1 clamp to 1)."""
        return max(1, int(self.shards))

    def ranges(self) -> List[Tuple[int, int]]:
        """Contiguous ``(start, count)`` slices covering ``0..total``."""
        shards = self.count
        base, extra = divmod(self.total, shards)
        ranges: List[Tuple[int, int]] = []
        start = 0
        for i in range(shards):
            count = base + (1 if i < extra else 0)
            ranges.append((start, count))
            start += count
        return ranges

    def shard_of(self, index: int) -> int:
        """Which shard owns global item ``index``."""
        if not 0 <= index < self.total:
            raise IndexError(f"index {index} outside 0..{self.total}")
        base, extra = divmod(self.total, self.count)
        boundary = (base + 1) * extra
        if index < boundary:
            return index // (base + 1)
        return extra + (index - boundary) // base

    def scatter(self, items: Sequence[T]) -> List[Sequence[T]]:
        """Partition ``items`` (length ``total``) along the plan."""
        if len(items) != self.total:
            raise ValueError(
                f"plan covers {self.total} items, got {len(items)}"
            )
        return [items[start:start + count] for start, count in self.ranges()]
