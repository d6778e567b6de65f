"""Config-scoped memoization of full-variant schedule results.

The DSE inner loop recomputes one expensive, *deterministic* function:
full variant scheduling (``schedule_workload``) — re-run by the
explorer's periodic variant upgrade and final polish, frequently against
an ADG fingerprint it has already scheduled.

:class:`ResultMemo` caches it, keyed by the content fingerprint of the
ADG (via :mod:`repro.engine.hashing`) plus the workload name, so a hit is
guaranteed to be byte-equivalent to recomputing.  Memos are scoped per
:class:`~repro.dse.DseConfig` fingerprint through
:func:`memo_for_config`, so two explorer runs over the same config share
results while different configs can never alias.  (Simulation results
are not memoized: since the vectorized core, fingerprinting a schedule
costs more than re-simulating it.)

Memoization is a **wall-clock optimization only**: the explorer still
charges the full *modeled* toolchain cost and bumps the same
:class:`~repro.dse.DseStats` counters on a hit, so checkpoint/resume
stays bit-identical (a resumed run has a cold memo) and the Fig. 15/20
modeled DSE-hours remain comparable across cache states.  Hit/miss
accounting lives here, in :class:`MemoStats`, and is reported by
``repro bench`` and the tracer counters instead.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, Tuple


@dataclass
class MemoStats:
    """Hit/miss counters for one memo scope (not checkpointed)."""

    schedule_hits: int = 0
    schedule_misses: int = 0

    @property
    def schedule_hit_rate(self) -> float:
        total = self.schedule_hits + self.schedule_misses
        return self.schedule_hits / total if total else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "schedule_hits": self.schedule_hits,
            "schedule_misses": self.schedule_misses,
            "schedule_hit_rate": self.schedule_hit_rate,
        }


class ResultMemo:
    """Thread-safe schedule result cache for one scope."""

    def __init__(self, scope: str = "") -> None:
        self.scope = scope
        self.stats = MemoStats()
        self._schedules: Dict[Tuple[str, str], Any] = {}
        self._lock = threading.Lock()

    def lookup_schedule(self, adg_fp: str, workload: str) -> Tuple[bool, Any]:
        """``(hit, schedule-or-None)``; unschedulable results memoize too.

        Hits return a clone, so callers may mutate freely.
        """
        key = (adg_fp, workload)
        with self._lock:
            if key in self._schedules:
                self.stats.schedule_hits += 1
                stored = self._schedules[key]
                return True, (stored.clone() if stored is not None else None)
            self.stats.schedule_misses += 1
            return False, None

    def store_schedule(self, adg_fp: str, workload: str, schedule: Any) -> None:
        with self._lock:
            self._schedules[(adg_fp, workload)] = (
                schedule.clone() if schedule is not None else None
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._schedules)


# ----------------------------------------------------------------------
# Per-config registry: explorer runs sharing a DseConfig fingerprint
# share one memo (within this process); workers get their own.
# ----------------------------------------------------------------------
_registry: Dict[str, ResultMemo] = {}
_registry_lock = threading.Lock()


def memo_for_config(config_key: str) -> ResultMemo:
    """The process-wide :class:`ResultMemo` for one DseConfig fingerprint."""
    with _registry_lock:
        memo = _registry.get(config_key)
        if memo is None:
            memo = _registry[config_key] = ResultMemo(scope=config_key)
        return memo


def drop_memo(config_key: str) -> None:
    """Forget one config's memo (benchmarks use this for cold runs)."""
    with _registry_lock:
        _registry.pop(config_key, None)


def clear_memos() -> None:
    with _registry_lock:
        _registry.clear()
