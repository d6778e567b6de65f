"""Stream dispatcher microarchitecture model (Section VI-B, Fig. 9).

The dispatcher bridges the control core and the spatial memory system.
Each stream's lifetime:

1. **stream config** — the core writes changed stream parameters into the
   stream register file (one RoCC write per changed parameter; unchanged
   parameters are reused across streams — the register file exists exactly
   so short streams don't pay full re-description);
2. **stream instantiation** — a finalize command decodes the register file
   into an elaborated stream entry in the dispatch queue (1 cycle);
3. **stream synchronization** — a Tomasulo-style scoreboard holds the entry
   until its engine/port resources are free; dispatch is out-of-order
   across entries but respects per-port request order; barriers block
   until named resources drain.

Performance contract (paper): one dispatch per cycle; N completions per
cycle; minimum RoCC-to-dispatch latency of 2 cycles.

Unlike the tile stepper (see :mod:`repro.sim.ckernel`), this model is
already event-form — it jumps straight between config/instantiate/
dispatch events instead of ticking cycles — which is the same invariant
the vectorized core's skip-ahead enforces: a cycle with no state change
is never materialized.  The two models meet in the steady state: the
dispatcher prices getting a stream *into* an engine, the tile stepper
prices the stream once it is resident.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

#: Cycles from the finalize command to dispatch when no hazard exists
#: (one cycle instantiation + one cycle dispatch).
MIN_DISPATCH_LATENCY = 2


@dataclass(frozen=True)
class StreamCommand:
    """One stream the control core wants to launch."""

    name: str
    engine: str
    port: str
    #: parameter values written to the stream register file.
    params: Dict[str, int] = field(default_factory=dict)
    #: cycles the stream occupies its engine/port once dispatched.
    duration: int = 10


@dataclass(frozen=True)
class Barrier:
    """A synchronization command: blocks until the resources drain.

    Empty ``resources`` means a full barrier over everything in flight.
    """

    resources: Tuple[str, ...] = ()


@dataclass
class DispatchRecord:
    name: str
    config_done: int      # cycle the last parameter write retired
    instantiated: int     # cycle the entry entered the dispatch queue
    dispatched: int       # cycle the entry left for its engine
    completes: int        # cycle the stream frees its resources

    @property
    def dispatch_latency(self) -> int:
        """Cycles from finalize (instantiation command) to dispatch."""
        return self.dispatched - self.config_done


class StreamDispatcher:
    """Cycle-accounting model of the dispatcher's three pipeline steps."""

    def __init__(self) -> None:
        #: stream register file: last written value per parameter.
        self.register_file: Dict[str, int] = {}
        #: resource -> cycle at which it becomes free.
        self._busy_until: Dict[str, int] = {}
        self.records: List[DispatchRecord] = []
        self._port_last_dispatch: Dict[str, int] = {}
        self._now = 0

    # ------------------------------------------------------------------
    def _config_cycles(self, command: StreamCommand) -> int:
        """Parameter writes needed: only *changed* registers are written."""
        writes = 0
        for key, value in sorted(command.params.items()):
            if self.register_file.get(key) != value:
                self.register_file[key] = value
                writes += 1
        return writes

    def issue(self, command: StreamCommand) -> DispatchRecord:
        """Run one stream through config -> instantiate -> dispatch."""
        config_done = self._now + self._config_cycles(command)
        instantiated = config_done + 1
        # Scoreboard: a port is exclusive (one stream at a time); engines
        # host multiple concurrent streams via their stream tables, so they
        # do not block dispatch.
        ready = max(
            instantiated + 1,
            self._busy_until.get(f"port:{command.port}", 0),
        )
        # Per-port request order: a younger stream on the same port never
        # overtakes an older one.
        ready = max(ready, self._port_last_dispatch.get(command.port, 0) + 1)
        dispatched = ready
        completes = dispatched + command.duration
        self._busy_until[f"port:{command.port}"] = completes
        self._busy_until[f"engine:{command.engine}"] = completes
        self._port_last_dispatch[command.port] = dispatched
        record = DispatchRecord(
            name=command.name,
            config_done=config_done,
            instantiated=instantiated,
            dispatched=dispatched,
            completes=completes,
        )
        self.records.append(record)
        # The core issues the next command the cycle after this finalize
        # (dispatch itself proceeds in the background).
        self._now = instantiated
        return record

    def barrier(self, barrier: Barrier = Barrier()) -> int:
        """Block until the named (or all) resources drain; returns cycle."""
        if barrier.resources:
            keys = [
                k
                for k in self._busy_until
                if any(k.endswith(r) for r in barrier.resources)
            ]
        else:
            keys = list(self._busy_until)
        wait_until = max(
            (self._busy_until[k] for k in keys), default=self._now
        )
        self._now = max(self._now, wait_until)
        # Prune drained scoreboard entries: a resource free at or before
        # ``now`` can never raise a future ready time (dispatch readiness
        # is already >= now + 2), so dropping it is semantics-preserving
        # and keeps scans O(live resources) on long command sequences.
        self._busy_until = {
            k: v for k, v in self._busy_until.items() if v > self._now
        }
        return self._now

    # ------------------------------------------------------------------
    def run(self, commands: Sequence) -> int:
        """Issue a command sequence; returns the cycle everything drains."""
        for command in commands:
            if isinstance(command, Barrier):
                self.barrier(command)
            else:
                self.issue(command)
        return self.barrier()

    @property
    def now(self) -> int:
        return self._now

    def dispatch_rate(self) -> float:
        """Dispatched streams per cycle over the busy window."""
        if not self.records:
            return 0.0
        span = max(r.dispatched for r in self.records) - min(
            r.config_done for r in self.records
        )
        return len(self.records) / max(1, span)
