"""Temporal multiplexing: run a sequence of kernels on one overlay.

The paper's Q5 argues that microsecond reconfiguration enables "efficient
temporal multiplexing at very fine time scales" — switching the overlay
between applications costs only a configuration reload, versus >1 s for an
FPGA bitstream reflash.  This module executes a kernel *schedule sequence*
on one overlay, charging reconfiguration between kernels, and compares
against the reflash-per-kernel alternative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..adg import SysADG
from ..scheduler import Schedule
from .batch import simulate_batch
from .simulator import SimResult

#: Cycles to drain the fabric and reload a configuration through the
#: D-cache (one 64-bit word per ~4 cycles + pipeline restart).
RECONFIG_BASE_CYCLES = 1000
RECONFIG_CYCLES_PER_WORD = 4

#: Full-FPGA bitstream reflash (the HLS alternative), seconds.
FPGA_REFLASH_SECONDS = 1.3


def reconfiguration_cycles(schedule: Schedule) -> int:
    """Cycles to switch the overlay to ``schedule``'s configuration."""
    return RECONFIG_BASE_CYCLES + RECONFIG_CYCLES_PER_WORD * (
        schedule.mdfg.config_words
    )


@dataclass
class MultiplexResult:
    """Outcome of running a kernel sequence on one overlay."""

    overlay: str
    kernels: List[str]
    compute_cycles: float
    reconfig_cycles: float
    switches: int
    per_kernel: Dict[str, SimResult]

    @property
    def total_cycles(self) -> float:
        return self.compute_cycles + self.reconfig_cycles

    @property
    def reconfig_overhead(self) -> float:
        """Fraction of total time spent reconfiguring."""
        if self.total_cycles <= 0:
            return 0.0
        return self.reconfig_cycles / self.total_cycles

    def seconds(self, frequency_mhz: float) -> float:
        return self.total_cycles / (frequency_mhz * 1e6)

    def reflash_alternative_seconds(self, frequency_mhz: float) -> float:
        """The same sequence if every switch were an FPGA reflash."""
        return (
            self.compute_cycles / (frequency_mhz * 1e6)
            + self.switches * FPGA_REFLASH_SECONDS
        )


def run_sequence(
    schedules: Sequence[Schedule],
    sysadg: SysADG,
    repeats: int = 1,
    core: Optional[str] = None,
) -> MultiplexResult:
    """Execute ``schedules`` back-to-back on the overlay, ``repeats`` times.

    Consecutive runs of the *same* configuration skip the reconfiguration
    (the overlay is already programmed).  The unique configurations in the
    sequence are stepped as one :func:`~repro.sim.batch.simulate_batch`
    pass (first-appearance order): one kernel call for the whole sequence.
    """
    if not schedules:
        raise ValueError("need at least one schedule")
    unique: Dict[str, Schedule] = {}
    for schedule in schedules:
        key = f"{schedule.mdfg.workload}/{schedule.mdfg.variant}"
        if key not in unique:
            unique[key] = schedule
    stepped = simulate_batch(
        [(schedule, sysadg) for schedule in unique.values()], core=core
    )
    per_kernel: Dict[str, SimResult] = dict(zip(unique, stepped))
    compute = 0.0
    reconfig = 0.0
    switches = 0
    current_config: Optional[str] = None
    for _ in range(repeats):
        for schedule in schedules:
            key = f"{schedule.mdfg.workload}/{schedule.mdfg.variant}"
            sim = per_kernel[key]
            # simulate_schedule already charges one config load; separate
            # the compute portion so switching costs are explicit here.
            compute += sim.cycles - schedule.mdfg.config_words
            if current_config != key:
                reconfig += reconfiguration_cycles(schedule)
                switches += 1
                current_config = key
    return MultiplexResult(
        overlay=sysadg.name,
        kernels=[s.mdfg.workload for s in schedules],
        compute_cycles=compute,
        reconfig_cycles=reconfig,
        switches=switches,
        per_kernel=per_kernel,
    )
