"""Analytical model of the HLS (Merlin/Vivado) baseline designs.

An HLS design for one kernel is a fixed-function pipeline characterized by
an unroll (parallelism) factor ``U`` and an initiation interval ``II``:

    compute_cycles = iterations x II / U
    memory_cycles  = DRAM bytes / DRAM bytes-per-cycle
    cycles         = max(compute, memory) + pipeline fill

DRAM traffic is each array's footprint (HLS kernels burst arrays into
on-chip BRAM and stream results back; on-chip reuse is free).  Untuned
designs pay the Table IV II penalties; tuned designs reach II=1 (or halved
for the variable-trip kernels, which additionally pad their iteration space
to the fixed maximum), and line-buffer kernels unlock wider unrolling.

HLS clocks are much higher than the overlay's (fixed-function pipelines
place/route well); the paper's speedups are wall-clock, so frequency is
part of the model.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir import Op, Workload
from ..model.resource import Resources
from ..model.resource.analytic import _FP_COSTS, _FP_SHARED
from .kernels import HlsKernelInfo, kernel_info

#: Achievable clock of Merlin-generated fixed-function pipelines (MHz).
HLS_FREQUENCY_MHZ = 240.0

#: DDR4 channel bandwidth seen by the HLS kernel, bytes per HLS cycle.
def hls_dram_bytes_per_cycle(channels: int = 1) -> float:
    return 19.2e9 / (HLS_FREQUENCY_MHZ * 1e6) * channels

#: Unroll caps: BRAM ports and partitioning limit parallelism; manual
#: tuning (strength reduction, line buffers) raises the ceiling.
UNTUNED_UNROLL_CAP = 8
TUNED_UNROLL_CAP = 16
LINE_BUFFER_UNROLL_CAP = 32

#: Pipeline fill/drain overhead in cycles.
PIPELINE_OVERHEAD = 120.0


@dataclass(frozen=True)
class HlsDesign:
    """One synthesized HLS design point."""

    workload: str
    unroll: int
    ii: int
    tuned: bool
    line_buffer_active: bool
    cycles: float
    resources: Resources

    @property
    def frequency_mhz(self) -> float:
        return HLS_FREQUENCY_MHZ

    @property
    def seconds(self) -> float:
        return self.cycles / (self.frequency_mhz * 1e6)


def _iterations(workload: Workload, info: HlsKernelInfo, tuned: bool) -> float:
    """Iterations the HLS pipeline executes.

    Tuning variable-trip kernels replaces data-dependent trip counts with
    the fixed maximum plus guarded (predicated) bodies — the pipeline then
    runs the *padded* iteration space (Section VIII-Q2).
    """
    if tuned and info.variable_trip_padding:
        return float(workload.trip_product)
    return workload.effective_trip_product


def _dram_bytes(workload: Workload, info: HlsKernelInfo, tuned: bool) -> float:
    """Off-chip traffic: every array streams on/off chip once."""
    return float(workload.footprint_bytes())


def _lane_resources(workload: Workload) -> Resources:
    """Datapath cost of one unrolled lane of the kernel's pipeline."""
    lut = 0.0
    dsp = 0.0
    bits = workload.dtype.scalar_bits
    is_float = workload.dtype.is_float
    for op, count in workload.op_counts().items():
        if is_float:
            if op is Op.MUL:
                unit = _FP_COSTS[("mul", bits)]
                lut += unit[0] * count
                dsp += unit[1] * count
            elif op is Op.DIV:
                lut += _FP_SHARED[("div", bits)] * count
            elif op is Op.SQRT:
                lut += _FP_SHARED[("sqrt", bits)] * count
            else:
                unit = _FP_COSTS[("add", bits)]
                lut += unit[0] * count
        else:
            if op is Op.MUL:
                dsp += max(1.0, bits / 24.0) * count * 0.5
                lut += bits * 1.5 * count / 8.0
            elif op is Op.DIV:
                lut += 6.0 * bits * count
            else:
                lut += 0.25 * bits * count
    # Load/store units and address generation per lane.
    mem_ops = workload.memory_op_count()
    lut += mem_ops * 60.0
    return Resources(lut=lut, ff=lut * 1.2, dsp=dsp)


def design_resources(workload: Workload, unroll: int, tuned: bool) -> Resources:
    """Whole-design resources: control + AXI + datapath x unroll + BRAM."""
    base = Resources(lut=9000.0, ff=12000.0, bram=8.0, dsp=2.0)
    lanes = _lane_resources(workload) * unroll
    bram = workload.footprint_bytes() / 4608.0
    # Array partitioning replicates BRAM banks roughly with unroll.
    bram *= max(1.0, unroll / 2.0)
    arrays = Resources(bram=bram, lut=unroll * 120.0)
    return base + lanes + arrays


def evaluate_design(
    workload: Workload,
    unroll: int,
    tuned: bool,
    dram_channels: int = 1,
) -> HlsDesign:
    """Model one (workload, unroll, tuned) HLS design point."""
    info = kernel_info(workload.name)
    ii = info.tuned_ii if tuned else info.untuned_ii
    line_buffer = tuned and info.line_buffer
    iterations = _iterations(workload, info, tuned)
    compute = iterations * ii / unroll
    memory = _dram_bytes(workload, info, tuned) / hls_dram_bytes_per_cycle(
        dram_channels
    )
    cycles = max(compute, memory) + PIPELINE_OVERHEAD
    return HlsDesign(
        workload=workload.name,
        unroll=unroll,
        ii=ii,
        tuned=tuned,
        line_buffer_active=line_buffer,
        cycles=cycles,
        resources=design_resources(workload, unroll, tuned),
    )


def unroll_cap(workload: Workload, tuned: bool) -> int:
    info = kernel_info(workload.name)
    if tuned and info.line_buffer:
        cap = LINE_BUFFER_UNROLL_CAP
    elif tuned:
        cap = TUNED_UNROLL_CAP
    else:
        cap = UNTUNED_UNROLL_CAP
    if tuned and info.prebuilt_db:
        cap *= 2  # the pre-built database finds aggressive configurations
    # HLS unrolls across the two innermost loop levels (fully unrolling a
    # short blocked loop and partially the next), unlike the overlay whose
    # vector lanes only widen the innermost dimension.
    trip_bound = workload.innermost.trip
    if len(workload.loops) >= 2:
        trip_bound *= workload.loops[-2].trip
    return min(cap, trip_bound)
