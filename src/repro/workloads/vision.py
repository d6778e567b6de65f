"""Vitis Vision workloads (per Table II of the paper).

All nine kernels process 128x128 16-bit frames in batches of 4 (130x130 for
``derivative``, which needs a halo).  Fixed-point weights use multiply +
shift; several kernels are pure data movement or accumulate-only, which is
why their Table II op mixes have zero multiplies.
"""

from __future__ import annotations

from ..ir import I16, Op, Workload, WorkloadBuilder, vmax

FRAME = 128 * 128
BATCH = 4


def channel_extract() -> Workload:
    """Extract one channel from interleaved 4-channel pixels.

    Pure strided data movement: zero compute ops (Table II row: 0,0,0).
    The small-stride access is exactly the pattern Q2 identifies as
    HLS-hostile without strength reduction.
    """
    wb = WorkloadBuilder("channel-ext", suite="vision", dtype=I16, size_desc="128^2x4")
    src = wb.array("src", FRAME * BATCH * 4)
    dst = wb.array("dst", FRAME * BATCH)
    f = wb.loop("f", BATCH)
    p = wb.loop("p", FRAME)
    wb.assign(dst[f * FRAME + p], src[(f * FRAME + p) * 4])
    return wb.build()


def bgr2grey() -> Workload:
    """Weighted RGB-to-grey conversion: 3 multiplies, 2 adds, 1 shift."""
    wb = WorkloadBuilder("bgr2grey", suite="vision", dtype=I16, size_desc="128^2x4")
    src = wb.array("src", FRAME * BATCH * 3)
    dst = wb.array("dst", FRAME * BATCH)
    wgt = wb.array("wgt", 3)
    f = wb.loop("f", BATCH)
    p = wb.loop("p", FRAME)
    base = (f * FRAME + p) * 3
    grey = wgt[0] * src[base] + wgt[1] * src[base + 1] + wgt[2] * src[base + 2]
    wb.assign(dst[f * FRAME + p], grey >> 8)
    return wb.build()


def blur() -> Workload:
    """3x3 box blur: neighbor sum + normalizing shift, no multiplies."""
    wb = WorkloadBuilder("blur", suite="vision", dtype=I16, size_desc="128^2x4")
    n = 128
    inner = n - 2
    src = wb.array("src", n * n * BATCH)
    dst = wb.array("dst", n * n * BATCH)
    f = wb.loop("f", BATCH)
    r = wb.loop("r", inner)
    c = wb.loop("c", inner)
    acc = None
    for k1 in range(3):
        for k2 in range(3):
            term = src[f * n * n + (r + k1) * n + (c + k2)]
            acc = term if acc is None else acc + term
    wb.assign(dst[f * n * n + (r + 1) * n + (c + 1)], acc >> 3)
    return wb.build()


def accumulate() -> Workload:
    """Frame accumulation: ``acc[p] += in[p]`` (adds only)."""
    wb = WorkloadBuilder("accumulate", suite="vision", dtype=I16, size_desc="128^2x4")
    src = wb.array("src", FRAME * BATCH)
    acc = wb.array("acc", FRAME)
    f = wb.loop("f", BATCH, parallel=False)
    p = wb.loop("p", FRAME)
    wb.accumulate(acc[p], src[f * FRAME + p], op=Op.ADD)
    return wb.build()


def accumulate_squared() -> Workload:
    """Squared accumulation: ``acc[p] += in[p]^2`` (one mul, one add)."""
    wb = WorkloadBuilder("acc-sqr", suite="vision", dtype=I16, size_desc="128^2x4")
    src = wb.array("src", FRAME * BATCH)
    acc = wb.array("acc", FRAME)
    f = wb.loop("f", BATCH, parallel=False)
    p = wb.loop("p", FRAME)
    wb.accumulate(acc[p], src[f * FRAME + p] * src[f * FRAME + p], op=Op.ADD)
    return wb.build()


def vecmax() -> Workload:
    """Elementwise max of two frames into a third (max counts as add-class)."""
    wb = WorkloadBuilder("vecmax", suite="vision", dtype=I16, size_desc="128^2x4")
    a = wb.array("a", FRAME * BATCH)
    b = wb.array("b", FRAME * BATCH)
    out = wb.array("out", FRAME * BATCH)
    f = wb.loop("f", BATCH)
    p = wb.loop("p", FRAME)
    wb.assign(out[f * FRAME + p], vmax(a[f * FRAME + p], b[f * FRAME + p]))
    return wb.build()


def accumulate_weighted() -> Workload:
    """Exponential moving average: ``acc = (w*in + (s-w)*acc) >> shift``."""
    wb = WorkloadBuilder("acc-weight", suite="vision", dtype=I16, size_desc="128^2x4")
    src = wb.array("src", FRAME * BATCH)
    acc = wb.array("acc", FRAME)
    wgt = wb.array("wgt", 2)
    f = wb.loop("f", BATCH, parallel=False)
    p = wb.loop("p", FRAME)
    blended = (wgt[0] * src[f * FRAME + p] + wgt[1] * acc[p]) >> 8
    wb.assign(acc[p], blended)
    return wb.build()


def convert_bit() -> Workload:
    """Bit-depth conversion with rounding: one add, one shift per pixel."""
    wb = WorkloadBuilder("convert-bit", suite="vision", dtype=I16, size_desc="128^2x4")
    src = wb.array("src", FRAME * BATCH)
    dst = wb.array("dst", FRAME * BATCH)
    rnd = wb.array("rnd", 1)
    f = wb.loop("f", BATCH)
    p = wb.loop("p", FRAME)
    wb.assign(dst[f * FRAME + p], (src[f * FRAME + p] + rnd[0]) >> 4)
    return wb.build()


def derivative() -> Workload:
    """Horizontal Scharr-style derivative on 130x130 frames (halo included).

    3x1 weighted difference: two multiplies, adds, and a normalizing shift —
    like stencil-2d it benefits from sliding-window reuse (Q1 outlier).
    """
    wb = WorkloadBuilder("derivative", suite="vision", dtype=I16, size_desc="130^2x4")
    n = 130
    inner = n - 2
    src = wb.array("src", n * n * BATCH)
    dst = wb.array("dst", n * n * BATCH)
    wgt = wb.array("wgt", 2)
    f = wb.loop("f", BATCH)
    r = wb.loop("r", inner)
    c = wb.loop("c", inner)
    base = f * n * n + (r + 1) * n + (c + 1)
    diff_h = wgt[0] * (src[base + 1] - src[base - 1])
    diff_d = wgt[1] * (src[base + n + 1] - src[base - n - 1])
    wb.assign(dst[base], (diff_h + diff_d) >> 5)
    return wb.build()


VISION_WORKLOADS = (
    channel_extract,
    bgr2grey,
    blur,
    accumulate,
    accumulate_squared,
    vecmax,
    accumulate_weighted,
    convert_bit,
    derivative,
)
