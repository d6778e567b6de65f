"""The paper's reference values: every number this repository compares to.

:data:`CLAIMS` holds each value the paper reports for Table III and Figs.
11-20, once.  ``harness.report`` quotes them, the ``benchmarks/`` benches
check against them, and ``harness.experiments.paper_ledger`` sets each
beside its measurement with a :func:`verdict`.  Model inputs stay where the
model reads them: Table I's counts
(``model.resource.dataset.TABLE1_COUNTS``), Table IV's IIs
(``repro.hls``) and ``SystemParams.frequency_mhz``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from ..workloads import PAPER_SUITE_NAMES

Number = Union[float, Tuple[float, float]]

SAME = "same winner, within 2×"
FACTOR_OFF, REVERSED = "factor off", "winner reversed"


@dataclass(frozen=True)
class PaperClaim:
    """One number the paper reports.  ``kind`` is ``ratio`` (its
    ``baseline`` splits who wins), ``value``, ``count`` or ``range`` (a
    ``(lo, hi)`` pair); ``fmt`` renders the value and a measurement, and
    ``text``, when set, is how the report words the value instead."""

    figure: str
    key: str
    value: Number
    kind: str
    claim: str
    fmt: str
    baseline: Optional[float] = None
    text: Optional[str] = None
    #: The :data:`MECHANISMS` names that explain a mismatch.
    mechanisms: Tuple[str, ...] = ()

    def render(self, value: Number) -> str:
        values = value if isinstance(value, tuple) else (value,)
        return self.fmt.format(*values)

    @property
    def shown(self) -> str:
        return self.text or self.render(self.value)


def _per_suite(figure, key, values, kind, claim, fmt, **kw):
    return tuple(
        PaperClaim(figure, f"{key}.{s}", v, kind, f"{claim} ({s})", fmt, **kw)
        for s, v in zip(PAPER_SUITE_NAMES, values)
    )


CLAIMS: Tuple[PaperClaim, ...] = (
    PaperClaim("Table III", "table3.suite_tiles", (7, 13), "range",
               "tiles of the three suite overlays", "{}-{}"),
    PaperClaim("Fig. 11", "fig11.no_bypass", 0.5, "value",
               "single-stream issues/cycle, no bypass", "{:.1f}"),
    PaperClaim("Fig. 11", "fig11.bypass", 1.0, "value",
               "single-stream issues/cycle, one-hot bypass", "{:.1f}"),
    PaperClaim("Fig. 12", "fig12.general_tiles", 4, "count",
               "General tiles that fit the XCVU9P", "{}"),
    PaperClaim("Fig. 12", "fig12.clock_mhz", 92.87, "value",
               "quad-tile clock", "{:.2f} MHz"),
    *_per_suite("Fig. 13", "fig13.vs_untuned", (1.21, 1.13, 1.25), "ratio",
                "suite-OG vs untuned AD", "{:.2f}x", baseline=1.0),
    *_per_suite("Fig. 13", "fig13.vs_tuned", (0.71, 0.37, 0.65), "ratio",
                "suite-OG vs tuned AD", "{:.2f}x", baseline=1.0),
    PaperClaim("Fig. 13", "fig13.workload_og", 1.45, "ratio",
               "w/l-OG vs untuned AD, all 19", "{:.2f}x", baseline=1.0),
    *_per_suite("Fig. 15", "fig15.autodse_h", (52.6, 69.2, 92.8), "value",
                "AutoDSE DSE + synthesis", "{:.1f}h"),
    PaperClaim("Fig. 15", "fig15.fraction", 0.47, "ratio",
               "OverGen / AutoDSE time", "{:.0%}", baseline=1.0,
               mechanisms=("modeled toolchain time", "DSE anatomy")),
    PaperClaim("Fig. 16", "fig16.overlay_lut", (0.81, 0.97), "range",
               "overlay LUT occupation", "{:.0%}-{:.0%}", text="81-97%"),
    PaperClaim("Fig. 17", "fig17.mapped", 5, "count",
               "left-out MachSuite kernels that map", "{}/5",
               text="all map"),
    PaperClaim("Fig. 17", "fig17.degradation", 0.495, "ratio",
               "mean loss vs the suite overlay", "{:.0%}", baseline=0.0),
    PaperClaim("Fig. 17", "fig17.compile_speedup", 1e4, "value",
               "compile speedup vs HLS (geomean)", "{:,.0f}x",
               text="10^4x"),
    PaperClaim("Fig. 17", "fig17.reconfig_speedup", 5.4e4, "value",
               "reconfig speedup vs reflash (geomean)", "{:,.0f}x",
               text="5.4x10^4x"),
    PaperClaim("Fig. 18", "fig18.tiles_first", 15, "count",
               "tiles, first workload", "{}"),
    PaperClaim("Fig. 18", "fig18.tiles_last", 10, "count",
               "tiles, all five workloads", "{}"),
    PaperClaim("Fig. 18", "fig18.retained", 0.92, "ratio",
               "first workload's perf kept on the shared overlay",
               "{:.0%}", baseline=1.0),
    PaperClaim("Fig. 19", "fig19.og_gain", 1.19, "ratio",
               "OG 4-channel speedup, benefiting set", "{:.2f}x",
               baseline=1.0),
    PaperClaim("Fig. 19", "fig19.ad_gain", 1.25, "ratio",
               "AD 4-channel speedup, MachSuite", "{:.2f}x", baseline=1.0),
    PaperClaim("Fig. 20", "fig20.ipc_ratio", 1.09, "ratio",
               "preserved / non-preserved est. IPC", "{:.2f}x",
               baseline=1.0),
    PaperClaim("Fig. 20", "fig20.time_reduction", 0.15, "ratio",
               "DSE-time reduction (mean)", "{:.1%}", baseline=0.0,
               text="15%", mechanisms=("DSE anatomy",)),
)

#: The kernels Fig. 19 names as gaining from more DRAM channels
#: (element-wise and memory-bound); ``fig19.og_gain`` is their geomean.
FIG19_BENEFITING = (
    "mm", "vecmax", "accumulate", "acc-sqr", "acc-weight", "derivative",
    "channel-ext", "convert-bit",
)

#: The only causes a ledger row may give for a mismatch, each with the
#: importable function or constant that produces its evidence.
MECHANISMS = {
    "modeled toolchain time": "repro.dse.explorer.TimeModel",
    "DSE anatomy": "repro.harness.experiments.dse_anatomy",
}


def claim(key: str) -> PaperClaim:
    return {c.key: c for c in CLAIMS}[key]


def verdict(paper: PaperClaim, measured: Number) -> str:
    """*Winner reversed* when paper and measured sit on opposite sides of
    the claim's baseline; else *within 2×* when they overlap or their
    nearest ends differ by at most a factor of 2; else *factor off*."""
    lo, hi = _span(paper.value)
    got_lo, got_hi = _span(measured)
    base = paper.baseline
    if paper.kind == "ratio" and (lo - base) * (got_lo - base) < 0:
        return REVERSED
    if got_lo <= hi and lo <= got_hi:
        return SAME
    near, far = (got_hi, lo) if got_hi < lo else (hi, got_lo)
    return SAME if near > 0 and far / near <= 2.0 else FACTOR_OFF


def _span(value: Number) -> Tuple[float, float]:
    return value if isinstance(value, tuple) else (value, value)
