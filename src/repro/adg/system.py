"""System-level ADG: the tile ADG plus SoC parameters (Section III-B).

The overlay is a homogeneous multi-tile: every tile holds one control core
plus one instance of the accelerator ADG, all sharing a banked inclusive L2
over a crossbar NoC, with DRAM behind it (Fig. 8).  The system design space
is {tile count, L2 banks, L2 capacity, NoC bandwidth}; DRAM channel count is
a platform property studied separately (Fig. 19).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Iterator, Tuple

from .graph import ADG


@dataclass(frozen=True)
class SystemParams:
    """SoC-level parameters explored by the system DSE."""

    num_tiles: int = 1
    l2_banks: int = 4
    l2_kib: int = 512
    noc_bytes_per_cycle: int = 32
    dram_channels: int = 1
    frequency_mhz: float = 92.87  # the paper's quad-tile floorplan clock
    #: Achieved fraction of peak DDR bandwidth: the TileLink DMA path of a
    #: soft SoC sustains well under peak on short, possibly strided bursts.
    dram_efficiency: float = 0.45

    def __post_init__(self) -> None:
        if self.num_tiles < 1:
            raise ValueError("num_tiles must be >= 1")
        if self.l2_banks < 1 or self.l2_banks & (self.l2_banks - 1):
            raise ValueError("l2_banks must be a positive power of two")
        if self.l2_kib < 64:
            raise ValueError("l2_kib must be at least 64 KiB")
        if self.noc_bytes_per_cycle < 8:
            raise ValueError("noc_bytes_per_cycle must be at least 8")
        if self.dram_channels < 1:
            raise ValueError("dram_channels must be >= 1")

    @property
    def l2_bytes(self) -> int:
        return self.l2_kib * 1024

    @property
    def l2_bank_bandwidth(self) -> int:
        """Bytes/cycle one L2 bank can serve (one SRAM beat per cycle)."""
        return 16

    @property
    def dram_bytes_per_cycle(self) -> float:
        """Aggregate DRAM bandwidth in bytes per overlay cycle.

        One DDR4-2400 channel delivers ~19.2 GB/s; normalized to the
        overlay clock this is ~19.2e9 / (f_MHz * 1e6) bytes per cycle.
        """
        per_channel = 19.2e9 / (self.frequency_mhz * 1e6)
        return per_channel * self.dram_channels * self.dram_efficiency


@dataclass
class SysADG:
    """A complete overlay design point: tile ADG + system parameters."""

    adg: ADG
    params: SystemParams = field(default_factory=SystemParams)
    name: str = "overlay"

    def clone(self) -> "SysADG":
        return SysADG(adg=self.adg.clone(), params=self.params, name=self.name)

    def with_params(self, **changes) -> "SysADG":
        return SysADG(
            adg=self.adg, params=replace(self.params, **changes), name=self.name
        )

    def validate(self) -> None:
        self.adg.validate()

    def summary(self) -> str:
        p = self.params
        return (
            f"{self.name}: tiles={p.num_tiles} l2={p.l2_kib}KiB"
            f"x{p.l2_banks}banks noc={p.noc_bytes_per_cycle}B "
            f"{self.adg.summary()}"
        )


#: The system grid's axes — L2 banks, L2 KiB, NoC bytes/cycle — each
#: ascending: the sweep bounds a point by its predecessors along them.
SYSTEM_GRID_AXES = ((1, 2, 4, 8, 16), (128, 256, 512, 1024), (16, 32, 64))


def system_param_space(
    max_tiles: int = 16,
) -> Iterator[Tuple[int, int, int]]:
    """The exhaustive (l2_banks, l2_kib, noc_bytes) grid of the system DSE.

    Tile count is not enumerated here: it is derived from the FPGA resource
    budget for each candidate (Section V-A nests system DSE inside spatial
    DSE, choosing the largest tile count that fits).
    """
    return itertools.product(*SYSTEM_GRID_AXES)
