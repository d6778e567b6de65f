"""FPGA device description and resource vectors.

The evaluation platform is a Xilinx VCU118 board carrying an XCVU9P part;
budgets below are the public device totals.  A :class:`Resources` vector
carries the four resource classes the paper's DSE balances (Fig. 3:
"LUT%, FF%, BRAM%, DSP%").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable


@dataclass(frozen=True)
class Resources:
    """A LUT/FF/BRAM/DSP resource vector (floats: model estimates)."""

    lut: float = 0.0
    ff: float = 0.0
    bram: float = 0.0
    dsp: float = 0.0

    def __add__(self, other: "Resources") -> "Resources":
        return Resources(
            self.lut + other.lut,
            self.ff + other.ff,
            self.bram + other.bram,
            self.dsp + other.dsp,
        )

    def __sub__(self, other: "Resources") -> "Resources":
        return Resources(
            self.lut - other.lut,
            self.ff - other.ff,
            self.bram - other.bram,
            self.dsp - other.dsp,
        )

    def __mul__(self, factor: float) -> "Resources":
        return Resources(
            self.lut * factor,
            self.ff * factor,
            self.bram * factor,
            self.dsp * factor,
        )

    __rmul__ = __mul__

    def fits_in(self, budget: "Resources") -> bool:
        return (
            self.lut <= budget.lut
            and self.ff <= budget.ff
            and self.bram <= budget.bram
            and self.dsp <= budget.dsp
        )

    def utilization(self, budget: "Resources") -> Dict[str, float]:
        """Per-class utilization fractions against ``budget``."""
        return {
            "lut": self.lut / budget.lut,
            "ff": self.ff / budget.ff,
            "bram": self.bram / budget.bram,
            "dsp": self.dsp / budget.dsp,
        }

    def as_dict(self) -> Dict[str, float]:
        return {"lut": self.lut, "ff": self.ff, "bram": self.bram, "dsp": self.dsp}

    @staticmethod
    def total(items: Iterable["Resources"]) -> "Resources":
        acc = Resources()
        for item in items:
            acc = acc + item
        return acc


#: XCVU9P (VCU118) device totals.
XCVU9P = Resources(lut=1_182_240, ff=2_364_480, bram=2_160, dsp=6_840)

#: Fraction of the device the DSE may fill.  Physical design needs slack
#: for routing and the paper's designs top out around 97% LUT.
USABLE_FRACTION = 0.97


def usable_budget(device: Resources = XCVU9P) -> Resources:
    return device * USABLE_FRACTION
