"""Synthesis-dataset generation for the ML resource model (Table I).

The paper trains a per-component MLP on out-of-context (OOC) synthesis runs
of each hardware family: 100,000 PEs, 56,700 switches, 34,412 input ports,
25,796 output ports.  Standing in for Vivado, we sample the same parameter
spaces and label them with the analytic ground-truth cost plus

* a *pessimism* factor — OOC synthesis sees no cross-module optimization,
  so labels are systematically larger than post-PnR reality (the paper
  notes its model "behaves pessimistically"), and
* multiplicative synthesis noise — placement/packing variance.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np

from ...adg import FuCap, InputPortHW, OutputPortHW, ProcessingElement, Switch
from ...ir import Op
from .analytic import (
    in_port_resources,
    out_port_resources,
    pe_resources,
    switch_resources,
)
from .device import Resources

#: Paper Table I: modules synthesized per family.
TABLE1_COUNTS = {
    "pe": 100_000,
    "switch": 56_700,
    "in_port": 34_412,
    "out_port": 25_796,
}

#: OOC synthesis is pessimistic versus post-PnR by roughly this factor.
OOC_PESSIMISM = 1.10

#: Multiplicative synthesis noise (std of a lognormal-ish perturbation).
SYNTHESIS_NOISE = 0.05

_INT_ALU_OPS = (Op.ADD, Op.SUB, Op.MAX, Op.MIN, Op.CMP, Op.ABS,
                Op.SELECT, Op.SHL, Op.SHR, Op.AND, Op.OR, Op.XOR)
_FP_ADD_OPS = (Op.ADD, Op.SUB, Op.MAX, Op.MIN, Op.CMP)


@dataclass
class ComponentDataset:
    """Feature matrix + resource labels for one component family."""

    family: str
    feature_names: Tuple[str, ...]
    features: np.ndarray  # (n, d)
    labels: np.ndarray    # (n, 4): lut, ff, bram, dsp

    def split(
        self, train: float = 0.8, test: float = 0.1, seed: int = 0
    ) -> Tuple["ComponentDataset", "ComponentDataset", "ComponentDataset"]:
        """80/10/10 train/test/validation split (paper Section V-D)."""
        n = len(self.features)
        rng = np.random.default_rng(seed)
        order = rng.permutation(n)
        n_train = int(n * train)
        n_test = int(n * test)
        parts = (
            order[:n_train],
            order[n_train : n_train + n_test],
            order[n_train + n_test :],
        )
        return tuple(
            ComponentDataset(
                self.family,
                self.feature_names,
                self.features[idx],
                self.labels[idx],
            )
            for idx in parts
        )


# ----------------------------------------------------------------------
# Featurization (shared between dataset generation and DSE-time inference)
# ----------------------------------------------------------------------
PE_FEATURES = (
    "width_bits",
    "n_int_alu_ops",
    "int_alu_bits",
    "int_mul_bits",
    "int_div_bits",
    "n_fp_add_ops",
    "fp_add_bits",
    "fp_mul_bits",
    "fp_div_bits",
    "fp_sqrt_bits",
    "delay_fifo",
    # Engineered lane-count features: the dominant cost terms scale with
    # width/scalar_bits, which a small MLP learns far faster when given
    # the ratio directly.
    "int_alu_lanes",
    "fp_add_lanes",
    "fp_mul_lanes",
)

SWITCH_FEATURES = ("width_bits", "in_degree", "out_degree")
IN_PORT_FEATURES = ("width_bytes", "fifo_depth", "padding", "meta", "feeders")
OUT_PORT_FEATURES = ("width_bytes", "fifo_depth", "drains")


def pe_features(pe: ProcessingElement) -> np.ndarray:
    int_alu = [c for c in pe.caps if not c.is_float and c.op in _INT_ALU_OPS]
    int_mul = [c for c in pe.caps if not c.is_float and c.op is Op.MUL]
    int_div = [c for c in pe.caps if not c.is_float and c.op is Op.DIV]
    fp_add = [c for c in pe.caps if c.is_float and c.op in _FP_ADD_OPS]
    fp_mul = [c for c in pe.caps if c.is_float and c.op is Op.MUL]
    fp_div = [c for c in pe.caps if c.is_float and c.op is Op.DIV]
    fp_sqrt = [c for c in pe.caps if c.is_float and c.op is Op.SQRT]
    mx = lambda caps: max((c.bits for c in caps), default=0)
    return np.array(
        [
            pe.width_bits,
            len({c.op for c in int_alu}),
            mx(int_alu),
            mx(int_mul),
            mx(int_div),
            len({c.op for c in fp_add}),
            mx(fp_add),
            mx(fp_mul),
            mx(fp_div),
            mx(fp_sqrt),
            pe.max_delay_fifo,
            pe.width_bits / mx(int_alu) if int_alu else 0.0,
            pe.width_bits / mx(fp_add) if fp_add else 0.0,
            pe.width_bits / mx(fp_mul) if fp_mul else 0.0,
        ],
        dtype=np.float64,
    )


def switch_features(sw: Switch, in_degree: int, out_degree: int) -> np.ndarray:
    return np.array([sw.width_bits, in_degree, out_degree], dtype=np.float64)


def in_port_features(port: InputPortHW, feeders: int = 1) -> np.ndarray:
    return np.array(
        [
            port.width_bytes,
            port.fifo_depth,
            float(port.supports_padding),
            float(port.supports_meta),
            float(feeders),
        ],
        dtype=np.float64,
    )


def out_port_features(port: OutputPortHW, drains: int = 1) -> np.ndarray:
    return np.array(
        [port.width_bytes, port.fifo_depth, float(drains)], dtype=np.float64
    )


# ----------------------------------------------------------------------
# Random component sampling ("what we send to OOC synthesis")
# ----------------------------------------------------------------------
def _random_caps(rng: np.random.Generator) -> frozenset:
    caps: set = set()
    n_int = int(rng.integers(0, len(_INT_ALU_OPS) + 1))
    for op in rng.choice(len(_INT_ALU_OPS), size=n_int, replace=False):
        caps.add(FuCap(_INT_ALU_OPS[int(op)], False, int(rng.choice([8, 16, 32, 64]))))
    if rng.random() < 0.4:
        caps.add(FuCap(Op.MUL, False, int(rng.choice([8, 16, 32, 64]))))
    if rng.random() < 0.15:
        caps.add(FuCap(Op.DIV, False, int(rng.choice([16, 32, 64]))))
    n_fp_add = int(rng.integers(0, len(_FP_ADD_OPS) + 1))
    for op in rng.choice(len(_FP_ADD_OPS), size=n_fp_add, replace=False):
        caps.add(FuCap(_FP_ADD_OPS[int(op)], True, int(rng.choice([32, 64]))))
    if rng.random() < 0.35:
        caps.add(FuCap(Op.MUL, True, int(rng.choice([32, 64]))))
    if rng.random() < 0.12:
        caps.add(FuCap(Op.DIV, True, int(rng.choice([32, 64]))))
    if rng.random() < 0.08:
        caps.add(FuCap(Op.SQRT, True, int(rng.choice([32, 64]))))
    if not caps:
        caps.add(FuCap(Op.ADD, False, 64))
    return frozenset(caps)


def _noisy(res: Resources, rng: np.random.Generator) -> np.ndarray:
    factor = OOC_PESSIMISM * rng.lognormal(0.0, SYNTHESIS_NOISE)
    return np.array(
        [res.lut * factor, res.ff * factor, res.bram, res.dsp],
        dtype=np.float64,
    )


def generate_pe_dataset(
    count: int = TABLE1_COUNTS["pe"], seed: int = 1
) -> ComponentDataset:
    rng = np.random.default_rng(seed)
    feats = np.empty((count, len(PE_FEATURES)))
    labels = np.empty((count, 4))
    for i in range(count):
        pe = ProcessingElement(
            node_id=0,
            caps=_random_caps(rng),
            width_bits=int(rng.choice([64, 128, 256, 512])),
            max_delay_fifo=int(rng.choice([2, 4, 8, 16])),
        )
        feats[i] = pe_features(pe)
        labels[i] = _noisy(pe_resources(pe), rng)
    return ComponentDataset("pe", PE_FEATURES, feats, labels)


def generate_switch_dataset(
    count: int = TABLE1_COUNTS["switch"], seed: int = 2
) -> ComponentDataset:
    rng = np.random.default_rng(seed)
    feats = np.empty((count, len(SWITCH_FEATURES)))
    labels = np.empty((count, 4))
    for i in range(count):
        sw = Switch(node_id=0, width_bits=int(rng.choice([64, 128, 256, 512])))
        in_deg = int(rng.integers(1, 9))
        out_deg = int(rng.integers(1, 9))
        feats[i] = switch_features(sw, in_deg, out_deg)
        labels[i] = _noisy(switch_resources(sw, in_deg, out_deg), rng)
    return ComponentDataset("switch", SWITCH_FEATURES, feats, labels)


def generate_in_port_dataset(
    count: int = TABLE1_COUNTS["in_port"], seed: int = 3
) -> ComponentDataset:
    rng = np.random.default_rng(seed)
    feats = np.empty((count, len(IN_PORT_FEATURES)))
    labels = np.empty((count, 4))
    for i in range(count):
        port = InputPortHW(
            node_id=0,
            width_bytes=int(rng.choice([1, 2, 4, 8, 16, 32, 64])),
            fifo_depth=int(rng.choice([2, 4, 8, 16])),
            supports_padding=bool(rng.random() < 0.5),
            supports_meta=bool(rng.random() < 0.5),
        )
        feeders = int(rng.integers(1, 7))
        feats[i] = in_port_features(port, feeders)
        labels[i] = _noisy(in_port_resources(port, feeders), rng)
    return ComponentDataset("in_port", IN_PORT_FEATURES, feats, labels)


def generate_out_port_dataset(
    count: int = TABLE1_COUNTS["out_port"], seed: int = 4
) -> ComponentDataset:
    rng = np.random.default_rng(seed)
    feats = np.empty((count, len(OUT_PORT_FEATURES)))
    labels = np.empty((count, 4))
    for i in range(count):
        port = OutputPortHW(
            node_id=0,
            width_bytes=int(rng.choice([1, 2, 4, 8, 16, 32, 64])),
            fifo_depth=int(rng.choice([2, 4, 8, 16])),
        )
        drains = int(rng.integers(1, 7))
        feats[i] = out_port_features(port, drains)
        labels[i] = _noisy(out_port_resources(port, drains), rng)
    return ComponentDataset("out_port", OUT_PORT_FEATURES, feats, labels)


GENERATORS: Dict[str, Callable[..., ComponentDataset]] = {
    "pe": generate_pe_dataset,
    "switch": generate_switch_dataset,
    "in_port": generate_in_port_dataset,
    "out_port": generate_out_port_dataset,
}


def generate_all(scale: float = 1.0, seed: int = 0) -> Dict[str, ComponentDataset]:
    """Generate every family's dataset; ``scale`` shrinks Table I counts
    (tests use small scales; the Table I bench uses 1.0)."""
    out = {}
    for family, gen in GENERATORS.items():
        count = max(64, int(TABLE1_COUNTS[family] * scale))
        # zlib.crc32 (not hash()) so the per-family seed offset survives
        # PYTHONHASHSEED randomization across processes.
        offset = zlib.crc32(family.encode()) % 97
        out[family] = gen(count=count, seed=seed + offset)
    return out
