"""Resource estimators used by the DSE.

Two interchangeable estimators:

* :class:`AnalyticEstimator` — the deterministic ground-truth model; fast
  and exact, used by default in tests and benches for reproducibility.
* :class:`MlEstimator` — the paper's flow: per-family MLPs trained on the
  synthetic OOC-synthesis dataset predict PE/switch/port costs, while
  components with few parameters (engines, core, L2, NoC) use exhaustive
  (analytic) tables, exactly as Section III-A describes.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ...adg import (
    ADG,
    AdgNode,
    InputPortHW,
    OutputPortHW,
    ProcessingElement,
    Switch,
    SysADG,
)
from .analytic import (
    CATEGORIES,
    _category,
    control_core_resources,
    dispatcher_resources,
    l2_resources,
    noc_resources,
    node_resources,
    system_total,
)
from .dataset import (
    generate_all,
    in_port_features,
    out_port_features,
    pe_features,
    switch_features,
)
from .device import Resources
from .mlp import MlpConfig, ResourceMlp


class AnalyticEstimator:
    """Deterministic estimator backed by the analytic cost model."""

    name = "analytic"

    def node(self, adg: ADG, node: AdgNode) -> Resources:
        return node_resources(adg, node)

    def tile(self, adg: ADG) -> Resources:
        total = Resources()
        for node in adg.nodes():
            total = total + self.node(adg, node)
        return total + dispatcher_resources(
            len(adg.engines), len(adg.in_ports) + len(adg.out_ports)
        )

    def tile_breakdown(self, adg: ADG) -> Dict[str, Resources]:
        breakdown = {cat: Resources() for cat in CATEGORIES}
        for node in adg.nodes():
            cat = _category(node)
            breakdown[cat] = breakdown[cat] + self.node(adg, node)
        breakdown["dma"] = breakdown["dma"] + dispatcher_resources(
            len(adg.engines), len(adg.in_ports) + len(adg.out_ports)
        )
        return breakdown

    def system(self, sysadg: SysADG) -> Resources:
        p = sysadg.params
        return system_total(
            self.tile(sysadg.adg) + control_core_resources(),
            p.num_tiles,
            l2_resources(p.l2_kib, p.l2_banks),
            p.noc_bytes_per_cycle,
        )

    def system_breakdown(self, sysadg: SysADG) -> Dict[str, Resources]:
        p = sysadg.params
        breakdown = {
            cat: res * p.num_tiles
            for cat, res in self.tile_breakdown(sysadg.adg).items()
        }
        breakdown["core"] = control_core_resources() * p.num_tiles
        breakdown["noc"] = noc_resources(
            p.num_tiles, p.noc_bytes_per_cycle
        ) + l2_resources(p.l2_kib, p.l2_banks)
        return breakdown


class MlEstimator(AnalyticEstimator):
    """ML-backed estimator for high-dimensional components.

    PE/switch/port costs come from per-family MLPs (trained once at
    construction); other components fall through to the analytic tables.
    Predictions are batched per-tile for speed.
    """

    name = "ml"

    def __init__(
        self,
        dataset_scale: float = 0.02,
        config: Optional[MlpConfig] = None,
        seed: int = 0,
    ):
        datasets = generate_all(scale=dataset_scale, seed=seed)
        self.models: Dict[str, ResourceMlp] = {}
        self.training_error: Dict[str, dict] = {}
        for family, data in datasets.items():
            train, test, _val = data.split()
            mlp = ResourceMlp(data.features.shape[1], config)
            mlp.fit(train)
            self.models[family] = mlp
            self.training_error[family] = mlp.evaluate(test)

    def node(self, adg: ADG, node: AdgNode) -> Resources:
        feats, family = self._featurize(adg, node)
        if family is None:
            return node_resources(adg, node)
        pred = self.models[family].predict(feats)[0]
        return Resources(
            lut=float(pred[0]),
            ff=float(pred[1]),
            bram=float(pred[2]),
            dsp=float(pred[3]),
        )

    def _featurize(self, adg: ADG, node: AdgNode):
        if isinstance(node, ProcessingElement):
            return pe_features(node), "pe"
        if isinstance(node, Switch):
            return (
                switch_features(
                    node,
                    len(adg.predecessors(node.node_id)),
                    len(adg.successors(node.node_id)),
                ),
                "switch",
            )
        if isinstance(node, InputPortHW):
            feeders = sum(
                1
                for p in adg.predecessors(node.node_id)
                if adg.node(p).kind.value not in ("pe", "sw", "ip", "op")
            )
            return in_port_features(node, max(1, feeders)), "in_port"
        if isinstance(node, OutputPortHW):
            drains = sum(
                1
                for p in adg.successors(node.node_id)
                if adg.node(p).kind.value not in ("pe", "sw", "ip", "op")
            )
            return out_port_features(node, max(1, drains)), "out_port"
        return None, None
