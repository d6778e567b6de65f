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

from typing import Dict, Optional, Tuple

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
    """Deterministic estimator backed by the analytic cost model; tile
    totals price each distinct :func:`_key` once per estimator.  ``tile``
    finds a clone's shared node objects by id, degrees and identity, so a
    value-keyed lookup (a frozen-dataclass hash) runs only for new nodes."""

    name = "analytic"

    def __init__(self) -> None:
        self._priced: Dict[Tuple[AdgNode, int, int], Resources] = {}
        self._by_id: Dict[Tuple[int, int, int], Tuple[AdgNode, Resources]] = {}

    def node(self, adg: ADG, node: AdgNode) -> Resources:
        return node_resources(adg, node)

    def _cost(self, adg: ADG, node: AdgNode) -> Resources:
        key = _key(adg, node)
        res = self._priced.get(key)
        if res is None:
            res = self._priced[key] = self.node(adg, node)
        return res

    def tile(self, adg: ADG) -> Resources:
        # Four float sums in id order round as ``Resources()`` sums do.
        lut = ff = bram = dsp = 0.0
        by_id, feeders, drains = self._by_id, adg._in, adg._out
        for node in adg.nodes():
            nid = node.node_id
            key = (nid, len(feeders[nid]), len(drains[nid]))
            hit = by_id.get(key)
            if hit is None or hit[0] is not node:
                hit = by_id[key] = (node, self._cost(adg, node))
            res = hit[1]
            lut += res.lut
            ff += res.ff
            bram += res.bram
            dsp += res.dsp
        return Resources(lut, ff, bram, dsp) + dispatcher_resources(
            len(adg.engines), len(adg.in_ports) + len(adg.out_ports)
        )

    def tile_breakdown(self, adg: ADG) -> Dict[str, Resources]:
        breakdown = {cat: Resources() for cat in CATEGORIES}
        for node in adg.nodes():
            breakdown[_category(node)] += self._cost(adg, node)
        breakdown["dma"] += dispatcher_resources(
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
    """

    name = "ml"

    def __init__(
        self,
        dataset_scale: float = 0.02,
        config: Optional[MlpConfig] = None,
        seed: int = 0,
    ):
        super().__init__()
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
        feats, family = self._featurize(*_key(adg, node))
        if family is None:
            return node_resources(adg, node)
        return Resources(*map(float, self.models[family].predict(feats)[0]))

    def _featurize(self, node: AdgNode, n_in: int, n_out: int):
        if isinstance(node, ProcessingElement):
            return pe_features(node), "pe"
        if isinstance(node, Switch):
            return switch_features(node, n_in, n_out), "switch"
        if isinstance(node, InputPortHW):
            return in_port_features(node, max(1, n_in)), "in_port"
        if isinstance(node, OutputPortHW):
            return out_port_features(node, max(1, n_out)), "out_port"
        return None, None


def _key(adg: ADG, node: AdgNode) -> Tuple[AdgNode, int, int]:
    """All a node's cost reads: the frozen node and its in- and out-degree
    (``_LEGAL_LINKS`` lets only stream engines feed an in-port or drain an
    out-port, so its feeders and drains are its degrees)."""
    nid = node.node_id
    return node, len(adg.predecessors(nid)), len(adg.successors(nid))
