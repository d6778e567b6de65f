"""The resource estimator used by the DSE.

:class:`AnalyticEstimator` is the deterministic ground-truth model; fast
and exact, used by default in tests and benches for reproducibility.  Its
interchangeable ML-backed subclass, the paper's flow, is
:class:`repro.model.resource.mlp.MlEstimator`: it lives beside the MLP it
trains, so only a process that builds one imports numpy.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ...adg import ADG, AdgNode, SysADG
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
from .device import Resources


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


def _key(adg: ADG, node: AdgNode) -> Tuple[AdgNode, int, int]:
    """All a node's cost reads: the frozen node and its in- and out-degree
    (``_LEGAL_LINKS`` lets only stream engines feed an in-port or drain an
    out-port, so its feeders and drains are its degrees)."""
    nid = node.node_id
    return node, len(adg.predecessors(nid)), len(adg.successors(nid))
