"""Shared design spaces for the genome and parameter strategies.

A *genome* is a sequence of ``(transform_name, salt)`` genes.  Applying a
gene draws its randomness from ``stable_rng(study_seed, "gene", op, salt)``
— never from a shared stream — so a genome evaluates identically no
matter which worker process replays it, in any order, under any
PYTHONHASHSEED.  Inapplicable genes (the transform raises) are skipped,
mirroring how the annealer retries inapplicable moves.

The *parameter space* is the discrete grid the TPE strategy searches:
fabric growth knobs plus the width/capacity/bandwidth ladders the random
transforms draw from.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from ..adg import ADG, AdgError
from ..dse.transforms import (
    BANDWIDTHS,
    PE_WIDTHS,
    PORT_WIDTHS,
    RANDOM_TRANSFORMS,
    SPAD_CAPACITIES,
    TransformFailed,
)
from .strategy import stable_rng

#: One gene: (random-transform name, salt for its private RNG stream).
Gene = Tuple[str, int]

TRANSFORM_BY_NAME = {fn.__name__: fn for fn in RANDOM_TRANSFORMS}
TRANSFORM_NAMES: Tuple[str, ...] = tuple(
    fn.__name__ for fn in RANDOM_TRANSFORMS
)


def apply_genome(
    adg: ADG, genes: Sequence[Gene], study_seed: int
) -> List[List[Any]]:
    """Apply a genome in order; returns the genes that actually applied."""
    applied: List[List[Any]] = []
    for op, salt in genes:
        fn = TRANSFORM_BY_NAME.get(op)
        if fn is None:
            continue
        rng = stable_rng(study_seed, "gene", op, str(int(salt)))
        try:
            fn(adg, rng)
        except (TransformFailed, AdgError):
            continue
        applied.append([op, int(salt)])
    return applied


# ----------------------------------------------------------------------
# TPE parameter space
# ----------------------------------------------------------------------
#: (name, ordered choices) — order is part of the schema (stable sampling).
PARAM_SPACE: Tuple[Tuple[str, Tuple[Any, ...]], ...] = (
    ("extra_pes", (0, 1, 2, 3)),
    ("extra_switches", (0, 1, 2)),
    ("pe_width", PE_WIDTHS),
    ("port_width", PORT_WIDTHS),
    ("spad_capacity", SPAD_CAPACITIES),
    ("engine_bandwidth", BANDWIDTHS),
)


def param_space_size() -> int:
    size = 1
    for _, choices in PARAM_SPACE:
        size *= len(choices)
    return size


def params_key(params: Dict[str, Any]) -> Tuple[Any, ...]:
    """Canonical tuple form of a parameter point (dimension order)."""
    return tuple(params[name] for name, _ in PARAM_SPACE)


def apply_params(adg: ADG, params: Dict[str, Any]) -> None:
    """Deterministically realize a parameter point on the study's seed ADG.

    Structure first (extra switches into the ring, extra PEs cloned from
    the richest donor), then uniform re-sizing of widths, capacities and
    bandwidths.  Points that break schedulability simply score as
    infeasible trials — that is the search learning the constraint.
    """
    switches = sorted(adg.switches, key=lambda s: s.node_id)
    for i in range(int(params.get("extra_switches", 0))):
        width = max((s.width_bits for s in switches), default=64)
        new = adg.add_switch(width_bits=width)
        if switches:
            a = switches[i % len(switches)]
            b = switches[(i + 1) % len(switches)]
            adg.add_link(a.node_id, new)
            adg.add_link(new, b.node_id)
        switches = sorted(adg.switches, key=lambda s: s.node_id)
    for i in range(int(params.get("extra_pes", 0))):
        pes = adg.pes
        if not pes or not switches:
            break
        donor = max(pes, key=lambda p: (len(p.caps), p.node_id))
        pe_id = adg.add_pe(caps=donor.caps, width_bits=donor.width_bits)
        sw = switches[i % len(switches)]
        adg.add_link(sw.node_id, pe_id)
        adg.add_link(pe_id, sw.node_id)
    # Re-sizing keeps every id and kind, so the lists are read once.
    pes, ports = adg.pes, adg.in_ports + adg.out_ports
    spads, dmas = adg.spads, adg.dmas
    pe_width = int(params.get("pe_width", 0))
    if pe_width:
        for pe in pes:
            if pe.width_bits != pe_width:
                adg.replace_node(pe.node_id, width_bits=pe_width)
    port_width = int(params.get("port_width", 0))
    if port_width:
        for port in ports:
            if port.width_bytes != port_width:
                adg.replace_node(port.node_id, width_bytes=port_width)
    spad_capacity = int(params.get("spad_capacity", 0))
    bandwidth = int(params.get("engine_bandwidth", 0))
    for spad in spads:
        if spad_capacity and spad.capacity_bytes != spad_capacity:
            adg.replace_node(spad.node_id, capacity_bytes=spad_capacity)
        if bandwidth and spad.read_bandwidth != bandwidth:
            adg.replace_node(
                spad.node_id,
                read_bandwidth=bandwidth,
                write_bandwidth=bandwidth,
            )
    if bandwidth:
        for dma in dmas:
            if dma.bandwidth_bytes != bandwidth:
                adg.replace_node(dma.node_id, bandwidth_bytes=bandwidth)
