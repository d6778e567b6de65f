"""JSON (de)serialization of ADGs and system designs.

A generated overlay is a long-lived artifact — the whole point of the
paper's flow is that one DSE run serves many future applications — so
designs must round-trip to disk.  The format is a versioned, plain-JSON
document: one record per node with its kind and parameters, a link list,
and the system parameters.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict
from typing import Any, Dict, Iterator

from ..ir import Op
from .capability import FuCap
from .graph import ADG
from .nodes import (
    DmaEngine,
    GenerateEngine,
    InputPortHW,
    NodeKind,
    OutputPortHW,
    ProcessingElement,
    RecurrenceEngine,
    RegisterEngine,
    SpadEngine,
    Switch,
)
from .system import SysADG, SystemParams

FORMAT_VERSION = 1


class SerializationError(ValueError):
    """Raised on malformed or version-incompatible documents."""


def _cap_to_json(cap: FuCap) -> Dict[str, Any]:
    return {"op": cap.op.value, "is_float": cap.is_float, "bits": cap.bits}


def _cap_from_json(doc: Dict[str, Any]) -> FuCap:
    return FuCap(Op(doc["op"]), bool(doc["is_float"]), int(doc["bits"]))


def _node_to_json(node) -> Dict[str, Any]:
    doc: Dict[str, Any] = {"id": node.node_id, "kind": node.kind.value}
    if isinstance(node, ProcessingElement):
        doc.update(
            caps=[_cap_to_json(c) for c in sorted(node.caps, key=lambda c: c.name)],
            width_bits=node.width_bits,
            max_delay_fifo=node.max_delay_fifo,
        )
    elif isinstance(node, Switch):
        doc.update(width_bits=node.width_bits)
    elif isinstance(node, InputPortHW):
        doc.update(
            width_bytes=node.width_bytes,
            fifo_depth=node.fifo_depth,
            supports_padding=node.supports_padding,
            supports_meta=node.supports_meta,
        )
    elif isinstance(node, OutputPortHW):
        doc.update(width_bytes=node.width_bytes, fifo_depth=node.fifo_depth)
    elif isinstance(node, DmaEngine):
        doc.update(
            bandwidth_bytes=node.bandwidth_bytes,
            indirect=node.indirect,
            rob_entries=node.rob_entries,
        )
    elif isinstance(node, SpadEngine):
        doc.update(
            capacity_bytes=node.capacity_bytes,
            read_bandwidth=node.read_bandwidth,
            write_bandwidth=node.write_bandwidth,
            indirect=node.indirect,
        )
    elif isinstance(node, GenerateEngine):
        doc.update(bandwidth_bytes=node.bandwidth_bytes)
    elif isinstance(node, RecurrenceEngine):
        doc.update(
            bandwidth_bytes=node.bandwidth_bytes, buffer_bytes=node.buffer_bytes
        )
    elif isinstance(node, RegisterEngine):
        doc.update(bandwidth_bytes=node.bandwidth_bytes)
    else:  # pragma: no cover - defensive
        raise SerializationError(f"unknown node type {type(node).__name__}")
    return doc


_FACTORIES = {
    "pe": lambda i, d: ProcessingElement(
        i,
        caps=frozenset(_cap_from_json(c) for c in d["caps"]),
        width_bits=d["width_bits"],
        max_delay_fifo=d["max_delay_fifo"],
    ),
    "sw": lambda i, d: Switch(i, width_bits=d["width_bits"]),
    "ip": lambda i, d: InputPortHW(
        i,
        width_bytes=d["width_bytes"],
        fifo_depth=d["fifo_depth"],
        supports_padding=d["supports_padding"],
        supports_meta=d["supports_meta"],
    ),
    "op": lambda i, d: OutputPortHW(
        i, width_bytes=d["width_bytes"], fifo_depth=d["fifo_depth"]
    ),
    "dma": lambda i, d: DmaEngine(
        i,
        bandwidth_bytes=d["bandwidth_bytes"],
        indirect=d["indirect"],
        rob_entries=d["rob_entries"],
    ),
    "spad": lambda i, d: SpadEngine(
        i,
        capacity_bytes=d["capacity_bytes"],
        read_bandwidth=d["read_bandwidth"],
        write_bandwidth=d["write_bandwidth"],
        indirect=d["indirect"],
    ),
    "gen": lambda i, d: GenerateEngine(i, bandwidth_bytes=d["bandwidth_bytes"]),
    "rec": lambda i, d: RecurrenceEngine(
        i, bandwidth_bytes=d["bandwidth_bytes"], buffer_bytes=d["buffer_bytes"]
    ),
    "reg": lambda i, d: RegisterEngine(i, bandwidth_bytes=d["bandwidth_bytes"]),
}


def adg_to_dict(adg: ADG) -> Dict[str, Any]:
    return {
        "version": FORMAT_VERSION,
        "nodes": [_node_to_json(adg.node(i)) for i in adg.node_ids()],
        "links": [list(link) for link in adg.links()],
    }


@contextmanager
def _reading(what: str) -> Iterator[None]:
    """What a malformed document raises (a duplicate id's or bad link's
    AdgError, a missing key, a wrong type) becomes a SerializationError."""
    try:
        yield
    except SerializationError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise SerializationError(f"malformed {what}: {detail}") from exc


def adg_from_dict(doc: Dict[str, Any]) -> ADG:
    """A malformed document is a :class:`SerializationError`; a well-formed
    one describing an invalid graph the AdgError of :meth:`ADG.validate`."""
    adg = ADG()
    with _reading("ADG document"):
        if doc.get("version") != FORMAT_VERSION:
            raise SerializationError(
                f"unsupported format version {doc.get('version')!r}"
            )
        for node_doc in doc["nodes"]:
            kind = node_doc.get("kind")
            factory = _FACTORIES.get(kind)
            if factory is None:
                raise SerializationError(f"unknown node kind {kind!r}")
            adg.add_node(
                lambda i, d=node_doc, f=factory: f(i, d),
                node_id=int(node_doc["id"]),
            )
        for src, dst in doc["links"]:
            adg.add_link(int(src), int(dst))
    adg.validate()
    return adg


def sysadg_to_dict(sysadg: SysADG) -> Dict[str, Any]:
    return {
        "version": FORMAT_VERSION,
        "name": sysadg.name,
        "params": asdict(sysadg.params),
        "adg": adg_to_dict(sysadg.adg),
    }


def sysadg_from_dict(doc: Dict[str, Any]) -> SysADG:
    with _reading("design document"):
        if doc.get("version") != FORMAT_VERSION:
            raise SerializationError(
                f"unsupported format version {doc.get('version')!r}"
            )
        adg_doc = doc["adg"]
        params = SystemParams(**doc["params"])
        name = doc.get("name", "overlay")
    return SysADG(adg=adg_from_dict(adg_doc), params=params, name=name)


def save_sysadg(sysadg: SysADG, path: str) -> None:
    """Write a system design to ``path`` as JSON."""
    with open(path, "w") as f:
        json.dump(sysadg_to_dict(sysadg), f, indent=2, sort_keys=True)


def load_sysadg(path: str) -> SysADG:
    """Load a system design previously written by :func:`save_sysadg`."""
    with open(path) as f:
        doc = json.load(f)
    return sysadg_from_dict(doc)
