"""JSON-lines wire protocol for ``repro serve``.

One request per line, one response per line, both UTF-8 JSON objects.
The transport is any byte stream — the server listens on a unix socket
or localhost TCP; the framing is identical.

Request document::

    {"id": "r1", "op": "map", "overlay": "dsp", "workload": "fir",
     "timeout_s": 5.0, "options": {}}

``op`` is one of :data:`COMPUTE_OPS` (CPU-bound, admission-controlled,
coalesced — ``map``/``estimate``/``simulate``, the multi-workload
``simulate_batch`` whose ``workload`` is a comma-separated list, and
``remap``, the schedule-preserving incremental recompile) or
:data:`ADMIN_OPS` (served inline: ``ping``, ``stats``, ``shutdown``).
Every op is typed: the server never unpickles or executes bytes a client
sent.  ``overlay`` may be omitted when the server holds exactly one
design and may be a registry spec (``name@v2``) when the server has a
registry attached; a new design reaches a running server only by being
published to that registry.  ``id`` is echoed back verbatim so clients
may pipeline many requests over one connection.

Response document::

    {"id": "r1", "ok": true, "result": {...}, "error": null,
     "served": {"cache": "compute", "coalesced": false,
                "latency_s": 0.012, "queue_wait_s": 0.001}}

``result`` for compute ops is the canonical result document built by
:mod:`repro.serve.ops` — byte-identical (under ``canonical_dumps``) to
what the single-shot CLI path produces for the same overlay + workload.
On failure ``ok`` is false and ``error`` carries a structured code from
:mod:`repro.serve.errors`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from .errors import BadRequestError

#: Bumped whenever a wire document changes incompatibly.
PROTOCOL_VERSION = 1

#: Longest accepted request line (1 MiB) — an unframed client cannot
#: make the server buffer unboundedly.
MAX_LINE_BYTES = 1 << 20

COMPUTE_OPS = ("map", "estimate", "simulate", "simulate_batch", "remap")
ADMIN_OPS = ("ping", "stats", "shutdown")
ALL_OPS = COMPUTE_OPS + ADMIN_OPS


def canonical_dumps(doc: Any) -> str:
    """The one serialization used for results, cache values, and tests.

    Sorted keys + tight separators: two result documents are equal iff
    their canonical dumps are byte-identical.
    """
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def encode_line(doc: Dict[str, Any]) -> bytes:
    return (canonical_dumps(doc) + "\n").encode("utf-8")


def decode_line(line: bytes) -> Dict[str, Any]:
    try:
        doc = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BadRequestError(f"malformed request line: {exc}") from exc
    if not isinstance(doc, dict):
        raise BadRequestError(
            f"request must be a JSON object, got {type(doc).__name__}"
        )
    return doc


@dataclass
class Request:
    """A parsed, validated request."""

    id: str
    op: str
    overlay: Optional[str] = None
    workload: Optional[str] = None
    timeout_s: Optional[float] = None
    options: Dict[str, Any] = field(default_factory=dict)

    def as_doc(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {"id": self.id, "op": self.op}
        if self.overlay is not None:
            doc["overlay"] = self.overlay
        if self.workload is not None:
            doc["workload"] = self.workload
        if self.timeout_s is not None:
            doc["timeout_s"] = self.timeout_s
        if self.options:
            doc["options"] = self.options
        return doc


def parse_request(doc: Dict[str, Any]) -> Request:
    """Validate a decoded request document; raise ``BadRequestError``."""
    op = doc.get("op")
    if op not in ALL_OPS:
        raise BadRequestError(
            f"unknown op {op!r}; expected one of {', '.join(ALL_OPS)}"
        )
    req_id = doc.get("id")
    if not isinstance(req_id, str) or not req_id:
        raise BadRequestError("request 'id' must be a non-empty string")
    overlay = doc.get("overlay")
    if overlay is not None and not isinstance(overlay, str):
        raise BadRequestError("'overlay' must be a string when present")
    workload = doc.get("workload")
    if op in COMPUTE_OPS:
        if not isinstance(workload, str) or not workload:
            raise BadRequestError(f"op {op!r} requires a 'workload' name")
    elif workload is not None and not isinstance(workload, str):
        raise BadRequestError("'workload' must be a string when present")
    timeout_s = doc.get("timeout_s")
    if timeout_s is not None:
        # bool is an int subclass and json.loads accepts NaN/Infinity:
        # neither is a deadline asyncio.wait_for can enforce.
        if isinstance(timeout_s, bool):
            raise BadRequestError("'timeout_s' must be a number")
        try:
            timeout_s = float(timeout_s)
        except (TypeError, ValueError) as exc:
            raise BadRequestError("'timeout_s' must be a number") from exc
        if not math.isfinite(timeout_s) or timeout_s <= 0:
            raise BadRequestError("'timeout_s' must be positive and finite")
    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise BadRequestError("'options' must be an object when present")
    return Request(
        id=req_id,
        op=op,
        overlay=overlay,
        workload=workload,
        timeout_s=timeout_s,
        options=options,
    )


def response_doc(
    req_id: str,
    result: Optional[Dict[str, Any]] = None,
    error: Optional[Dict[str, Any]] = None,
    served: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    return {
        "id": req_id,
        "ok": error is None,
        "result": result,
        "error": error,
        "served": served or {},
    }
