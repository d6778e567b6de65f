"""``repro.serve`` — the async overlay-compilation service.

OverGen's usability argument is that a generated overlay turns FPGA
programming into *software* compilation: seconds, not synthesis hours.
This package exposes that fast path as a long-lived, many-client
service: an asyncio server holding pre-built overlays that answers
``map`` / ``estimate`` / ``simulate`` requests over a JSON-lines
protocol with admission control, single-flight request coalescing, a
process worker pool, per-request deadlines, persistent result caching
through :mod:`repro.engine.store`, and a metrics JSONL stream — plus
the bundled client and the one-process load generator
(:func:`~repro.serve.client.run_load`) that drive it.
"""

from .batcher import AdmissionGate, LatencyReservoir, SingleFlight
from .client import (
    LoadReport,
    ServeClient,
    ServeConnectionError,
    build_load_plan,
    run_load,
    wait_for_server,
)
from .errors import (
    BadRequestError,
    DeadlineError,
    InternalError,
    OverloadedError,
    ServeError,
    ShuttingDownError,
    UnmappableError,
    error_from_doc,
)
from .ops import (
    compute_op,
    estimate_op,
    map_op,
    overlay_fingerprint,
    remap_op,
    result_key,
    run_op,
    simulate_batch_doc,
    simulate_batch_op,
    simulate_op,
    single_shot,
    workload_fp,
)
from .protocol import (
    ADMIN_OPS,
    ALL_OPS,
    COMPUTE_OPS,
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    Request,
    canonical_dumps,
    decode_line,
    encode_line,
    parse_request,
    response_doc,
)
from .endpoint import JsonLinesEndpoint, run_until_shutdown
from .server import OverlayEntry, OverlayServer, ServeConfig

__all__ = [
    "ADMIN_OPS",
    "ALL_OPS",
    "AdmissionGate",
    "BadRequestError",
    "COMPUTE_OPS",
    "DeadlineError",
    "InternalError",
    "JsonLinesEndpoint",
    "LatencyReservoir",
    "LoadReport",
    "MAX_LINE_BYTES",
    "OverlayEntry",
    "OverlayServer",
    "OverloadedError",
    "PROTOCOL_VERSION",
    "Request",
    "ServeClient",
    "ServeConfig",
    "ServeConnectionError",
    "ServeError",
    "ShuttingDownError",
    "SingleFlight",
    "UnmappableError",
    "build_load_plan",
    "canonical_dumps",
    "compute_op",
    "decode_line",
    "encode_line",
    "error_from_doc",
    "estimate_op",
    "map_op",
    "overlay_fingerprint",
    "parse_request",
    "remap_op",
    "response_doc",
    "result_key",
    "run_load",
    "run_op",
    "run_until_shutdown",
    "simulate_batch_doc",
    "simulate_batch_op",
    "simulate_op",
    "single_shot",
    "wait_for_server",
    "workload_fp",
]
