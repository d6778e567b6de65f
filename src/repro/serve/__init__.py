"""``repro.serve`` — the async overlay-compilation service.

OverGen's usability argument is that a generated overlay turns FPGA
programming into *software* compilation: seconds, not synthesis hours.
This package exposes that fast path as a long-lived, many-client
service: an asyncio server holding pre-built overlays that answers
``map`` / ``estimate`` / ``simulate`` requests over a JSON-lines
protocol with admission control, single-flight request coalescing,
forked compute worker processes, per-request deadlines, persistent
result caching through :mod:`repro.engine.store`, and a metrics JSONL
stream — plus the bundled client and the one-process load generator
(:func:`~repro.serve.client.run_load`) that drive it.
"""

from .batcher import AdmissionGate, LatencyReservoir, SingleFlight
from .client import (
    ServeClient,
    ServeConnectionError,
    run_load,
    wait_for_server,
)
from .errors import (
    BadRequestError,
    DeadlineError,
    OverloadedError,
    ServeError,
    ShuttingDownError,
    UnmappableError,
    error_from_doc,
)
from .ops import (
    simulate_batch_op,
    simulate_op,
    single_shot,
    workload_fp,
)
from .protocol import (
    COMPUTE_OPS,
    MAX_LINE_BYTES,
    canonical_dumps,
    decode_line,
    encode_line,
    parse_request,
    response_doc,
)
from .endpoint import run_until_shutdown
from .server import OverlayServer, ServeConfig

