"""RTL backend: multi-backend structural emission + FPGA floorplanning.

:mod:`repro.rtl.ir` builds a backend-neutral structural design from a
sysADG; named backends (``verilog``, ``migen``) render it.  The legacy
:func:`emit_system` / :func:`emit_tile` entry points stay as aliases for
the ``verilog`` backend, whose output is golden-gated byte-identical to
the pre-refactor emitter.
"""

from .backends import (
    BACKENDS,
    Backend,
    backend_names,
    get_backend,
    register_backend,
)
from .floorplan import FloorplanError, NUM_SLRS, estimated_frequency, floorplan
from .ir import all_modules, build_design, design_stats
from .migen_backend import MigenBackend
from .verilog import VerilogBackend, emit_system, emit_tile, rtl_stats
