"""OverGen reproduction: domain-specific FPGA overlay generation.

Top-level convenience re-exports; see the subpackages for the full API:

* :mod:`repro.ir` — workload intermediate representation
* :mod:`repro.compiler` — decoupled-spatial compiler + reuse analysis
* :mod:`repro.dfg` — memory-enhanced dataflow graphs
* :mod:`repro.adg` — architecture description graphs + system parameters
* :mod:`repro.scheduler` — spatial scheduler (place/route/bind/repair)
* :mod:`repro.dse` — unified spatial + system design-space exploration
* :mod:`repro.model` — performance and FPGA resource models
* :mod:`repro.sim` — cycle-level overlay simulator
* :mod:`repro.rtl` — structural Verilog emission + floorplanning
* :mod:`repro.hls` — AutoDSE/HLS baseline model
* :mod:`repro.workloads` — the 19 Table-II workloads
* :mod:`repro.harness` — experiment drivers for every table/figure
"""

__version__ = "0.2.0"

from .adg import general_overlay
from .compiler import generate_variants
from .dse import DseConfig, explore
from .scheduler import schedule_workload
from .sim import simulate_schedule
from .workloads import get_suite, get_workload
