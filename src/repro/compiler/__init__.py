"""The decoupled-spatial compiler (Sections II-B, IV-B, V-A).

Public entry points:

* :func:`lower` — lower one workload at a fixed setting.
* :func:`generate_variants` — pre-compile the variant family used by DSE.
* :func:`analyze_workload` — standalone reuse analysis.

The compiler needs no ADG: the mapping advisor, which schedules a
family's variants onto an overlay, is :func:`repro.scheduler.advise`.
"""

from .lowering import (
    LoweringError,
    MAX_VECTOR_BITS,
    SPAD_REUSE_THRESHOLD,
    lower,
    max_unroll,
    tile_parallelism,
)
from .reuse import (
    AccessInfo,
    RecurrenceInfo,
    WorkloadReuse,
    access_traffic,
    affine_span,
    analyze_access,
    analyze_workload,
    find_recurrence,
    stationary_factor,
)
from .variants import (
    VariantSet,
    generate_variants,
    unroll_candidates,
    uses_recurrence_engine,
)
