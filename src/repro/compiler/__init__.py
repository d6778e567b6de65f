"""The decoupled-spatial compiler (Sections II-B, IV-B, V-A).

Public entry points:

* :func:`compile_workload` — lower one workload at a fixed setting.
* :func:`generate_variants` — pre-compile the variant family used by DSE.
* :func:`analyze_workload` — standalone reuse analysis.
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

# Advisor imports the scheduler (which imports this package); importing it
# last keeps the circular import resolvable.
from .advisor import (  # noqa: E402  (deliberate late import)
    MappingAdvice,
    REDSE_GAIN_THRESHOLD,
    VariantVerdict,
    advise,
)

compile_workload = lower
