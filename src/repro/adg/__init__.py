"""Architecture description graphs: tile fabric + system parameters."""

from .capability import (
    FuCap,
    cap_for,
    caps_for_dtype,
    universal_caps,
)
from .graph import ADG, AdgError
from .nodes import (
    AdgNode,
    DmaEngine,
    ENGINE_KINDS,
    FABRIC_KINDS,
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
from .system import SysADG, SystemParams, system_param_space
from .builders import general_overlay, mesh_adg, seed_adg, seed_for_workloads
from .render import render_adg, render_sysadg
from .serialize import (
    SerializationError,
    adg_from_dict,
    adg_to_dict,
    load_sysadg,
    save_sysadg,
    sysadg_from_dict,
    sysadg_to_dict,
)
