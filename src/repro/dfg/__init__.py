"""Memory-enhanced dataflow graphs (mDFGs), Section IV of the paper."""

from .graph import MDFG, MdfgError
from .nodes import (
    ArrayNode,
    ArrayPlacement,
    ComputeNode,
    InputPortNode,
    OutputPortNode,
    StreamKind,
    StreamNode,
)
