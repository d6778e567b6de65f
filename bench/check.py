"""The output checker: every op's result against ``bench/expected.json``.

``expected.json`` is written only by ``make_fixtures.py``.  Simulated
cycle counts in it come from the object simulator core (the reference
loop the vector core must match bit for bit), served responses from
``serve.single_shot``.  Each ``check_*`` function returns ``None`` when
the output is correct and a one-line reason when it is not; the runner
counts a reason as one failed op.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

#: What ``expected.json`` records for a pair that does not map.
UNMAPPABLE = "unmappable"


def load_expected(path: str = EXPECTED_PATH) -> Dict[str, Any]:
    with open(path) as f:
        return json.load(f)


def response_digest(result_doc: Any) -> str:
    """sha256 of a result document's canonical JSON bytes."""
    blob = json.dumps(result_doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def check_value(what: str, got: Any, want: Any) -> Optional[str]:
    """Exact comparison: cycle counts and objectives are deterministic."""
    if got != want:
        return f"{what}: got {got!r}, expected {want!r}"
    return None


def check_sim(what: str, result: Any, want: Optional[Dict[str, Any]]) -> Optional[str]:
    """One deployed kernel: ``result`` is a ``SimResult`` or ``None``
    (unmappable); ``want`` the expected ``{variant, cycles}`` or ``None``."""
    if want is None or result is None:
        if want is None and result is None:
            return None
        got = UNMAPPABLE if result is None else "mapped"
        expected = UNMAPPABLE if want is None else "mapped"
        return f"{what}: got {got}, expected {expected}"
    return check_value(
        f"{what} variant", result.variant, want["variant"]
    ) or check_value(f"{what} cycles", result.cycles, want["cycles"])


def check_response(what: str, response: Dict[str, Any], want: str) -> Optional[str]:
    """One served response against the expected digest (or verdict)."""
    if response.get("ok"):
        got = response_digest(response.get("result"))
    else:
        got = (response.get("error") or {}).get("code", "error")
    if got != want:
        return f"{what}: response {got[:16]}, expected {want[:16]}"
    return None
