"""The repro store: one JSON document per minimal repro.

``--corpus DIR`` and ``--promote DIR`` both write
``DIR/cases/<failure_key>__<case_key12>.json`` through
:meth:`DivergenceCorpus.add`: the full case, the tolerance bands it
failed under and the failure key *expected* on replay, as strict, sorted,
indented JSON with no timestamps, so:

* the same campaign leaves byte-identical files, diffable in review,
* one failure signature under one set of bands keeps one witness, the
  least by :func:`witness_order` (a model bug hit by a hundred generated
  cases stores the smallest, whatever order they arrive in),
* replay needs no flags: :func:`replay_promoted` rebuilds the oracle from
  the recorded bands, for ``repro validate --corpus`` and for the pytest
  module ``--promote`` generates alike.

The file name embeds the failure key and the case fingerprint only, so
the same case recorded again under other bands replaces its document.
"""

from __future__ import annotations

import json
import os
import re
from typing import Dict, Iterator, List, Optional, Tuple

from ..engine.hashing import fingerprint
from .generators import FuzzCase, case_size
from .oracle import ToleranceBands
from .runner import Failure, ReplayRow, make_failure_key

#: Bump when the stored document layout changes.
PROMOTED_VERSION = 1

_FIELDS = (
    "failure_key", "expected", "case_key", "case_size", "bands", "case",
    "summary",
)


def case_key(case: FuzzCase) -> str:
    """Content fingerprint of a case (origin excluded: two seeds finding
    the same minimal repro should deduplicate)."""
    doc = case.to_dict()
    doc.pop("origin", None)
    # The literal is part of every committed case file's name.
    return fingerprint({"corpus_version": 1, "case": doc})


def witness_order(case: FuzzCase) -> Tuple[int, str]:
    """The total order among witnesses of one failure: the smaller case
    wins, equal sizes fall to the case key.  Every place two repros
    compete sorts by this, so the survivor never depends on arrival
    order or on the shard split."""
    return case_size(case), case_key(case)


def promoted_doc(failure: Failure, bands: ToleranceBands) -> Dict:
    """The stored JSON document for one minimal repro."""
    return {
        "promoted_version": PROMOTED_VERSION,
        "failure_key": failure.failure_key,
        "expected": failure.failure_key,
        "case_key": case_key(failure.case),
        "case_size": case_size(failure.case),
        "bands": bands.to_dict(),
        "case": failure.case.to_dict(),
        "summary": dict(failure.summary),
    }


def promoted_filename(failure: Failure) -> str:
    """``divergence:memory`` → ``divergence_memory__<case_key12>.json``."""
    slug = re.sub(r"[^A-Za-z0-9_.-]+", "_", failure.failure_key)
    return f"{slug}__{case_key(failure.case)[:12]}.json"


def load_promoted(path: str) -> Dict:
    """Read one stored document; :class:`ValueError` when it is torn,
    foreign, or of another version."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or (
        doc.get("promoted_version") != PROMOTED_VERSION
    ):
        raise ValueError(
            f"{path}: not a promoted_version {PROMOTED_VERSION} document"
        )
    missing = [name for name in _FIELDS if name not in doc]
    if missing:
        raise ValueError(f"{path}: missing {', '.join(missing)}")
    return doc


def replay_promoted(doc: Dict) -> Optional[str]:
    """Re-run one stored case under its recorded bands; returns the live
    failure key (None when the case now passes)."""
    case = FuzzCase.from_dict(doc["case"])
    return make_failure_key(ToleranceBands(**doc["bands"]))(case)


def write_text(path: str, text: str) -> None:
    """Atomic write: a reader sees the old file or the new, never half."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


class DivergenceCorpus:
    """A directory of minimal repros, one per (failure key, bands)."""

    def __init__(self, root) -> None:
        self.cases_dir = os.path.join(str(root), "cases")

    def entries(self) -> Iterator[Tuple[str, Optional[Dict], str]]:
        """``(file name, document, error)`` for every stored file, name
        sorted; an unreadable file has no document and says why."""
        if not os.path.isdir(self.cases_dir):
            return
        for name in sorted(os.listdir(self.cases_dir)):
            if not name.endswith(".json"):
                continue
            doc, error = None, ""
            try:
                doc = load_promoted(os.path.join(self.cases_dir, name))
            except ValueError as exc:
                error = str(exc)
            yield name, doc, error

    def add(self, failure: Failure, bands: ToleranceBands) -> Tuple[str, bool]:
        """Record a minimal repro; returns ``(file name, was_new)``.

        When the failure key is already witnessed under the same bands,
        the least case by :func:`witness_order` survives: an incumbent
        that is no larger is returned with ``was_new=False``, a larger
        one is deleted.  An unreadable file is nobody's incumbent.
        """
        doc = promoted_doc(failure, bands)
        rivals = [
            (witness_order(FuzzCase.from_dict(old["case"])), name)
            for name, old, _ in self.entries()
            if old is not None
            and old["failure_key"] == doc["failure_key"]
            and old["bands"] == doc["bands"]
        ]
        best = min(rivals, default=None)
        if best is not None and best[0] <= witness_order(failure.case):
            return best[1], False
        for _, name in rivals:
            os.remove(os.path.join(self.cases_dir, name))
        os.makedirs(self.cases_dir, exist_ok=True)
        name = promoted_filename(failure)
        write_text(
            os.path.join(self.cases_dir, name),
            json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n",
        )
        return name, True

    def replay(self) -> List[ReplayRow]:
        """Replay every stored repro (rows as :data:`runner.ReplayRow`)."""
        return [
            (name, None, error) if doc is None
            else (name, doc["expected"], replay_promoted(doc))
            for name, doc, error in self.entries()
        ]
