"""The batched strategy protocol every optimizer implements.

``ask(n)`` yields up to ``n`` :class:`Proposal`s, the runner evaluates
them (serially or through the :mod:`repro.jobs` pool — the strategy never
knows which), and ``tell(trials)`` feeds the scored
:class:`~repro.search.study.Trial`s back in global evaluation order.
"Serial" is just ``batch=1``; a strategy whose moves are inherently
sequential (the annealer) advertises ``max_batch = 1`` and the runner
respects it.

``snapshot()`` freezes the strategy so a persisted study can resume
bit-identically; determinism across processes comes from
:func:`stable_rng`, the PYTHONHASHSEED-stable ``zlib.crc32`` derivation
scheme shared with :mod:`repro.validate`.
"""

from __future__ import annotations

import copy
import random
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Type

from ..dse import DseConfig
from ..ir import Workload
from .study import Trial


class SearchError(RuntimeError):
    """A search-level failure (unknown strategy, infeasible seed, ...)."""


def stable_rng(seed: int, *tags: str) -> random.Random:
    """A :class:`random.Random` derived from ``seed`` and string tags.

    Uses ``zlib.crc32`` (not ``hash()``), so the stream is identical for
    every PYTHONHASHSEED, process, and platform — the same scheme
    :mod:`repro.validate` uses for its case seeds.
    """
    token = ":".join(tags)
    mix = zlib.crc32(token.encode("utf-8"))
    return random.Random(((int(seed) & 0xFFFFFFFF) << 32) | mix)


@dataclass
class Proposal:
    """One candidate design the strategy wants evaluated.

    ``kind`` selects the evaluator (``candidate``: the annealer's live
    ADG + schedules, a batch of one that is evaluated in process;
    ``genome``: a transform-sequence genome; ``params``: a point in the
    TPE parameter space).  ``payload`` is the evaluation input (picklable
    for the batched kinds); ``lineage`` is its JSON-able provenance,
    recorded verbatim on the resulting trial.
    """

    kind: str
    payload: Dict[str, Any]
    lineage: Any = None


@dataclass
class SearchContext:
    """Everything a strategy needs to know about the problem."""

    workloads: List[Workload]
    config: DseConfig = field(default_factory=DseConfig)
    seed: int = 0
    name: str = "overlay"


class Strategy:
    """Base class: batched ask/tell with snapshot/restore."""

    #: Registry name; subclasses override.
    name = "base"
    #: Largest useful batch (the runner clamps its asks to this).
    max_batch = 1_000_000

    def __init__(self, ctx: SearchContext) -> None:
        self.ctx = ctx

    @classmethod
    def create(
        cls, ctx: SearchContext, state: Any = None
    ) -> "Strategy":
        """Build a strategy, restoring from a snapshot when given."""
        strategy = cls(ctx)
        if state is not None:
            strategy.restore(state)
        return strategy

    @property
    def exhausted(self) -> bool:
        """True when the strategy has nothing left to propose."""
        return False

    def ask(self, n: int) -> List[Proposal]:
        raise NotImplementedError

    def tell(self, trials: Sequence[Trial]) -> None:
        raise NotImplementedError

    def snapshot(self) -> Any:
        """Picklable state that :meth:`restore` accepts.

        Default: a deep copy of the instance dict minus the context
        (which the restoring side reconstructs itself).
        """
        return {
            k: copy.deepcopy(v)
            for k, v in self.__dict__.items()
            if k != "ctx"
        }

    def restore(self, state: Any) -> None:
        self.__dict__.update(copy.deepcopy(state))

    def finish(self) -> Optional[Any]:
        """Optional final artifact (the annealer returns its DseResult)."""
        return None


#: name -> strategy class; populated by :func:`register`.
STRATEGIES: Dict[str, Type[Strategy]] = {}


def register(cls: Type[Strategy]) -> Type[Strategy]:
    """Class decorator: add a strategy to the registry by its ``name``.
    Raises ``ValueError`` on a duplicate name (as ``register_backend``
    does) — a shadowed strategy would silently change every study."""
    if cls.name in STRATEGIES and STRATEGIES[cls.name] is not cls:
        raise ValueError(
            f"duplicate search strategy {cls.name!r}: "
            f"{STRATEGIES[cls.name].__name__} is already registered"
        )
    STRATEGIES[cls.name] = cls
    return cls


def strategy_names() -> List[str]:
    return sorted(STRATEGIES)


def make_strategy(
    name: str, ctx: SearchContext, state: Any = None
) -> Strategy:
    """Instantiate a registered strategy (optionally from a snapshot)."""
    if name not in STRATEGIES:
        raise SearchError(
            f"unknown strategy {name!r}; available: "
            + ", ".join(strategy_names())
        )
    return STRATEGIES[name].create(ctx, state)
