"""The annealer behind the strategy protocol.

:class:`repro.dse.Explorer` is the one annealing loop; this strategy
drives its steps through the runner: ``ask(1)`` is ``propose``, the
runner evaluates the candidate's nested system sweep, and ``tell`` is
``decide`` on the sweep's result.  :meth:`finish` therefore returns a
``DseResult`` byte-identical to ``Explorer.run`` for the same seed and
config — the golden test pickles both and compares bytes.

Annealing is inherently sequential (each proposal mutates the last
accepted design), so ``max_batch = 1``; a batch of one never leaves the
process (the pool's serial rule), so the payload is the live candidate.
Batching still pays off for the population strategies sharing the runner.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, List, Optional, Sequence

from ..dse.explorer import Candidate, DseResult, Explorer, ExplorerState
from .strategy import Proposal, SearchContext, SearchError, Strategy, register
from .study import Trial


@register
class AnnealStrategy(Strategy):
    """Simulated annealing as a batch-1 ask/tell strategy."""

    name = "anneal"
    max_batch = 1

    def __init__(self, ctx: SearchContext, state: Any = None) -> None:
        super().__init__(ctx)
        config = replace(ctx.config, seed=ctx.seed)
        self.explorer = Explorer(ctx.workloads, config, name=ctx.name)
        self.pending: Optional[Candidate] = None
        self.explorer.begin(resume=state)

    @classmethod
    def create(cls, ctx: SearchContext, state: Any = None) -> "AnnealStrategy":
        return cls(ctx, state)

    # ------------------------------------------------------------------
    @property
    def exhausted(self) -> bool:
        ex = self.explorer
        return ex.iteration >= ex.config.iterations and self.pending is None

    def ask(self, n: int) -> List[Proposal]:
        if self.pending is not None:
            raise SearchError("anneal: previous proposal not yet told")
        self.pending = self.explorer.propose()
        if self.pending is None:
            return []
        iteration, adg, schedules = self.pending
        return [
            Proposal(
                kind="candidate",
                payload={"adg": adg, "schedules": schedules},
                lineage={"iteration": iteration},
            )
        ]

    def tell(self, trials: Sequence[Trial]) -> None:
        if self.pending is None:
            if trials:
                raise SearchError("anneal: tell without a pending proposal")
            return
        if len(trials) != 1:
            raise SearchError(f"anneal: expected 1 trial, got {len(trials)}")
        candidate, self.pending = self.pending, None
        self.explorer.decide(candidate, trials[0].choice)

    # ------------------------------------------------------------------
    def snapshot(self) -> ExplorerState:
        if self.pending is not None:
            raise SearchError("anneal: cannot snapshot mid-proposal")
        return self.explorer.snapshot()

    def restore(self, state: ExplorerState) -> None:
        self.pending = None
        self.explorer.begin(resume=state)

    def finish(self) -> DseResult:
        return self.explorer.finish()
