"""Tests for repro.search: the strategy protocol, the golden anneal
equivalence, and the determinism contracts (serial == pool, resume ==
one-shot, PYTHONHASHSEED-invariant studies)."""

import hashlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.dse import DseConfig, Explorer
from repro.engine import DseEngine
from repro.engine.store import ArtifactStore
from repro.search import (
    SearchContext,
    SearchError,
    SearchSettings,
    export_study,
    make_strategy,
    run_search,
    stable_rng,
    strategy_names,
)
from repro.workloads import get_workload

CFG = DseConfig(iterations=10, seed=3)


@pytest.fixture(scope="module")
def vecmax():
    return [get_workload("vecmax")]


def _store_bytes(store: ArtifactStore) -> bytes:
    paths = sorted(store.root.glob("*/*.pkl"))
    assert paths, "store holds no artifacts"
    return b"".join(p.read_bytes() for p in paths)


class TestStrategyRegistry:
    def test_registered_names(self):
        assert strategy_names() == [
            "anneal", "bottleneck", "evolutionary", "tpe",
        ]

    def test_unknown_strategy_lists_available(self, vecmax):
        ctx = SearchContext(
            workloads=vecmax, config=CFG, seed=0, name="t"
        )
        with pytest.raises(SearchError) as excinfo:
            make_strategy("nope", ctx)
        message = str(excinfo.value)
        assert "nope" in message
        for name in strategy_names():
            assert name in message

    def test_run_search_rejects_unknown_strategy(self, vecmax):
        with pytest.raises(SearchError):
            run_search(
                vecmax, CFG, SearchSettings(strategy="nope", trials=1)
            )

    def test_duplicate_name_is_an_error_not_a_shadow(self):
        """As ``rtl.register_backend``: a second class under a taken name
        raises instead of silently replacing the registered strategy."""
        from repro.search import Strategy, TpeStrategy, register
        from repro.search.strategy import STRATEGIES

        class Fake(Strategy):
            name = "tpe"

        with pytest.raises(ValueError, match="duplicate search strategy 'tpe'"):
            register(Fake)
        assert STRATEGIES["tpe"] is TpeStrategy
        assert register(TpeStrategy) is TpeStrategy  # re-import is fine

    def test_run_search_rejects_empty_workloads(self):
        with pytest.raises(SearchError):
            run_search([], CFG, SearchSettings(trials=1))


class TestStableRng:
    def test_same_tags_same_stream(self):
        assert (
            stable_rng(3, "a", "b").random()
            == stable_rng(3, "a", "b").random()
        )

    def test_different_tags_diverge(self):
        assert (
            stable_rng(3, "search", "tpe").random()
            != stable_rng(3, "search", "evolutionary").random()
        )

    def test_seed_matters(self):
        assert stable_rng(1, "x").random() != stable_rng(2, "x").random()


class TestGoldenAnneal:
    def test_anneal_strategy_matches_legacy_explorer_bytes(self, vecmax):
        """Driving ``Explorer``'s steps through the strategy (system
        sweep in the evaluator) is byte-identical to ``Explorer.run``
        sweeping in-process; absolute drift is pinned by
        ``test_dse_golden.py``.
        """
        legacy = Explorer(vecmax, CFG, name="golden").run()
        outcome = run_search(
            vecmax,
            CFG,
            SearchSettings(
                strategy="anneal",
                trials=CFG.iterations,
                batch=1,
                seed=CFG.seed,
            ),
            name="golden",
        )
        assert outcome.dse_result is not None

        def norm(x):
            return pickle.dumps(pickle.loads(pickle.dumps(x)))

        assert norm(legacy) == norm(outcome.dse_result)
        assert legacy.choice.objective == outcome.dse_result.choice.objective

    def test_anneal_trials_mirror_accepted_points(self, vecmax):
        outcome = run_search(
            vecmax,
            CFG,
            SearchSettings(
                strategy="anneal",
                trials=CFG.iterations,
                seed=CFG.seed,
            ),
        )
        result = outcome.dse_result
        assert result is not None
        # Every accepted point carries the full resource vector.
        assert result.points
        for point in result.points:
            it, modeled_h, objective, lut, ff, bram, dsp = point
            assert objective > 0 and lut > 0 and ff > 0
        # The study recorded one trial per evaluated candidate.
        assert 0 < len(outcome.study.trials) <= CFG.iterations


@pytest.mark.parametrize("name", ["bottleneck", "evolutionary", "tpe"])
def test_strategy_fills_trial_budget(name, vecmax):
    outcome = run_search(
        vecmax,
        CFG,
        SearchSettings(strategy=name, trials=4, batch=2, seed=2),
    )
    assert len(outcome.study.trials) == 4
    assert outcome.best_trial is not None
    # Persisted trials are stripped of the in-memory SystemChoice.
    assert all(t.choice is None for t in outcome.study.trials)
    assert [t.index for t in outcome.study.trials] == [0, 1, 2, 3]


def test_rebuild_best_realizes_design(vecmax):
    outcome = run_search(
        vecmax,
        CFG,
        SearchSettings(strategy="bottleneck", trials=3, seed=2),
        rebuild_best=True,
    )
    assert outcome.sysadg is not None
    assert outcome.choice is not None
    assert outcome.choice.objective == outcome.best_trial.objective


def test_rebuild_best_takes_the_strategys_own_artifact(vecmax):
    """An annealer stopped short of its iteration schedule still owns a
    valid accepted design: asked for one, ``finish()`` supplies it (at the
    parent ``sysadg`` was None and ``repro dse -o`` wrote nothing)."""
    short = SearchSettings(strategy="anneal", trials=5, seed=CFG.seed)
    bare = run_search(vecmax, CFG, short)
    assert bare.dse_result is None and bare.sysadg is None
    outcome = run_search(vecmax, CFG, short, rebuild_best=True)
    assert len(outcome.study.trials) == 5
    assert outcome.sysadg is outcome.dse_result.sysadg
    assert outcome.objective == outcome.dse_result.choice.objective > 0


@pytest.mark.parametrize(
    "strategy, lowered", [("tpe", 2), ("evolutionary", 2), ("anneal", 0)]
)
def test_shard_lowers_each_workload_once(strategy, lowered, monkeypatch):
    """Variant sets depend on the workload, not the proposal: a shard of
    genome/params proposals lowers each workload once, and a shard of
    pre-scheduled annealer candidates not at all."""
    from repro.search import evaluate

    generate_variants = evaluate.generate_variants
    calls = []

    def counting(workload):
        calls.append(workload.name)
        return generate_variants(workload)

    workloads = [get_workload("vecmax"), get_workload("fir")]
    ctx = SearchContext(workloads=workloads, config=CFG, seed=2, name="t")
    proposals = make_strategy(strategy, ctx).ask(3)
    assert proposals
    monkeypatch.setattr(evaluate, "generate_variants", counting)
    outs = evaluate.evaluate_shard(
        evaluate.EvalShard(
            items=list(enumerate(proposals)),
            workloads=tuple(workloads),
            config=CFG,
            seed=2,
        )
    )
    assert [out.index for out in outs] == list(range(len(proposals)))
    assert calls == ["vecmax", "fir"][:lowered]
    if lowered:
        # The modeled cost still charges every variant of every workload.
        variants = sum(len(generate_variants(w).variants) for w in workloads)
        tm = CFG.time_model
        assert {out.modeled_seconds for out in outs} == {
            tm.full_schedule * variants + tm.model_eval * 60.0
        }


@pytest.mark.parametrize("strategy", ["tpe", "evolutionary", "bottleneck"])
def test_study_lowers_once(strategy):
    """A study lowers each workload's variants plus one unroll-1 inventory
    pass, whatever its length: every batch re-lowered the variants and
    every proposal the seed inventory (10 lowerings per trial)."""
    from repro.compiler import generate_variants
    from repro.profile.tracer import Tracer, tracing

    workloads = [get_workload("vecmax"), get_workload("fir")]
    with tracing(Tracer()) as tracer:
        for w in workloads:
            generate_variants(w)
    once = tracer.summarize()["compiler.lower"].count + len(workloads)
    for trials in (4, 12):
        with tracing(Tracer()) as tracer:
            outcome = run_search(
                workloads,
                CFG,
                SearchSettings(strategy=strategy, trials=trials, batch=4, seed=2),
                rebuild_best=True,
            )
        assert len(outcome.study.trials) == trials
        assert tracer.summarize()["compiler.lower"].count == once


class TestWorkerInvariance:
    def test_tpe_pool_study_is_byte_identical_to_serial(
        self, vecmax, tmp_path
    ):
        exports, raw = [], []
        for workers, sub in ((1, "serial"), (3, "pool")):
            store = ArtifactStore(tmp_path / sub)
            outcome = run_search(
                vecmax,
                CFG,
                SearchSettings(
                    strategy="tpe",
                    trials=6,
                    batch=3,
                    seed=3,
                    workers=workers,
                ),
                store=store,
            )
            exports.append(export_study(outcome.study))
            raw.append(_store_bytes(store))
        assert exports[0] == exports[1]
        # Not just the export: the persisted artifact itself.
        assert raw[0] == raw[1]

    def test_resume_equals_one_shot(self, vecmax, tmp_path):
        def settings(trials):
            return SearchSettings(
                strategy="evolutionary", trials=trials, batch=2, seed=1
            )

        split = ArtifactStore(tmp_path / "split")
        run_search(vecmax, CFG, settings(4), store=split)
        resumed = run_search(vecmax, CFG, settings(8), store=split)
        assert resumed.resumed

        oneshot = run_search(
            vecmax, CFG, settings(8), store=ArtifactStore(tmp_path / "one")
        )
        assert not oneshot.resumed
        assert export_study(resumed.study) == export_study(oneshot.study)

    def test_warm_store_is_a_pure_cache_hit(self, vecmax, tmp_path):
        store = ArtifactStore(tmp_path / "warm")
        settings = SearchSettings(strategy="tpe", trials=4, batch=2, seed=5)
        first = run_search(vecmax, CFG, settings, store=store)
        again = run_search(vecmax, CFG, settings, store=store)
        assert again.resumed
        assert export_study(first.study) == export_study(again.study)


_HASHSEED_SCRIPT = """\
import sys
from repro.dse import DseConfig
from repro.engine.store import ArtifactStore
from repro.search import SearchSettings, export_study, run_search
from repro.workloads import get_workload

outcome = run_search(
    [get_workload("vecmax")],
    DseConfig(iterations=6, seed=3),
    SearchSettings(strategy="tpe", trials=4, batch=2, seed=3),
    store=ArtifactStore(sys.argv[1]),
)
sys.stdout.write(export_study(outcome.study))
"""


class TestSeedStability:
    def test_studies_are_hashseed_invariant(self, tmp_path):
        """Two processes with different string-hash seeds must write the
        same study: same export text AND same artifact bytes."""
        src = str(Path(repro.__file__).resolve().parents[1])
        outs, raw = [], []
        for hashseed in ("0", "1"):
            store_dir = tmp_path / f"hs{hashseed}"
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hashseed
            env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
            proc = subprocess.run(
                [sys.executable, "-c", _HASHSEED_SCRIPT, str(store_dir)],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outs.append(proc.stdout)
            raw.append(_store_bytes(ArtifactStore(store_dir)))
        assert outs[0] == outs[1]
        assert hashlib.sha256(raw[0]).digest() == hashlib.sha256(raw[1]).digest()


class TestDsePointEvents:
    def test_engine_emits_resource_vector_per_accepted_point(self, vecmax):
        """The per-point record is the study, not an event stream: every
        evaluated candidate is a ``Trial`` with the full resource vector,
        and the accepted ones are the rows ``DseResult.points`` carries."""
        engine = DseEngine(cache_dir=None, workers=1)
        res = engine.explore(
            vecmax, DseConfig(iterations=6, seed=3), name="pts", seeds=[3]
        )
        trials = res.outcome.study.trials
        for trial in trials:
            assert trial.seed == 3 and trial.strategy == "anneal"
            assert trial.lut > 0 and trial.ff > 0
        iterations = [t.lineage["iteration"] for t in trials]
        assert iterations == sorted(iterations)
        # Accepted points: the seed ADG (iteration 0) plus accepted trials.
        by_iteration = {t.lineage["iteration"]: t for t in trials}
        for it, _hours, objective, lut, ff, bram, dsp in res.result.points[1:]:
            trial = by_iteration[it]
            assert (objective, lut, ff, bram, dsp) == (
                trial.objective, trial.lut, trial.ff, trial.bram, trial.dsp
            )
