"""Tests for repro.search: the strategy protocol, the golden anneal
equivalence, and the determinism contracts (serial == pool, resume ==
one-shot, PYTHONHASHSEED-invariant studies)."""

import hashlib
import os
from collections import Counter
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.dse import DseConfig, Explorer
from repro.engine.store import ArtifactStore
from repro.search import (
    DseEngine,
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
        # The study recorded one trial per evaluated candidate, each with
        # the full resource vector; every accepted point after the seed
        # ADG in ``history`` is one of them.
        trials = outcome.study.trials
        assert 0 < len(trials) <= CFG.iterations
        assert all(t.objective > 0 and t.lut > 0 and t.ff > 0
                   for t in trials if t.feasible)
        by_iteration = {t.lineage["iteration"]: t for t in trials}
        assert len(result.history) > 1
        for it, _hours, objective in result.history[1:]:
            assert by_iteration[it].objective == objective


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
def test_study_lowers_once(strategy, monkeypatch):
    """From a cold variant memo, a study lowers each workload's variants
    plus one unroll-1 pass for its seed, and builds that seed once,
    whatever its length; the seed its proposals cloned is unmutated at
    the end."""
    from repro.adg import adg_to_dict, builders, seed_for_workloads
    from repro.compiler import generate_variants
    from repro.profile.tracer import Tracer, tracing
    from repro.search import runner

    workloads = [get_workload("vecmax"), get_workload("fir")]
    generate_variants.cache_clear()
    with tracing(Tracer()) as tracer:
        for w in workloads:
            generate_variants(w)
    lowers = Counter(s.name for s in tracer.spans())["compiler.lower"]
    once = lowers + len(workloads)
    fresh = seed_for_workloads(workloads)

    meshes, studied = [], []
    mesh_adg, study_inputs = builders.mesh_adg, runner.study_inputs

    def counting_mesh(*args, **kwargs):
        meshes.append(args)
        return mesh_adg(*args, **kwargs)

    def recording_inputs(*args):
        studied.append(study_inputs(*args))
        return studied[-1]

    monkeypatch.setattr(builders, "mesh_adg", counting_mesh)
    monkeypatch.setattr(runner, "study_inputs", recording_inputs)
    for trials in (4, 12):
        meshes.clear()
        generate_variants.cache_clear()
        with tracing(Tracer()) as tracer:
            outcome = run_search(
                workloads,
                CFG,
                SearchSettings(strategy=strategy, trials=trials, batch=4, seed=2),
                rebuild_best=True,
            )
        assert len(outcome.study.trials) == trials
        spans = Counter(s.name for s in tracer.spans())
        assert spans["compiler.lower"] == once
        assert len(meshes) == 1
        seed = studied[-1].seed
        assert adg_to_dict(seed) == adg_to_dict(fresh)
        assert seed.version == fresh.version
        assert seed.clone().add_switch() == fresh.clone().add_switch()


@pytest.mark.parametrize("strategy", ["bottleneck", "evolutionary", "tpe"])
def test_proposal_on_a_seed_clone_equals_a_fresh_seed(strategy):
    """A study applies each genome / params proposal to a clone of its one
    seed; the result must be the design a freshly built seed gives: same
    document, same edit stamp, same next node id."""
    from repro.adg import adg_to_dict, seed_for_workloads
    from repro.search.space import apply_genome, apply_params

    workloads = [get_workload("vecmax"), get_workload("fir")]
    ctx = SearchContext(workloads=workloads, config=CFG, seed=2, name="t")
    seed = seed_for_workloads(workloads)
    search = make_strategy(strategy, ctx)
    # bottleneck's first ask is the bare seed; its second extends it.
    proposals = search.ask(2) + search.ask(2)
    edited = 0
    for proposal in proposals:
        fresh = seed_for_workloads(workloads)
        designs = []
        for adg in (seed.clone(), fresh):
            if proposal.kind == "genome":
                genes = [tuple(g) for g in proposal.payload["genes"]]
                apply_genome(adg, genes, ctx.seed)
            else:
                apply_params(adg, proposal.payload["params"])
            designs.append((adg_to_dict(adg), adg.version, adg.add_switch()))
        assert designs[0] == designs[1]
        edited += designs[0][1] > seed.version
    assert edited  # some proposal really mutated its clone


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


class TestStudyPricing:
    """A study prices its system sweeps through one estimator and one
    objective memo, as an ``Explorer`` run does; hits are exact."""

    @staticmethod
    def study(strategy, monkeypatch, tracer=None):
        """Run a serial study; return it and each shard it evaluated, with
        the shard's outputs."""
        from repro.profile.tracer import tracing
        from repro.search import runner

        shards, evaluate_shard = [], runner.evaluate_shard

        def recording(shard):
            shards.append((shard, evaluate_shard(shard)))
            return shards[-1][1]

        monkeypatch.setattr(runner, "evaluate_shard", recording)
        with tracing(tracer):
            outcome = run_search(
                [get_workload("vecmax"), get_workload("fir")],
                CFG,
                SearchSettings(strategy=strategy, trials=8, batch=4, seed=2),
            )
        return outcome, shards

    @pytest.mark.parametrize("strategy", ["bottleneck", "evolutionary", "tpe"])
    def test_trials_equal_fresh_memo_pricing(self, strategy, monkeypatch):
        from repro.model.resource import AnalyticEstimator
        from repro.search.evaluate import evaluate_proposal

        outcome, shards = self.study(strategy, monkeypatch)
        pairs = []
        for shard, outs in shards:
            inputs = shard.inputs._replace(
                estimator=AnalyticEstimator(), objectives={}
            )
            for (index, proposal), out in zip(shard.items, outs):
                fresh = evaluate_proposal(index, proposal, shard, inputs)
                pairs.append((out, fresh))
        assert [fresh.index for _out, fresh in pairs] == list(range(8))
        assert any(fresh.feasible for _out, fresh in pairs)
        for trial, (out, fresh) in zip(outcome.study.trials, pairs):
            assert trial.feasible == out.feasible == fresh.feasible
            assert trial.objective == out.objective == fresh.objective
            for field in ("lut", "ff", "bram", "dsp", "bottleneck"):
                assert getattr(trial, field) == getattr(fresh, field)
            if fresh.choice is not None:
                assert out.choice.params == fresh.choice.params

    def test_traced_study_prices_fewer_points_than_it_visits(
        self, monkeypatch
    ):
        from repro.profile.tracer import Tracer

        tracer = Tracer()
        self.study("bottleneck", monkeypatch, tracer)
        counters = tracer.counters()
        assert 0 < counters["dse.grid_priced"] < counters["dse.grid_points"]

    def test_one_estimator_across_batches(self, monkeypatch):
        _outcome, shards = self.study("tpe", monkeypatch)
        inputs = [shard.inputs for shard, _outs in shards]
        assert len(inputs) == 2
        assert inputs[0].estimator is inputs[1].estimator
        assert inputs[0].objectives is inputs[1].objectives


class TestFailedEvaluation:
    @staticmethod
    def fail_for_seed(monkeypatch, seed):
        """Make every evaluation job of studies seeded ``seed`` crash."""
        from repro.search import runner

        real = runner.evaluate_shard

        def evaluate(shard):
            if shard.seed == seed:
                raise RuntimeError("evaluator crashed")
            return real(shard)

        monkeypatch.setattr(runner, "evaluate_shard", evaluate)

    def test_failed_eval_job_is_a_search_error(self, vecmax, monkeypatch):
        self.fail_for_seed(monkeypatch, 2)
        settings = SearchSettings(strategy="tpe", trials=4, batch=2, seed=2)
        with pytest.raises(SearchError, match="proposal 0 failed: evaluator"):
            run_search(vecmax, CFG, settings)

    def test_toolchain_bug_is_a_search_error(self, vecmax, monkeypatch):
        """Only a design the toolchain rejects is an infeasible trial; any
        other error inside an evaluation fails the study."""
        from repro.search import evaluate

        def crash(*_args):
            raise RuntimeError("sweep bug")

        monkeypatch.setattr(evaluate, "sweep_candidate", crash)
        settings = SearchSettings(strategy="tpe", trials=2, batch=2, seed=2)
        with pytest.raises(SearchError, match="sweep bug"):
            run_search(vecmax, CFG, settings)

    def test_rejected_design_is_an_infeasible_trial(self, vecmax, monkeypatch):
        from repro.adg import AdgError
        from repro.search import evaluate

        def reject(*_args):
            raise AdgError("rejected")

        monkeypatch.setattr(evaluate, "sweep_candidate", reject)
        settings = SearchSettings(strategy="tpe", trials=2, batch=2, seed=2)
        outcome = run_search(vecmax, CFG, settings)
        assert len(outcome.study.trials) == 2
        assert not any(t.feasible for t in outcome.study.trials)

    def test_engine_records_that_seed_as_crashed(self, vecmax, monkeypatch):
        self.fail_for_seed(monkeypatch, 3)
        res = DseEngine(workers=1).explore(vecmax, CFG, seeds=[2, 3])
        assert res.metrics.crashed_seeds == [3]
        assert res.metrics.best_seed == 2
        crashed = [o for o in res.outcomes if o.seed == 3][0]
        assert "evaluator crashed" in crashed.error


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
        and the accepted ones are the rows of ``DseResult.history``."""
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
        for it, _hours, objective in res.result.history[1:]:
            assert by_iteration[it].objective == objective
