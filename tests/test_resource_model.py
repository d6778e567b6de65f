"""Tests for the FPGA resource models (analytic + ML) and device budgets."""

import os

import numpy as np
import pytest

from repro.adg import (
    FuCap,
    ProcessingElement,
    Switch,
    general_overlay,
    load_sysadg,
)
from repro.ir import Op
from repro.model.resource import (
    AnalyticEstimator,
    Resources,
    XCVU9P,
    control_core_resources,
    dispatcher_resources,
    l2_resources,
    pe_resources,
    switch_resources,
    usable_budget,
)
from repro.model.resource.dataset import TABLE1_COUNTS, generate_all
from repro.model.resource.mlp import MlEstimator, MlpConfig, ResourceMlp


class TestResourcesVector:
    def test_arithmetic(self):
        a = Resources(lut=10, ff=20, bram=1, dsp=2)
        b = Resources(lut=5, ff=5, bram=0, dsp=1)
        assert (a + b).lut == 15
        assert (a - b).dsp == 1
        assert (a * 2).ff == 40
        assert (2 * a).ff == 40

    def test_fits_in(self):
        small = Resources(lut=10)
        big = Resources(lut=100, ff=100, bram=10, dsp=10)
        assert small.fits_in(big)
        assert not big.fits_in(small)

    def test_utilization(self):
        half = Resources(
            lut=XCVU9P.lut / 2,
            ff=XCVU9P.ff / 2,
            bram=XCVU9P.bram / 2,
            dsp=XCVU9P.dsp / 2,
        )
        assert max(half.utilization(XCVU9P).values()) == pytest.approx(0.5)

    def test_total(self):
        items = [Resources(lut=1), Resources(lut=2), Resources(lut=3)]
        assert Resources.total(items).lut == 6


class TestAnalyticCosts:
    def test_pe_cost_grows_with_width(self):
        caps = frozenset({FuCap(Op.ADD, True, 64)})
        narrow = ProcessingElement(0, caps=caps, width_bits=64)
        wide = ProcessingElement(0, caps=caps, width_bits=512)
        assert pe_resources(wide).lut > pe_resources(narrow).lut

    def test_float_mul_uses_dsp(self):
        caps = frozenset({FuCap(Op.MUL, True, 64)})
        pe = ProcessingElement(0, caps=caps, width_bits=512)
        assert pe_resources(pe).dsp >= 8  # 8 lanes x 2 DSP

    def test_capability_pruning_saves_area(self):
        full = ProcessingElement(
            0,
            caps=frozenset(
                {FuCap(Op.ADD, True, 64), FuCap(Op.MUL, True, 64),
                 FuCap(Op.DIV, True, 64)}
            ),
            width_bits=512,
        )
        pruned = ProcessingElement(
            0, caps=frozenset({FuCap(Op.ADD, True, 64)}), width_bits=512
        )
        assert pe_resources(pruned).lut < pe_resources(full).lut

    def test_switch_cost_grows_with_radix(self):
        sw = Switch(0, width_bits=512)
        small = switch_resources(sw, 2, 2)
        big = switch_resources(sw, 6, 6)
        assert big.lut > small.lut

    def test_subword_simd_sharing(self):
        # An i8 add on a PE that already has a 64-bit adder is nearly free.
        base = frozenset({FuCap(Op.ADD, False, 64)})
        with_sub = base | {FuCap(Op.ADD, False, 8)}
        pe_a = ProcessingElement(0, caps=base, width_bits=512)
        pe_b = ProcessingElement(0, caps=frozenset(with_sub), width_bits=512)
        assert pe_resources(pe_b).lut == pytest.approx(pe_resources(pe_a).lut)


class TestCalibration:
    """The paper's headline utilization shapes (Q1, Q4)."""

    def test_four_general_tiles_fit(self):
        g = general_overlay(num_tiles=4)
        assert AnalyticEstimator().system(g).fits_in(usable_budget())

    def test_five_general_tiles_do_not_fit(self):
        g = general_overlay(num_tiles=5)
        assert not AnalyticEstimator().system(g).fits_in(usable_budget())

    def test_lut_is_limiting_resource(self):
        g = general_overlay(num_tiles=4)
        util = AnalyticEstimator().system(g).utilization(XCVU9P)
        assert util["lut"] == max(util.values())
        assert util["lut"] > 0.8  # Fig. 16a: overlays consume 81-97% LUT

    def test_breakdown_sums_to_total(self):
        g = general_overlay()
        est = AnalyticEstimator()
        total = est.system(g)
        parts = Resources.total(est.system_breakdown(g).values())
        assert parts.lut == pytest.approx(total.lut)
        assert parts.bram == pytest.approx(total.bram)

    def test_l2_dominates_bram(self):
        g = general_overlay()
        breakdown = AnalyticEstimator().system_breakdown(g)
        assert breakdown["noc"].bram > 100  # 512 KiB of L2 data


class TestDataset:
    def test_table1_counts(self):
        assert TABLE1_COUNTS["pe"] == 100_000
        assert TABLE1_COUNTS["switch"] == 56_700
        assert TABLE1_COUNTS["in_port"] == 34_412
        assert TABLE1_COUNTS["out_port"] == 25_796

    def test_generate_all_families(self):
        data = generate_all(scale=0.002)
        assert set(data) == {"pe", "switch", "in_port", "out_port"}
        for ds in data.values():
            assert len(ds.features) == len(ds.labels)
            assert ds.features.shape[1] == len(ds.feature_names)

    def test_split_ratios(self):
        data = generate_all(scale=0.01)["switch"]
        train, test, val = data.split()
        n = len(data.features)
        assert len(train.features) == int(n * 0.8)
        assert abs(len(test.features) - n * 0.1) <= 1
        assert len(train.features) + len(test.features) + len(val.features) == n

    def test_labels_nonnegative(self):
        data = generate_all(scale=0.002)
        for ds in data.values():
            assert (ds.labels >= 0).all()

    def test_generate_all_reproducible_across_processes(self):
        # The per-family seed offset must not depend on PYTHONHASHSEED:
        # two subprocesses with different hash seeds must agree bit-for-bit.
        import subprocess
        import sys

        script = (
            "from repro.model.resource.dataset import generate_all\n"
            "import hashlib\n"
            "d = generate_all(scale=0.002, seed=7)\n"
            "h = hashlib.sha256()\n"
            "for fam in sorted(d):\n"
            "    h.update(d[fam].features.tobytes())\n"
            "    h.update(d[fam].labels.tobytes())\n"
            "print(h.hexdigest())\n"
        )
        import repro

        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        digests = []
        for hash_seed in ("0", "4242"):
            env = dict(
                os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src_dir
            )
            out = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            digests.append(out.stdout.strip())
        assert digests[0] == digests[1]

    def test_pessimism_inflates_lut(self):
        # Dataset labels should be systematically above the analytic truth.
        from repro.model.resource.dataset import generate_switch_dataset
        from repro.model.resource.analytic import switch_resources

        ds = generate_switch_dataset(count=300, seed=7)
        ratio = []
        for feats, label in zip(ds.features, ds.labels):
            sw = Switch(0, width_bits=int(feats[0]))
            truth = switch_resources(sw, int(feats[1]), int(feats[2]))
            ratio.append(label[0] / truth.lut)
        assert np.mean(ratio) > 1.05


class TestMlp:
    @pytest.fixture(scope="class")
    def trained(self):
        data = generate_all(scale=0.01)["switch"]
        train, test, val = data.split()
        mlp = ResourceMlp(
            data.features.shape[1], MlpConfig(epochs=40, seed=3)
        )
        mlp.fit(train)
        return mlp, test

    def test_training_converges(self, trained):
        mlp, test = trained
        err = mlp.evaluate(test)
        assert err["lut"] < 0.25

    def test_predictions_nonnegative(self, trained):
        mlp, test = trained
        pred = mlp.predict(test.features)
        assert (pred >= 0).all()

    def test_predict_single_row(self, trained):
        mlp, test = trained
        pred = mlp.predict(test.features[0])
        assert pred.shape == (1, 4)


class TestEstimators:
    def test_analytic_matches_functions(self):
        """One definition of a footprint: ``system()`` IS the total the
        DSE's tile-count search decided "fits" with — ``==``, no tolerance."""
        from repro.dse.system import _largest_fit

        est = AnalyticEstimator()
        designs = os.path.join(
            os.path.dirname(__file__), "..", "bench", "designs"
        )
        for name in sorted(os.listdir(designs)):
            sysadg = load_sysadg(os.path.join(designs, name))
            p = sysadg.params
            tiles, total = _largest_fit(
                est.tile(sysadg.adg) + control_core_resources(),
                l2_resources(p.l2_kib, p.l2_banks),
                p.noc_bytes_per_cycle,
                usable_budget(),
                bound=p.num_tiles,
            )
            assert tiles == p.num_tiles, name
            assert est.system(sysadg) == total, name

    def test_ml_estimator_tracks_analytic(self):
        g = general_overlay()
        ml = MlEstimator(dataset_scale=0.02, seed=1)
        analytic = AnalyticEstimator().tile(g.adg).lut
        predicted = ml.tile(g.adg).lut
        assert predicted == pytest.approx(analytic, rel=0.35)

    @pytest.fixture(scope="class")
    def small_ml(self):
        return MlEstimator(dataset_scale=0.01, seed=2)

    def test_ml_estimator_reports_training_error(self, small_ml):
        assert set(small_ml.training_error) == {
            "pe", "switch", "in_port", "out_port"
        }

    def test_ml_tile_is_the_sum_of_its_nodes(self, small_ml):
        """The memoised ``tile()`` is exactly the id-order sum of
        ``node()``, on a first call and on a call answered from the memo."""
        designs = os.path.join(
            os.path.dirname(__file__), "..", "bench", "designs"
        )
        suite = load_sysadg(os.path.join(designs, "dsp.json"))
        for adg in (general_overlay().adg, suite.adg):
            expected = summed_nodes(small_ml, adg)
            assert small_ml.tile(adg) == expected
            assert small_ml.tile(adg) == expected


def summed_nodes(est, adg):
    """The unmemoised reference tile: ``node()`` of every node, added as
    ``Resources`` in id order, plus the dispatcher."""
    total = Resources()
    for node in adg.nodes():
        total = total + est.node(adg, node)
    return total + dispatcher_resources(
        len(adg.engines), len(adg.in_ports) + len(adg.out_ports)
    )


class TestTileMemo:
    """An estimator prices each distinct (node, in-degree, out-degree)
    once, and its totals stay those of a fresh estimator."""

    def test_long_lived_estimator_equals_a_fresh_one(self):
        """Three seeded runs of 30 edits (random transforms, switch
        collapses, capability pruning, padding steps priced by the
        long-lived estimator itself) never leave a stale price behind."""
        import random

        from repro.adg import SystemParams, seed_for_workloads
        from repro.compiler import generate_variants
        from repro.dse import (
            TransformFailed,
            apply_random_transform,
            collapse_random_switch,
            prune_capabilities,
        )
        from repro.dse.transforms import PADDING_STEPS
        from repro.scheduler import schedule_workload
        from repro.workloads import get_suite

        workloads = get_suite("dsp")[:3]
        seed = seed_for_workloads(workloads)
        schedules = [
            schedule_workload(generate_variants(w), seed, SystemParams())
            for w in workloads
        ]
        lut_cap = AnalyticEstimator().tile(seed).lut * 1.3
        for rng_seed in range(3):
            rng = random.Random(rng_seed)
            adg = seed.clone()
            est = AnalyticEstimator()

            def fits():
                return est.tile(adg).lut <= lut_cap

            for _ in range(30):
                edit = rng.randrange(4)
                if edit == 0:
                    try:
                        apply_random_transform(adg, rng)
                    except TransformFailed:
                        pass
                elif edit == 1:
                    collapse_random_switch(adg, schedules, rng)
                elif edit == 2:
                    prune_capabilities(adg, schedules)
                else:
                    any(step(adg, fits) for step in PADDING_STEPS)
                fresh = AnalyticEstimator()
                assert est.tile(adg) == fresh.tile(adg)
                assert est.tile(adg) == summed_nodes(fresh, adg)
                assert est.tile_breakdown(adg) == fresh.tile_breakdown(adg)

    def test_nodes_are_found_by_identity(self, monkeypatch):
        """A clone's shared nodes are found by id, degrees and identity,
        without a value-keyed lookup; a node replaced in place (same id,
        same degrees) misses and is priced afresh."""
        from repro.model.resource import predictor

        adg = general_overlay().adg
        est = AnalyticEstimator()
        est.tile(adg)
        keyed = [0]
        key = predictor._key

        def counted_key(*args):
            keyed[0] += 1
            return key(*args)

        def keyed_tile(adg):
            """``est.tile(adg)``, checked against a fresh estimator, and
            the value-keyed lookups it made."""
            want = AnalyticEstimator().tile(adg)
            keyed[0] = 0
            with monkeypatch.context() as patch:
                patch.setattr(predictor, "_key", counted_key)
                assert est.tile(adg) == want
            return keyed[0]

        clone = adg.clone()
        assert keyed_tile(clone) == 0
        pe = clone.pes[0]
        clone.replace_node(pe.node_id, width_bits=pe.width_bits * 2)
        assert keyed_tile(clone) == 1
        assert keyed_tile(adg) == 1  # the entry now holds the clone's node

    def test_explore_prices_each_key_once(self, monkeypatch):
        """One DSE run prices a key once, not once per ``tile()`` call."""
        from collections import Counter

        from repro.dse import DseConfig, explore
        from repro.model.resource import predictor
        from repro.workloads import get_suite

        priced = Counter()
        price = predictor.node_resources

        def counting(adg, node):
            nid = node.node_id
            priced[
                node, len(adg.predecessors(nid)), len(adg.successors(nid))
            ] += 1
            return price(adg, node)

        monkeypatch.setattr(predictor, "node_resources", counting)
        explore(get_suite("dsp"), DseConfig(iterations=40, seed=2))
        assert priced
        assert max(priced.values()) == 1

    def test_anneal_search_prices_each_key_once(self, monkeypatch):
        """``repro dse``'s default path: the annealer's candidate sweeps
        run in the evaluator on the explorer's own estimator."""
        from collections import Counter

        from repro.dse import DseConfig
        from repro.model.resource import predictor
        from repro.search import SearchSettings, run_search
        from repro.workloads import get_suite

        priced = Counter()
        price = predictor.node_resources

        def counting(adg, node):
            priced[predictor._key(adg, node)] += 1
            return price(adg, node)

        monkeypatch.setattr(predictor, "node_resources", counting)
        run_search(
            get_suite("dsp"),
            DseConfig(iterations=40, seed=2),
            SearchSettings(strategy="anneal", trials=40, batch=1, seed=2),
        )
        assert priced
        assert max(priced.values()) == 1
