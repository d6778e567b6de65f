"""Tests for repro.validate: generators, invariants, oracle, shrinker,
corpus, and the fuzz/validate CLI entry points."""

import itertools
import os
import random

import pytest

from repro.cli import main
from repro.validate import (
    DivergenceCorpus,
    Failure,
    FuzzCase,
    ProgramSpec,
    ToleranceBands,
    case_key,
    case_size,
    check_case,
    check_schedule,
    classify_bottleneck,
    fuzz_run,
    make_failure_key,
    random_case,
    random_program,
    run_oracle,
    shrink,
    validate_run,
)

#: Tolerances that flag ANY model/sim disagreement — the seeded
#: "known-divergence" configuration used throughout these tests.
ZERO_TOL = ToleranceBands(compute=0.0, memory=0.0, aux=0.0, abs_floor=0.0)


class TestGenerators:
    def test_same_seed_same_case(self):
        a = random_case("11:3")
        b = random_case("11:3")
        assert a == b
        assert a.to_dict() == b.to_dict()

    def test_different_seeds_differ(self):
        cases = {case_key(random_case(f"0:{i}")) for i in range(8)}
        assert len(cases) > 1

    def test_program_builds_and_validates(self):
        rng = random.Random(5)
        for _ in range(20):
            program = random_program(rng)
            workload = program.build()       # Workload.validate() inside
            assert workload.trip_product <= 1024

    def test_case_round_trips_through_json(self):
        import json

        case = random_case("7:0")
        doc = json.loads(json.dumps(case.to_dict()))
        assert FuzzCase.from_dict(doc) == case

    def test_array_sizes_cover_accesses(self):
        rng = random.Random(9)
        for _ in range(20):
            program = random_program(rng)
            workload = program.build()
            trips = {l.var: l.trip for l in workload.loops}
            sizes = {a.name: a.size for a in workload.arrays}
            for array, index, _write in workload.all_accesses():
                top = index.const + sum(
                    c * (trips[v] - 1) for v, c in index.coeffs
                )
                assert top < sizes[array]

    def test_generated_adg_is_well_formed(self):
        for i in range(10):
            case = random_case(f"3:{i}")
            case.adg().validate()


class TestFamilyGenerators:
    """Family-aware fuzzing: fsm / tdm / irregular program shapes."""

    def test_every_family_builds_and_validates(self):
        from repro.validate import PROGRAM_FAMILIES

        for family in PROGRAM_FAMILIES:
            rng = random.Random(17)
            for _ in range(10):
                program = random_program(rng, family=family)
                program.build()  # Workload.validate() inside

    def test_unknown_family_rejected(self):
        from repro.validate import GeneratorError

        with pytest.raises(GeneratorError):
            random_program(random.Random(0), family="quantum")

    def test_mixed_draw_covers_all_families(self):
        # Unconstrained generation must eventually draw each family.
        from repro.validate import PROGRAM_FAMILIES

        seen = set()
        for i in range(120):
            rng = random.Random(i)
            program = random_program(rng)
            if program.statement.predicate is not None:
                seen.add("fsm")
            if program.variable_trips:
                seen.add("irregular")
            if len(program.statement.terms) >= 4:
                seen.add("tdm")
            if (
                program.statement.predicate is None
                and not program.variable_trips
            ):
                seen.add("affine")
        assert seen >= set(PROGRAM_FAMILIES)

    def test_fsm_programs_carry_predicates(self):
        rng = random.Random(23)
        for _ in range(10):
            program = random_program(rng, family="fsm")
            assert program.statement.predicate is not None
            workload = program.build()
            assert "select" in " ".join(
                str(s.expr) for s in workload.statements
            )

    def test_irregular_programs_have_variable_trips(self):
        rng = random.Random(29)
        for _ in range(10):
            program = random_program(rng, family="irregular")
            assert program.variable_trips
            workload = program.build()
            assert workload.has_variable_trip

    def test_family_cases_round_trip_through_json(self):
        import json

        from repro.validate import PROGRAM_FAMILIES

        for family in PROGRAM_FAMILIES:
            rng = random.Random(31)
            program = random_program(rng, family=family)
            doc = json.loads(json.dumps(program.to_dict()))
            assert ProgramSpec.from_dict(doc) == program

    def test_affine_serialization_unchanged(self):
        # Backcompat: affine specs must not grow new keys, so corpus
        # fingerprints from before the family extension stay stable.
        rng = random.Random(37)
        for _ in range(10):
            doc = random_program(rng, family="affine").to_dict()
            assert "predicate" not in doc["statement"]
            assert "variable_trips" not in doc


class TestInvariants:
    def test_clean_on_general_overlay(self):
        from repro.adg import general_overlay
        from repro.compiler import generate_variants
        from repro.scheduler import schedule_workload
        from repro.workloads import get_workload

        overlay = general_overlay()
        schedule = schedule_workload(
            generate_variants(get_workload("fir")),
            overlay.adg,
            overlay.params,
        )
        assert check_case(overlay.adg, schedule) == []

    def test_detects_corrupted_placement(self):
        from repro.adg import general_overlay
        from repro.compiler import generate_variants
        from repro.scheduler import schedule_workload
        from repro.workloads import get_workload

        overlay = general_overlay()
        schedule = schedule_workload(
            generate_variants(get_workload("vecmax")),
            overlay.adg,
            overlay.params,
        )
        dfg_id = next(iter(schedule.placement))
        schedule.placement[dfg_id] = 10_000   # nonexistent hardware
        violations = check_schedule(schedule, overlay.adg)
        assert violations
        assert all(v.invariant == "schedule" for v in violations)


class TestOracle:
    def test_bottleneck_classes(self):
        assert classify_bottleneck("none") == "compute"
        assert classify_bottleneck("dram") == "memory"
        assert classify_bottleneck("spad3.read") == "memory"
        assert classify_bottleneck("noc") == "memory"
        assert classify_bottleneck("rec") == "aux"

    def test_default_bands_accept_generated_cases(self):
        for i in range(15):
            result = run_oracle(random_case(f"0:{i}"))
            assert result.outcome in ("ok", "unschedulable"), (
                i, result.outcome, result.detail
            )

    def test_zero_tolerance_forces_divergence(self):
        diverged = 0
        for i in range(10):
            result = run_oracle(random_case(f"0:{i}"), ZERO_TOL)
            if result.outcome == "divergence":
                diverged += 1
                assert result.rel_error > 0
        assert diverged > 0

    def test_infinite_model_cycles_classified_nonfinite(self, monkeypatch):
        # Regression: an inf estimate used to flow into rel_error, where
        # it poisoned max/mean aggregates and round(inf) produced
        # non-strict JSON.  It must surface as its own outcome instead.
        import repro.validate.oracle as oracle_mod

        monkeypatch.setattr(
            oracle_mod, "estimate_cycles",
            lambda *a, **k: float("inf"),
        )
        result = run_oracle(random_case("0:0"))
        assert result.outcome == "nonfinite"
        assert result.rel_error == float("inf")
        # stats_doc stays strict JSON: non-finite floats become None.
        import json

        doc = result.stats_doc()
        json.dumps(doc, allow_nan=False)
        assert doc["rel_error"] is None
        assert doc["model_cycles"] is None

    def test_oracle_never_raises_on_corrupt_case(self):
        case = random_case("2:0")
        broken = FuzzCase(
            program=ProgramSpec.from_dict(
                {**case.program.to_dict(), "dtype": "q128"}
            ),
            adg_doc=case.adg_doc,
            params=case.params,
        )
        assert run_oracle(broken).outcome == "build_error"


class TestShrinker:
    def _failing_case(self):
        for i in range(20):
            case = random_case(f"0:{i}")
            if run_oracle(case, ZERO_TOL).outcome == "divergence":
                return case
        pytest.fail("no divergent case in 20 seeds")

    def test_shrinks_known_divergence_to_minimal_repro(self):
        case = self._failing_case()
        predicate = make_failure_key(ZERO_TOL)
        result = shrink(case, predicate)
        assert result.steps > 0
        # Still fails the same way...
        assert predicate(result.case) == result.key
        # ...and is strictly simpler than where it started.
        assert len(result.case.program.loops) <= len(case.program.loops)
        assert len(result.case.adg_doc["nodes"]) < len(case.adg_doc["nodes"])

    def test_shrink_is_deterministic(self):
        case = self._failing_case()
        predicate = make_failure_key(ZERO_TOL)
        a = shrink(case, predicate)
        b = shrink(case, predicate)
        assert a.case == b.case and a.steps == b.steps

    def test_shrink_rejects_passing_case(self):
        case = random_case("0:0")
        with pytest.raises(ValueError):
            shrink(case, lambda _: None)

    def test_drop_family_features_strips_markers(self):
        from repro.validate.shrinker import _drop_family_features

        rng = random.Random(41)
        fsm = random_program(rng, family="fsm")
        candidates = list(_drop_family_features(fsm))
        assert any(c.statement.predicate is None for c in candidates)
        irregular = random_program(rng, family="irregular")
        candidates = list(_drop_family_features(irregular))
        assert any(not c.variable_trips for c in candidates)
        # Stripped programs still build.
        for c in candidates:
            c.build()

    def test_shrunk_family_case_still_builds(self):
        # A family case whose failure key ignores the family markers
        # shrinks to an affine core.
        rng = random.Random(43)
        program = random_program(rng, family="fsm")
        base = random_case("0:0")
        case = FuzzCase(
            program=program,
            adg_doc=base.adg_doc,
            params=base.params,
            origin="test",
        )

        def key(candidate):
            return "always"  # any reduction is acceptable

        result = shrink(case, key)
        assert result.case.program.statement.predicate is None
        result.case.program.build()


def _failure(case, key="divergence:memory", **summary):
    return Failure(failure_key=key, case=case, summary=summary)


def tree_bytes(root):
    """{relative path: bytes} of every file under ``root``."""
    return {
        os.path.relpath(os.path.join(d, name), root):
            open(os.path.join(d, name), "rb").read()
        for d, _, names in os.walk(root)
        for name in names
    }


class TestCorpus:
    def test_add_dedups_and_replays(self, tmp_path):
        corpus = DivergenceCorpus(tmp_path / "corpus")
        case = random_case("5:1")
        name, new = corpus.add(
            _failure(case, "divergence:compute", rel_error=1.0), ZERO_TOL
        )
        assert new
        name2, new2 = corpus.add(
            _failure(case, "divergence:compute"), ZERO_TOL
        )
        assert name2 == name and not new2
        [(stored_name, doc, error)] = corpus.entries()
        assert stored_name == name and not error
        assert name == f"divergence_compute__{case_key(case)[:12]}.json"
        assert FuzzCase.from_dict(doc["case"]) == case
        assert doc["failure_key"] == doc["expected"] == "divergence:compute"
        assert doc["bands"] == ZERO_TOL.to_dict()
        assert doc["summary"] == {"rel_error": 1.0}    # the incumbent's
        # random_case("5:1") does not diverge, so its replay says "changed".
        assert corpus.replay() == [(name, "divergence:compute", None)]

    def test_key_ignores_origin(self):
        case = random_case("5:1")
        relabeled = FuzzCase(
            program=case.program,
            adg_doc=case.adg_doc,
            params=case.params,
            origin="elsewhere",
        )
        assert case_key(case) == case_key(relabeled)

    def _two_cases_sized(self):
        """Two distinct cases, returned (smaller, larger) by case_size."""
        a, b = random_case("5:1"), random_case("5:2")
        assert case_size(a) != case_size(b), "pick different seeds"
        return (a, b) if case_size(a) < case_size(b) else (b, a)

    def test_add_dedups_by_failure_key_keeping_smallest(self, tmp_path):
        # Regression: the corpus used to dedupe only by raw case key, so
        # one model bug hit by many generated cases piled up one entry
        # per case.  One failure signature must keep one minimal repro.
        small, large = self._two_cases_sized()
        corpus = DivergenceCorpus(tmp_path / "corpus")
        name_l, new_l = corpus.add(_failure(large), ZERO_TOL)
        assert new_l
        # A smaller witness of a known signature displaces the stored one.
        name_s, new_s = corpus.add(_failure(small), ZERO_TOL)
        assert new_s and name_s != name_l
        assert [name for name, _, _ in corpus.entries()] == [name_s]
        # Re-adding the displaced larger case now points at the smaller.
        name_again, new_again = corpus.add(_failure(large), ZERO_TOL)
        assert name_again == name_s and not new_again
        # A different signature coexists, and so does the same signature
        # under other bands: what reproduces depends on the bands.
        assert corpus.add(_failure(large, "divergence:compute"), ZERO_TOL)[1]
        assert corpus.add(_failure(large), ToleranceBands())[1]
        assert len(list(corpus.entries())) == 3

    def test_survivor_is_independent_of_add_order(self, tmp_path):
        # Two distinct witnesses of EQUAL size: the tie falls to the case
        # key, not to whoever arrived first.
        by_size = {}
        for i in range(200):
            case = random_case(f"7:{i}")
            twin = by_size.setdefault(case_size(case), case)
            if case_key(twin) != case_key(case):
                break
        else:
            pytest.fail("no equal-size pair among random_case('7:0..199')")
        small, large = self._two_cases_sized()
        for failures in (
            [_failure(twin), _failure(case)],
            [_failure(twin), _failure(case), _failure(small),
             _failure(large, "divergence:compute")],
        ):
            trees = []
            for n, order in enumerate(itertools.permutations(failures)):
                root = tmp_path / f"{len(failures)}-{n}"
                for failure in order:
                    DivergenceCorpus(root).add(failure, ZERO_TOL)
                trees.append(tree_bytes(root))
            assert all(tree == trees[0] for tree in trees)
            assert len(trees[0]) == {2: 1, 4: 2}[len(failures)]

    def test_torn_file_is_listed_and_is_nobodys_incumbent(self, tmp_path):
        corpus = DivergenceCorpus(tmp_path / "corpus")
        failure = _failure(random_case("5:1"))
        name, _ = corpus.add(failure, ZERO_TOL)
        path = os.path.join(corpus.cases_dir, name)
        whole = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(whole[: len(whole) // 2])
        [(row_name, expected, actual)] = corpus.replay()
        assert row_name == name and expected is None and actual
        # Not "known": the add rewrites it whole.
        assert corpus.add(failure, ZERO_TOL) == (name, True)
        assert open(path, "rb").read() == whole


class TestFuzzRun:
    def test_clean_run_has_no_violations(self):
        stats = fuzz_run(budget=20, seed=0)
        assert stats.invariant_violations == 0
        assert sum(stats.outcomes.values()) == 20
        assert stats.compared > 0

    def test_run_is_deterministic(self):
        a = fuzz_run(budget=15, seed=3)
        b = fuzz_run(budget=15, seed=3)
        assert a.stats_doc() == b.stats_doc()
        assert a.records == b.records

    def test_failures_recorded_and_shrunk(self, tmp_path):
        stats = fuzz_run(budget=5, seed=0, bands=ZERO_TOL)
        assert stats.failures
        for failure in stats.failures:
            assert failure.failure_key.startswith("divergence")
            assert failure.shrink_steps > 0
            # fuzz_run is pure: recording is the campaign's job.
            assert DivergenceCorpus(tmp_path / "c").add(failure, ZERO_TOL)[0]
        assert list(DivergenceCorpus(tmp_path / "c").entries())

    def test_corpus_replay_through_validate_run(self, tmp_path):
        corpus = DivergenceCorpus(tmp_path / "c")
        stats = fuzz_run(budget=5, seed=0, bands=ZERO_TOL)
        assert stats.failures
        for failure in stats.failures:
            corpus.add(failure, ZERO_TOL)
        # No bands passed: each repro replays under the ones it recorded.
        report = validate_run(corpus_dir=str(tmp_path / "c"))
        assert report.ok
        assert report.replay and not report.changed

    def test_validate_run_clean_without_corpus(self):
        report = validate_run()
        assert report.ok
        # All six suites: the 19 Table II workloads + 9 scenario-family.
        assert report.workloads_checked == 28

    def test_class_stats_quarantine_nonfinite_errors(self):
        from repro.validate.runner import ClassStats

        stats = ClassStats()
        stats.record(0.25, passed=True)
        stats.record(float("inf"), passed=False)
        stats.record(float("nan"), passed=False)
        assert stats.cases == 3
        assert stats.nonfinite == 2
        assert stats.max_rel_error == 0.25     # inf did not poison max
        assert stats.mean_rel_error == 0.25    # ...or the mean
        # nonfinite cases never count as passed
        assert stats.passed == 1

    def test_fuzz_run_records_nonfinite_failures(self, tmp_path, monkeypatch):
        import json

        import repro.validate.oracle as oracle_mod

        monkeypatch.setattr(
            oracle_mod, "estimate_cycles", lambda *a, **k: float("inf")
        )
        stats = fuzz_run(budget=4, seed=0)
        assert stats.outcomes.get("nonfinite", 0) > 0
        keys = {f.failure_key for f in stats.failures}
        assert any(k.startswith("nonfinite:") for k in keys)
        # The whole stats document stays strict JSON, and so does the
        # stored repro (its summary holds the non-finite estimate).
        json.dumps(stats.stats_doc(), allow_nan=False)
        for klass_doc in stats.stats_doc()["by_class"].values():
            assert klass_doc["nonfinite"] >= 0
        for failure in stats.failures:
            DivergenceCorpus(tmp_path / "c").add(failure, ToleranceBands())

    def test_fuzz_run_start_offset_matches_serial_draw(self):
        serial = fuzz_run(budget=6, seed=7)
        lo = fuzz_run(budget=3, seed=7, start=0)
        hi = fuzz_run(budget=3, seed=7, start=3)
        assert [r.index for r in lo.records + hi.records] == [
            r.index for r in serial.records
        ]
        assert lo.records + hi.records == serial.records


class TestCliIntegration:
    def test_fuzz_cli_reruns_byte_identically(self, tmp_path, capsys):
        argv = [
            "fuzz", "--budget", "12", "--seed", "4",
            "--corpus", str(tmp_path / "c1"),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        argv[-1] = str(tmp_path / "c2")
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "invariant violations: 0" in first

    def test_fuzz_then_validate_replays_minimal_repro(self, tmp_path, capsys):
        corpus = str(tmp_path / "corpus")
        argv = [
            "fuzz", "--budget", "4", "--seed", "0", "--corpus", corpus,
            "--rel-tol", "0", "--abs-floor", "0",
        ]
        rc = main(argv)
        out = capsys.readouterr().out
        assert rc == 1                      # new failures recorded
        assert "divergence" in out
        assert "new failures:" in out
        # Re-running finds only known failures: exit 0.
        rc = main(argv)
        out = capsys.readouterr().out
        assert rc == 0
        assert "new failures: 0" in out
        # No band flags: the repros carry the bands they failed under.
        rc = main(["validate", "--corpus", corpus])
        out = capsys.readouterr().out
        assert rc == 0
        assert "still reproduce" in out and "0/" not in out

    def test_torn_case_file_fails_validate_without_a_traceback(
        self, tmp_path, capsys
    ):
        corpus = tmp_path / "corpus"
        argv = [
            "fuzz", "--budget", "4", "--seed", "0", "--corpus", str(corpus),
            "--rel-tol", "0", "--abs-floor", "0",
        ]
        assert main(argv) == 1
        torn = sorted((corpus / "cases").iterdir())[0]
        whole = torn.read_bytes()
        torn.write_bytes(whole[: len(whole) // 2])
        capsys.readouterr()
        assert main(["validate", "--corpus", str(corpus)]) == 1
        captured = capsys.readouterr()
        assert f"UNREADABLE {torn.name}" in captured.out
        assert "Traceback" not in captured.out + captured.err
        # The campaign does not take the torn file for a known failure:
        # it reports the repro as new again and rewrites it whole.
        assert main(argv) == 1
        assert "new failures: 1" in capsys.readouterr().out
        assert torn.read_bytes() == whole
        assert main(["validate", "--corpus", str(corpus)]) == 0
        capsys.readouterr()

    def test_validate_cli_without_corpus(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "invariant violations: 0" in out

    def test_fuzz_metrics_stream(self, tmp_path, capsys):
        import json

        metrics = tmp_path / "events.jsonl"
        assert main(
            ["fuzz", "--budget", "3", "--seed", "1",
             "--metrics", str(metrics)]
        ) == 0
        capsys.readouterr()
        records = [
            json.loads(line)
            for line in metrics.read_text().strip().splitlines()
        ]
        # The one campaign stream: fuzz is a campaign of one shard.
        assert records[0]["event"] == "soak_start"
        assert records[0]["shards"] == 1
        assert records[-1]["event"] == "soak_done"
