"""Tests for repro.validate.soak / promote: sharded campaigns, resume,
fault isolation, regression promotion, and the ``repro soak`` CLI."""

import glob
import json
import os
import shutil
import subprocess
import sys

import pytest

from repro.cli import main
from repro.engine import ArtifactStore, MetricsLogger
from repro.validate import ToleranceBands
from repro.validate.corpus import (
    DivergenceCorpus,
    case_key,
    load_promoted,
    replay_promoted,
)
from repro.validate.promote import _TEST_MODULE, promote_failures
from repro.validate.soak import (
    CampaignConfig,
    SoakError,
    soak_run,
)

from .test_validate import read_bytes, tree_bytes

#: Flag every model/sim gap: guarantees the fixed seeds below produce
#: divergences to dedupe, promote, and replay.
ZERO_TOL = ToleranceBands(compute=0.0, memory=0.0, aux=0.0, abs_floor=0.0)


def _pytest(path):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(path)],
        capture_output=True, text=True, env=env,
    )


def _config(shards, budget=12, seed=3):
    return CampaignConfig(
        budget=budget, seed=seed, shards=shards, bands=ZERO_TOL,
        shrink_budget=20,
    )


@pytest.fixture(scope="module")
def serial_report():
    return soak_run(_config(shards=1), workers=1)


class TestShardDeterminism:
    def test_campaign_key_ignores_shard_count(self):
        assert _config(1).campaign_key() == _config(4).campaign_key()

    def test_shard_ranges_cover_budget_contiguously(self):
        ranges = _config(shards=5, budget=12).shard_ranges()
        assert sum(c for _, c in ranges) == 12
        assert ranges[0][0] == 0
        for (s0, c0), (s1, _) in zip(ranges, ranges[1:]):
            assert s1 == s0 + c0

    def test_sharded_report_is_byte_identical_to_serial(self, serial_report):
        sharded = soak_run(_config(shards=4), workers=1)
        assert sharded.render() == serial_report.render()
        assert [f.failure_key for f in sharded.failures] == [
            f.failure_key for f in serial_report.failures
        ]
        assert [case_key(f.case) for f in sharded.failures] == [
            case_key(f.case) for f in serial_report.failures
        ]

    def test_dedup_keeps_smallest_witness_per_key(self, serial_report):
        assert serial_report.raw_failures > len(serial_report.failures)
        keys = [f.failure_key for f in serial_report.failures]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)

    def test_pool_path_matches_serial(self, serial_report):
        pooled = soak_run(_config(shards=3), workers=2)
        assert pooled.render() == serial_report.render()


class TestFaultIsolation:
    def test_killed_shard_degrades_not_fails(self, serial_report):
        report = soak_run(_config(shards=3), workers=1, inject_crash_shards=[1])
        assert report.crashed_shards == [1]
        assert not report.complete and not report.ok
        assert report.cases_run < serial_report.cases_run
        assert "degraded: shard failures" in report.render()

    def test_all_shards_crashed_raises(self):
        with pytest.raises(SoakError):
            soak_run(
                _config(shards=2), workers=1, inject_crash_shards=[0, 1]
            )

    def test_crash_then_resume_reaches_full_coverage(
        self, tmp_path, serial_report
    ):
        state = str(tmp_path / "state")
        config = _config(shards=3)
        crashed = soak_run(
            config, state_dir=state, workers=1, inject_crash_shards=[1]
        )
        assert crashed.crashed_shards == [1]
        resumed = soak_run(config, state_dir=state, workers=1, resume=True)
        assert resumed.cached_shards == [0, 2]   # only shard 1 recomputed
        assert resumed.crashed_shards == []
        assert resumed.render() == serial_report.render()

    def test_resume_skips_all_finished_shards(self, tmp_path):
        state = str(tmp_path / "state")
        config = _config(shards=2, budget=8)
        first = soak_run(config, state_dir=state, workers=1)
        metrics = MetricsLogger()
        second = soak_run(
            config, state_dir=state, workers=1, resume=True, metrics=metrics
        )
        assert second.cached_shards == [0, 1]
        cached = metrics.of_type("job_cached")
        assert [(e["runner"], e["job"]) for e in cached] == [
            ("soak.shards", 0), ("soak.shards", 1),
        ]
        assert not metrics.of_type("job_done")
        assert second.render() == first.render()

    def test_resume_answers_from_store_without_rerun(self, tmp_path):
        """A stored shard is never re-executed on resume: every shard is
        set to crash if it runs, yet the resumed campaign is complete."""
        state = str(tmp_path / "state")
        config = _config(shards=2, budget=4)
        first = soak_run(config, state_dir=state, workers=1)
        store = ArtifactStore(os.path.join(state, "shards"))
        assert sorted(store.meta(k)["shard"] for k in store.keys()) == [0, 1]
        metrics = MetricsLogger()
        resumed = soak_run(
            config, state_dir=state, workers=1, resume=True, metrics=metrics,
            inject_crash_shards=[0, 1],
        )
        assert resumed.cached_shards == [0, 1]
        assert resumed.crashed_shards == [] and resumed.complete
        assert len(metrics.of_type("job_cached")) == 2
        assert not metrics.of_type("job_done")
        assert resumed.render() == first.render()

    def test_foreign_artifact_is_recomputed(self, tmp_path):
        """Only ``FuzzStats`` answer a shard: anything else stored under
        its key is recomputed (and overwritten), not trusted."""
        state = str(tmp_path / "state")
        config = _config(shards=2, budget=4)
        soak_run(config, state_dir=state, workers=1)
        store = ArtifactStore(os.path.join(state, "shards"))
        (key,) = [k for k in store.keys() if store.meta(k)["shard"] == 1]
        store.put(key, "not-fuzz-stats")
        resumed = soak_run(config, state_dir=state, workers=1, resume=True)
        assert resumed.cached_shards == [0]
        assert resumed.complete
        assert store.get(key).budget == 2

    def test_resume_answers_a_committed_state_dir(self, tmp_path):
        """``tests/golden/soak_state`` was written by an earlier release
        (budget 4, seed 0, 2 shards, default bands): ``--resume`` still
        answers both shards from it, and a fresh run writes its bytes."""
        golden = os.path.join(os.path.dirname(__file__), "golden", "soak_state")
        config = CampaignConfig(budget=4, seed=0, shards=2, shrink_budget=20)
        state = str(tmp_path / "resumed")
        shutil.copytree(golden, state)
        resumed = soak_run(config, state_dir=state, workers=1, resume=True)
        assert resumed.cached_shards == [0, 1]
        fresh_state = tmp_path / "fresh"
        fresh = soak_run(config, state_dir=str(fresh_state), workers=2)
        assert fresh.cached_shards == []
        assert resumed.render() == fresh.render()
        assert tree_bytes(str(fresh_state)) == tree_bytes(golden)


class TestPromotion:
    @pytest.fixture()
    def promoted_dir(self, tmp_path, serial_report):
        dest = str(tmp_path / "regression")
        names = promote_failures(serial_report.failures, dest, ZERO_TOL)
        assert names
        return dest

    def test_dry_run_names_without_writing(self, tmp_path, serial_report):
        dest = str(tmp_path / "dry")
        names = promote_failures(
            serial_report.failures, dest, ZERO_TOL, dry_run=True
        )
        assert len(names) == len(serial_report.failures)
        assert not os.path.exists(dest)

    def test_promoted_docs_are_strict_deterministic_json(
        self, promoted_dir, serial_report
    ):
        cases_dir = os.path.join(promoted_dir, "cases")
        files = sorted(os.listdir(cases_dir))
        assert len(files) == len(serial_report.failures)
        for name in files:
            doc = load_promoted(os.path.join(cases_dir, name))
            assert doc["expected"] == doc["failure_key"]
            json.dumps(doc, allow_nan=False)
        # Re-promotion lands on identical bytes.
        before = {n: read_bytes(os.path.join(cases_dir, n)) for n in files}
        promote_failures(serial_report.failures, promoted_dir, ZERO_TOL)
        for name, content in before.items():
            assert read_bytes(os.path.join(cases_dir, name)) == content

    def test_replay_matches_expected_key(self, promoted_dir):
        rows = DivergenceCorpus(promoted_dir).replay()
        assert rows
        assert all(actual == expected for _, expected, actual in rows)

    def test_generated_module_is_the_committed_one(self):
        committed = os.path.join(
            os.path.dirname(__file__), "regression", "test_promoted_cases.py"
        )
        with open(committed, encoding="utf-8") as f:
            assert f.read() == _TEST_MODULE

    def test_replay_detects_behaviour_change(self, promoted_dir):
        cases_dir = os.path.join(promoted_dir, "cases")
        name = sorted(os.listdir(cases_dir))[0]
        path = os.path.join(cases_dir, name)
        doc = load_promoted(path)
        assert replay_promoted(doc) == doc["expected"]
        # Loosen the recorded bands: the divergence vanishes, so replay
        # reports a changed (passing) behaviour.
        doc["bands"] = {"compute": 10.0, "memory": 10.0, "aux": 10.0,
                       "abs_floor": 1e9}
        assert replay_promoted(doc) is None

    def test_promoted_cases_collected_by_pytest(self, promoted_dir):
        proc = _pytest(promoted_dir)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "passed" in proc.stdout


class TestSoakCli:
    def test_reports_byte_identical_across_shard_counts(self, tmp_path, capsys):
        # ``fuzz`` is the same loop: the campaign of one shard.
        runs = []
        for n, command in enumerate((
            ["fuzz"],
            ["soak", "--shards", "1", "--workers", "1"],
            ["soak", "--shards", "4", "--workers", "1"],
        )):
            corpus = tmp_path / f"corpus-{n}"
            argv = command + [
                "--budget", "5", "--seed", "3", "--rel-tol", "0",
                "--abs-floor", "0", "--corpus", str(corpus),
            ]
            report = tmp_path / f"triage-{n}.txt"
            if command[0] == "soak":
                argv += ["--report", str(report)]
            rc = main(argv)
            out = capsys.readouterr().out
            assert rc == 1          # fresh corpus: failures are new
            if command[0] == "soak":
                assert out.startswith(report.read_text())
                out = out.replace(f"wrote triage report to {report}\n", "")
            runs.append((out, tree_bytes(corpus)))
        assert runs[0] == runs[1] == runs[2]
        assert "new failures: 2" in runs[0][0] and len(runs[0][1]) == 2

    def test_resume_exits_zero_on_known_failures(self, tmp_path, capsys):
        argv = [
            "soak", "--budget", "8", "--seed", "3", "--shards", "2",
            "--workers", "1", "--rel-tol", "0", "--abs-floor", "0",
            "--shrink-budget", "20",
            "--state", str(tmp_path / "state"),
            "--corpus", str(tmp_path / "corpus"),
        ]
        assert main(argv) == 1
        capsys.readouterr()
        rc = main(argv + ["--resume"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "resumed: shard(s) [0, 1]" in out
        assert "new failures: 0" in out

    def test_promote_then_validate_regression(self, tmp_path, capsys):
        dest = str(tmp_path / "regression")
        rc = main(
            ["soak", "--budget", "8", "--seed", "3", "--shards", "2",
             "--workers", "1", "--rel-tol", "0", "--abs-floor", "0",
             "--shrink-budget", "20",
             "--corpus", str(tmp_path / "corpus"),
             "--promote", dest]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "promoted" in out
        rc = main(["validate", "--corpus", dest])
        out = capsys.readouterr().out
        assert rc == 0
        assert "2/2 minimal repros still reproduce" in out
        # One policy: a repro that stops yielding its recorded key is
        # listed and fails the command.
        path = sorted(glob.glob(os.path.join(dest, "cases", "*.json")))[0]
        doc = load_promoted(path)
        doc["expected"] = "divergence:other"
        with open(path, "w") as fh:
            json.dump(doc, fh)
        assert main(["validate", "--corpus", dest]) == 1
        out = capsys.readouterr().out
        assert "1/2 minimal repros" in out
        assert f"CHANGED {os.path.basename(path)}" in out

    def test_corpus_and_promote_write_one_format(self, tmp_path, capsys):
        # What ``fuzz --corpus D`` writes IS the promoted form: validate
        # replays it with no band flags, promoting the same campaign over
        # it adds only the pytest module, and pytest then collects it.
        dest = tmp_path / "d"
        campaign = ["--budget", "8", "--seed", "3", "--rel-tol", "0",
                    "--abs-floor", "0"]
        assert main(["fuzz"] + campaign + ["--corpus", str(dest)]) == 1
        before = tree_bytes(dest)
        assert before and all(
            name.startswith("cases" + os.sep) and name.endswith(".json")
            for name in before
        )
        assert main(["validate", "--corpus", str(dest)]) == 0
        rc = main(["soak", "--shards", "2", "--workers", "1"] + campaign
                  + ["--promote", str(dest)])
        assert rc == 1              # no --corpus: no memory of the failures
        capsys.readouterr()
        after = tree_bytes(dest)
        assert set(after) - set(before) == {
            "__init__.py", "test_promoted_cases.py"
        }
        assert all(after[name] == content for name, content in before.items())
        proc = _pytest(dest)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "2 passed" in proc.stdout

    def test_promote_dry_run_writes_nothing(self, tmp_path, capsys):
        dest = str(tmp_path / "regression")
        main(
            ["soak", "--budget", "8", "--seed", "3", "--shards", "2",
             "--workers", "1", "--rel-tol", "0", "--abs-floor", "0",
             "--shrink-budget", "20", "--promote", dest, "--dry-run"]
        )
        out = capsys.readouterr().out
        assert "would promote" in out
        assert not os.path.exists(dest)

    def test_metrics_stream_brackets_campaign(self, tmp_path, capsys):
        from .test_events import assert_event_file, no_unclosed_metrics_file

        metrics = tmp_path / "events.jsonl"
        with no_unclosed_metrics_file():
            main(
                ["soak", "--budget", "8", "--seed", "3", "--shards", "2",
                 "--workers", "1", "--rel-tol", "0", "--abs-floor", "0",
                 "--shrink-budget", "20", "--metrics", str(metrics)]
            )
        capsys.readouterr()
        records = assert_event_file(metrics)
        events = [r["event"] for r in records]
        assert events[0] == "soak_start"
        assert events[-1] == "soak_done"
        shards_done = [
            r["job"] for r in records
            if r["event"] == "job_done" and r["runner"] == "soak.shards"
        ]
        assert shards_done == [0, 1]
        assert "soak_merged" in events
