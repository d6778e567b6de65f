"""Tests of the benchmark itself.  Run with ``python -m pytest bench -q``
(tier-1 collects ``tests/`` only, so these never slow it down)."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import compare  # noqa: E402
import inputs  # noqa: E402
import spec  # noqa: E402
import stats  # noqa: E402


# -- helpers -----------------------------------------------------------
def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 0.50) == 50
    assert stats.percentile(values, 0.95) == 95
    assert stats.percentile([7.0], 0.95) == 7.0
    assert stats.tail_samples(200, 0.95) == 10
    assert stats.tail_samples(168, 0.95) == 8


def test_self_time_subtracts_only_what_children_cover():
    parent = (0.0, 10.0)
    # Overlapping children count once; parts outside the parent not at all.
    children = [(1.0, 4.0), (3.0, 6.0), (9.0, 12.0), (20.0, 21.0)]
    assert stats.covered(parent, children) == pytest.approx(6.0)
    assert stats.self_time(parent, children) == pytest.approx(4.0)
    assert stats.self_time(parent, []) == pytest.approx(10.0)


def test_probe_around_takes_the_nearest_probe_on_each_side():
    times, values = [1.0, 2.0, 3.0, 4.0], [10.0, 20.0, 30.0, 40.0]
    assert stats.probe_around(times, values, 2.2, 2.8) == 25.0
    assert stats.probe_around(times, values, 2.2, 3.5) == 30.0
    assert stats.probe_around(times, values, 0.5, 0.8) == 10.0  # none before
    assert stats.probe_around(times, values, 4.5, 5.0) == 40.0  # none after


def test_spread_needs_four_samples():
    assert stats.spread([1.0, 2.0, 3.0]) is None
    assert stats.spread([10.0, 10.0, 10.0, 10.0]) == 0.0
    assert stats.spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(0.3)


# -- inputs ------------------------------------------------------------
def test_plans_repeat_per_seed_and_differ_across_seeds():
    expected = check.load_expected()
    kernels = sorted(expected["deploy"]["general"])
    short = inputs.short_kernels(expected)
    plans = {
        "deploy": lambda s: inputs.deploy_plan(s, kernels),
        "batch": lambda s: inputs.batch_plan(s, short),
        "serve": lambda s: inputs.serve_plan(s, inputs.DESIGNS, kernels),
    }
    for make in plans.values():
        assert make(2) == make(2)
        assert make(2) != make(3)
        assert sorted(make(2)) != make(2)  # actually shuffled
    assert len(plans["deploy"](2)) == 4 * 28
    assert len(plans["serve"](2)) == 4 * 28 * 3
    batch = plans["batch"](2)
    assert set(batch) == set(short)
    assert len(batch) - len(short) == round(inputs.DUPLICATE_SHARE * len(short))
    chunks = inputs.chunked(plans["deploy"](2), inputs.DEPLOY_CHUNKS)
    assert [p for c in chunks for p in c] == plans["deploy"](2)


def test_every_study_a_seed_can_select_has_a_reference():
    expected = check.load_expected()
    for seed in range(3 * inputs.STUDY_SEEDS):
        key = str(inputs.study_seed(seed))
        assert set(expected["overlay_gen"][key]) == set(inputs.SUITES)
        assert set(expected["search_batch"][key]) == set(inputs.SEARCH_STRATEGIES)


# -- the output checker ------------------------------------------------
def test_checker_flags_one_changed_response_byte():
    doc = {"op": "simulate", "workload": "fir", "cycles": 1249634.98}
    want = check.response_digest(doc)
    ok = {"ok": True, "result": doc}
    assert check.check_response("general/fir/simulate", ok, want) is None
    tampered = {"ok": True, "result": {**doc, "workload": "fis"}}
    assert check.check_response("general/fir/simulate", tampered, want)
    unmappable = {"ok": False, "error": {"code": "unmappable"}}
    assert check.check_response("dsp/blur/map", unmappable, check.UNMAPPABLE) is None
    assert check.check_response("dsp/blur/map", unmappable, want)
    assert check.check_response("dsp/blur/map", ok, check.UNMAPPABLE)


def test_checker_flags_a_wrong_cycle_count_as_a_failed_op():
    want = check.load_expected()["deploy"]["general"]["mm"]
    good = SimpleNamespace(variant=want["variant"], cycles=want["cycles"])
    assert check.check_sim("general/mm", good, want) is None
    off_by_one = SimpleNamespace(variant=want["variant"], cycles=want["cycles"] + 1)
    assert "cycles" in check.check_sim("general/mm", off_by_one, want)
    assert check.check_sim("general/mm", None, want)  # mapped expected
    assert check.check_sim("dsp/blur", good, None)    # unmappable expected
    assert check.check_sim("dsp/blur", None, None) is None


# -- compare -----------------------------------------------------------
def _results(ops_per_s, failed_share=0.0, spread=0.01):
    return {"workloads": {"sim_long": {"end_to_end": {
        "ops_per_s": {"value": ops_per_s, "spread": spread},
        "failed_share": {"value": failed_share, "spread": None},
    }}}}


def test_compare_verdicts():
    bound = next(
        e["bound"] for e in spec.load_benchmark()["end_to_end"]
        if e["name"] == "ops_per_s"
    )

    def verdicts(a, b):
        return {r["metric"]: r["verdict"] for r in compare.compare(a, b)}

    base = _results(100.0)
    assert verdicts(base, _results(100.0 * (1 - bound / 2)))["ops_per_s"] == "same"
    assert verdicts(base, _results(100.0 * (1 - 2 * bound)))["ops_per_s"] == "worse"
    assert verdicts(base, _results(100.0 * (1 + 2 * bound)))["ops_per_s"] == "better"
    noisy = _results(100.0 * (1 - 2 * bound), spread=2 * bound)
    assert verdicts(base, noisy)["ops_per_s"] == "unresolved"
    assert verdicts(base, _results(100.0, failed_share=0.01))["failed_share"] == "worse"


# -- BENCHMARK.json and the whole thing --------------------------------
def test_benchmark_json_matches_the_benchmark():
    benchmark = spec.load_benchmark()
    assert set(benchmark) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert "setup_s" in [e["name"] for e in benchmark["end_to_end"]]
    names = [
        e["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for e in benchmark[key]
    ] + [e["name"] for e in spec.PARTIAL_END_TO_END]
    assert len(names) == len(set(names))
    for entry in spec.PARTIAL_END_TO_END:
        assert set(entry["workloads"] or ()) <= set(spec.workload_names(benchmark))


def test_smoke_run_emits_every_metric_for_every_workload(tmp_path):
    """``run.py --smoke --trace``: 1 s box, one plain and one traced rep."""
    out = tmp_path / "results.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--trace",
         "--out", str(out)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = json.loads(out.read_text())
    benchmark = spec.load_benchmark()
    layers = {e["name"] for e in benchmark["per_layer"]}
    for workload in spec.workload_names(benchmark):
        doc = results["workloads"][workload]
        want = {
            e["name"] for e in spec.end_to_end_specs(benchmark)
            if spec.applies(e, workload)
        }
        assert set(doc["end_to_end"]) == want, workload
        assert set(doc["per_layer"]) == layers, workload
        assert doc["failed"] == 0 and doc["attempted"] > 0, doc["reasons"]
        assert os.path.exists(os.path.join(inputs.ROOT, doc["info"]["trace"]))
    env = results["environment"]
    assert env["nproc"] and env["python"]


def test_driver_line_and_refusals(tmp_path):
    run = [sys.executable, os.path.join(HERE, "run.py")]
    proc = subprocess.run(
        run + ["--workload", "sim_long", "--seed", "5", "--seconds", "1",
               "--trace", "0"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert set(line["metrics"]) == {
        e["name"] for e in spec.load_benchmark()["end_to_end"]
    }
    # A checkout whose reference disagrees with the program: exit 1.
    copy = tmp_path / "checkout"
    shutil.copytree(HERE, copy / "bench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(spec.BENCHMARK_PATH, copy / "BENCHMARK.json")
    os.symlink(inputs.SRC, copy / "src")
    expected = check.load_expected()
    expected["sim_long"]["gemm"]["cycles"] += 1
    (copy / "bench" / "expected.json").write_text(json.dumps(expected))
    proc = subprocess.run(
        [sys.executable, str(copy / "bench" / "run.py"), "--workload",
         "sim_long", "--seconds", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] > 0
    assert "gemm cycles" in proc.stdout

    too_many = (os.cpu_count() or 1) + 1
    proc = subprocess.run(
        run + ["--connections", str(too_many)], capture_output=True, text=True
    )
    assert proc.returncode == 2 and "nproc" in proc.stderr
