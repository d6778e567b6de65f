"""Tests for the command-line interface."""

import argparse
import json
import pathlib

import pytest

from repro.cli import build_parser, main

SURFACE_GOLDEN = pathlib.Path(__file__).parent / "golden" / "cli_surface.json"


def cli_surface(parser):
    """Every action of every (sub)parser, keyed by command path.

    The top-level command *set* is recorded sorted: ``repro --help`` lists
    commands in module order, which is not part of the pinned surface.
    """
    surface = {}

    def walk(p, path, help_text):
        rows = []
        for action in p._actions:
            choices = action.choices
            if isinstance(action, argparse._SubParsersAction):
                helps = {c.dest: c.help for c in action._choices_actions}
                for name, child in action.choices.items():
                    walk(child, f"{path} {name}", helps.get(name))
                choices = sorted(choices)
            rows.append({
                "option_strings": list(action.option_strings),
                "dest": action.dest,
                "default": action.default,
                "type": action.type.__name__ if action.type else None,
                "choices": list(choices) if choices is not None else None,
                "nargs": action.nargs,
                "required": action.required,
                "help": action.help,
            })
        surface[path] = {"help": help_text, "actions": rows}

    walk(parser, parser.prog, parser.description)
    return surface


@pytest.fixture(scope="module")
def design_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "design.json"
    rc = main(
        ["generate", "vecmax", "-o", str(path), "-n", "10", "-s", "4"]
    )
    assert rc == 0
    return str(path)


SUBCOMMANDS = sorted(
    path.split(" ", 1)[1]
    for path in json.loads(SURFACE_GOLDEN.read_text())
    if " " in path
)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_surface_matches_the_pinned_golden(self):
        """Every option string, dest, default, type, choices, nargs,
        required flag and help text of every (sub)parser, as captured
        before ``repro.cli`` became a package."""
        golden = json.loads(SURFACE_GOLDEN.read_text())
        surface = json.loads(json.dumps(cli_surface(build_parser())))
        assert sorted(surface) == sorted(golden)
        for path in golden:
            assert surface[path] == golden[path], path

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_help_exits_0(self, command, capsys):
        """Parsing ``--help`` imports the command's module and builds its
        parser; a broken lazy import or parents= group fails here."""
        with pytest.raises(SystemExit) as exc:
            main(command.split() + ["--help"])
        assert exc.value.code == 0
        assert f"usage: repro {command}" in capsys.readouterr().out

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "dsp"])
        assert args.iterations == 150
        assert args.output == "overlay.json"


class TestCommands:
    def test_workloads_lists_all_28(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 28
        assert "cholesky" in out
        assert "indirect" in out  # crs/ellpack marked
        # The scenario families show up alongside the Table II suites.
        for name in ("threshold-fsm", "horner", "frontier-gather"):
            assert name in out

    def test_generate_writes_valid_json(self, design_path):
        with open(design_path) as f:
            doc = json.load(f)
        assert doc["version"] == 1
        assert doc["params"]["num_tiles"] >= 1

    def test_inspect(self, design_path, capsys):
        assert main(["inspect", design_path]) == 0
        out = capsys.readouterr().out
        assert "per-tile accelerator" in out
        assert "utilization" in out

    def test_map(self, design_path, capsys):
        assert main(["map", design_path, "vecmax"]) == 0
        out = capsys.readouterr().out
        assert "projected IPC" in out

    def test_map_human_form_renders_the_json_document(
        self, design_path, capsys
    ):
        assert main(["map", design_path, "vecmax", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert main(["map", design_path, "vecmax"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            doc["summary"],
            f"projected IPC {doc['estimate']['ipc']:.1f}, "
            f"bottleneck {doc['estimate']['bottleneck']}",
            f"configuration: {doc['config_words']} words",
        ]

    def test_map_failure_is_nonzero(self, design_path, capsys):
        # A vecmax-specialized (i16) overlay cannot host f64 cholesky.
        rc = main(["map", design_path, "cholesky"])
        out = capsys.readouterr().out
        if rc == 0:
            pytest.skip("padded overlay happened to fit cholesky")
        assert "does NOT map" in out

    def test_simulate(self, design_path, capsys):
        assert main(["simulate", design_path, "vecmax"]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out and "IPC" in out

    def test_simulate_batch_list(self, design_path, capsys):
        assert main(["simulate", design_path, "vecmax,vecmax"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0] == lines[1]  # duplicate answered identically

    def test_simulate_one_name_is_a_list_of_one(self, design_path, capsys):
        assert main(["simulate", design_path, "vecmax"]) == 0
        (single,) = capsys.readouterr().out.strip().splitlines()
        assert main(["simulate", design_path, "vecmax,vecmax"]) == 0
        assert capsys.readouterr().out.strip().splitlines() == [single] * 2
        # Same exit code for an unmappable name either way.
        assert main(["simulate", design_path, "cholesky"]) == main(
            ["simulate", design_path, "cholesky,cholesky"]
        )

    def test_simulate_batch_rejects_json(self, design_path, capsys):
        rc = main(["simulate", design_path, "vecmax,fir", "--json"])
        assert rc == 2
        assert "single workload" in capsys.readouterr().err

    def test_rtl_to_file(self, design_path, tmp_path, capsys):
        out_path = tmp_path / "design.v"
        assert main(["rtl", design_path, "-o", str(out_path)]) == 0
        text = out_path.read_text()
        assert "module overgen_system" in text

    def test_rtl_migen_backend(self, design_path, tmp_path, capsys):
        out_path = tmp_path / "design.py"
        rc = main(
            ["rtl", design_path, "--backend", "migen", "-o", str(out_path)]
        )
        assert rc == 0
        text = out_path.read_text()
        assert "from migen import" in text
        assert "class OvergenSystem(Module):" in text
        assert "backend migen" in capsys.readouterr().out

    def test_rtl_unknown_backend_is_error(self, design_path, capsys):
        rc = main(["rtl", design_path, "--backend", "vhdl"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown RTL backend" in err

    def test_floorplan(self, design_path, capsys):
        assert main(["floorplan", design_path]) == 0
        out = capsys.readouterr().out
        assert "SLR0" in out and "MHz" in out

    def test_floorplan_infeasible_is_nonzero(self, tmp_path, capsys):
        import json

        from repro.adg import general_overlay, sysadg_to_dict

        doc = sysadg_to_dict(general_overlay(num_tiles=64))
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        rc = main(["floorplan", str(path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "INFEASIBLE" in captured.out
        assert "exceeds XCVU9P capacity" in captured.err

    def test_generate_by_name_list(self, tmp_path):
        path = tmp_path / "two.json"
        rc = main(
            ["generate", "vecmax,convert-bit", "-o", str(path), "-n", "8"]
        )
        assert rc == 0
        assert path.exists()


class TestErrorHandling:
    def test_map_unknown_workload_exits_cleanly(self, design_path, capsys):
        rc = main(["map", design_path, "nosuchworkload"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "error:" in captured.err
        assert "nosuchworkload" in captured.err
        assert "Traceback" not in captured.err

    def test_simulate_unknown_workload_exits_cleanly(self, design_path, capsys):
        rc = main(["simulate", design_path, "bogus"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "error:" in captured.err and "bogus" in captured.err

    def test_generate_unknown_workload_in_list(self, tmp_path, capsys):
        rc = main(
            ["generate", "vecmax,typo", "-o", str(tmp_path / "x.json")]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert "typo" in captured.err

    def test_missing_design_file(self, capsys):
        rc = main(["inspect", "/nonexistent/design.json"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "no such design file" in captured.err

    @pytest.mark.parametrize(
        "command", ["inspect", "map", "simulate", "rtl", "floorplan", "advise"]
    )
    def test_malformed_design_file_is_one_error_line(
        self, command, design_path, tmp_path, capsys
    ):
        """Bad JSON died with JSONDecodeError, a duplicate node id with
        AdgError, a bad link with SerializationError: exit 1, a traceback."""
        doc = json.loads(pathlib.Path(design_path).read_text())
        garbage = tmp_path / "garbage.json"
        garbage.write_text("not json {")
        duplicate = tmp_path / "duplicate.json"
        nodes = doc["adg"]["nodes"]
        duplicate.write_text(
            json.dumps({**doc, "adg": {**doc["adg"], "nodes": nodes + nodes[:1]}})
        )
        bad_link = tmp_path / "bad_link.json"
        links = doc["adg"]["links"] + [[0, 10 ** 6]]
        bad_link.write_text(
            json.dumps({**doc, "adg": {**doc["adg"], "links": links}})
        )
        extra = [] if command in ("inspect", "rtl", "floorplan") else ["vecmax"]
        for path in (garbage, duplicate, bad_link):
            rc = main([command, str(path)] + extra)
            captured = capsys.readouterr()
            assert rc == 2, (command, path.name)
            assert captured.err.startswith(
                f"error: malformed design file {path}: "
            )
            assert len(captured.err.splitlines()) == 1

    def test_serve_boot_reports_a_malformed_design(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]")
        rc = main(["serve", str(path), "--socket", str(tmp_path / "s.sock")])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith(f"error: malformed design file {path}")

    def test_advise_unknown_workload(self, design_path, capsys):
        rc = main(["advise", design_path, "nope"])
        assert rc == 2
        assert "nope" in capsys.readouterr().err

    def test_malformed_seeds_exits_cleanly(self, tmp_path, capsys):
        rc = main(
            ["dse", "fir", "-n", "5", "--seeds", "2,x",
             "-o", str(tmp_path / "d.json")]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert "malformed --seeds" in captured.err
        assert "Traceback" not in captured.err


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        import repro

        assert out.strip() == f"repro {repro.__version__}"

    def test_pyproject_version_is_dynamic(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent
        text = (root / "pyproject.toml").read_text()
        assert 'dynamic = ["version"]' in text
        assert 'version = {attr = "repro.__version__"}' in text
        # No second, divergent static copy of the version string.
        assert 'version = "0.' not in text


def _fake_bench_docs():
    """What ``run_bench(("dse", "sim"), ...)`` returns, minus the work."""
    return {
        "dse": {
            "schema": 1, "kind": "dse", "iterations": 8, "wall_seconds": 0.1,
            "candidates_per_second": 80.0, "preserved_hit_rate": 0.9,
            "fast_path_mean_s": 1e-4, "repair_path_mean_s": 5e-4,
            "fast_path_speedup": 5.0,
            "overhead": {
                "ratio": 1.01, "calls": 100, "repeats": 2,
                "no_tracer_s": 0.001, "disabled_tracer_s": 0.00101,
            },
        },
        "sim": {
            "schema": 1, "kind": "sim", "core": "vector",
            "stepped_cycles": 1000, "wall_seconds": 0.01,
            "cycles_per_second": 1e5, "batch_cycles_per_second": 1e5,
            "batch": {"pairs": 1, "identical_to_serial": True},
            "short": {"regions": 1},
            "short_regions_per_second": 1e3,
            "batch_short_regions_per_second": 1e3,
        },
    }


class TestBenchCommand:
    """CLI wiring of ``repro bench`` (run_bench itself is tested in
    test_profile; these monkeypatch it so exit-code paths stay fast)."""

    @pytest.fixture
    def fake_run(self, monkeypatch):
        import repro.profile.bench as bench_mod

        docs = _fake_bench_docs()
        monkeypatch.setattr(
            bench_mod, "run_bench",
            lambda kinds, *a, **k: {kind: docs[kind] for kind in kinds},
        )
        return docs

    def test_bench_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.budget == "small"
        assert args.max_regression == 0.25
        assert args.max_overhead is None
        with pytest.raises(SystemExit):  # one value, one flag
            build_parser().parse_args(["bench", "--tolerance", "0.1"])

    def test_bench_ok(self, fake_run, capsys):
        assert main(["bench", "--budget", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "preserved-hit rate 90%" in out
        assert "fast path" in out and "repair" in out

    def test_compare_improvement(self, fake_run, tmp_path, capsys):
        baseline = dict(fake_run["dse"], candidates_per_second=10.0)
        path = tmp_path / "base.json"
        path.write_text(json.dumps(baseline))
        assert main(["bench", "--compare", str(path)]) == 0
        out = capsys.readouterr().out
        assert "improvement" in out and "OK" in out

    def test_compare_regression_fails(self, fake_run, tmp_path, capsys):
        baseline = dict(fake_run["dse"], fast_path_speedup=50.0)
        path = tmp_path / "base.json"
        path.write_text(json.dumps(baseline))
        assert main(["bench", "--compare", str(path)]) == 1
        out = capsys.readouterr().out
        assert "regression" in out and "FAIL" in out

    def test_compare_sim_baseline(self, fake_run, tmp_path, capsys):
        baseline = dict(fake_run["sim"], cycles_per_second=2e4)
        path = tmp_path / "base.json"
        path.write_text(json.dumps(baseline))
        assert main(["bench", "--compare", str(path)]) == 0
        assert "cycles_per_second" in capsys.readouterr().out

    def test_missing_baseline_exits_2(self, fake_run, capsys):
        rc = main(["bench", "--compare", "/nonexistent/base.json"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "no such baseline file" in captured.err
        assert "Traceback" not in captured.err

    def test_malformed_baseline_exits_2(self, fake_run, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["bench", "--compare", str(bad)]) == 2
        assert "cannot read baseline" in capsys.readouterr().err

        nokind = tmp_path / "nokind.json"
        nokind.write_text(json.dumps({"schema": 1}))
        assert main(["bench", "--compare", str(nokind)]) == 2
        assert "missing/unknown 'kind'" in capsys.readouterr().err

    def test_overhead_gate(self, fake_run, capsys):
        assert main(["bench", "--max-overhead", "1.005"]) == 1
        assert "overhead ratio" in capsys.readouterr().out
        assert main(["bench", "--max-overhead", "1.05"]) == 0

    def test_overhead_gate_needs_the_dse_bench(self, fake_run, capsys):
        assert main(["bench", "sim", "--max-overhead", "1.05"]) == 2
        assert "--max-overhead" in capsys.readouterr().err

    def test_bench_search_writes_report_and_self_compares(
        self, tmp_path, capsys
    ):
        argv = ["bench", "search", "--budget", "smoke",
                "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "best strategy" in out
        doc = json.loads((tmp_path / "BENCH_search.json").read_text())
        assert doc["kind"] == "search"
        assert set(doc["strategies"]) == {
            "anneal", "bottleneck", "evolutionary", "tpe",
        }
        # Determinism: a rerun compared against itself is clean.
        rerun = [
            "bench", "search", "--budget", "smoke",
            "--out-dir", str(tmp_path / "rerun"),
            "--compare", str(tmp_path / "BENCH_search.json"),
        ]
        assert main(rerun) == 0
        assert "OK" in capsys.readouterr().out

    def test_search_baseline_against_core_bench_exits_2(
        self, fake_run, tmp_path, capsys
    ):
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps({"schema": 1, "kind": "search"}))
        assert main(["bench", "--compare", str(baseline)]) == 2
        assert "bench search" in capsys.readouterr().err

    def test_bench_sim_parser_defaults(self):
        args = build_parser().parse_args(["bench", "sim"])
        assert args.what == "sim"
        assert args.max_regression == 0.25

    def test_bench_sim_writes_report_and_self_compares(
        self, tmp_path, capsys
    ):
        argv = ["bench", "sim", "--budget", "smoke",
                "--out-dir", str(tmp_path),
                "--trace", str(tmp_path / "trace.json")]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "identical to serial: True" in out
        assert json.loads((tmp_path / "trace.json").read_text())["traceEvents"]
        doc = json.loads((tmp_path / "BENCH_sim.json").read_text())
        assert doc["kind"] == "sim"
        assert doc["batch"]["identical_to_serial"] is True
        assert doc["batch_cycles_per_second"] > 0
        # Self-compare with the CI gate flag: clean by construction.
        rerun = [
            "bench", "sim", "--budget", "smoke",
            "--out-dir", str(tmp_path / "rerun"),
            "--compare", str(tmp_path / "BENCH_sim.json"),
            "--max-regression", "0.9",
        ]
        assert main(rerun) == 0
        assert "OK (tolerance 0.9)" in capsys.readouterr().out

    def test_bench_sim_rejects_dse_baseline(self, tmp_path, capsys):
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps({"schema": 1, "kind": "dse"}))
        rc = main(["bench", "sim", "--compare", str(baseline)])
        assert rc == 2
        assert "bench sim" in capsys.readouterr().err


class TestDseCommand:
    def test_dse_defaults(self):
        args = build_parser().parse_args(["dse", "dsp"])
        assert args.workers == 1
        assert args.checkpoint_every == 25
        assert not args.resume and not args.no_cache

    @pytest.mark.parametrize(
        "argv", [["dse", "dsp", "--jobs", "3"], ["soak", "-j", "2"]]
    )
    def test_jobs_spelling_is_rejected(self, argv, capsys):
        """``--workers`` is the only spelling of the worker count."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("argv, wrote, printed", [
        (["--pareto", "p.json"], "p.json", "wrote Pareto frontier"),
        (["--pareto"], "pareto.json", "wrote Pareto frontier"),
        (["--trials", "4"], None, ", 4 trial(s), "),
        (["--html", "r.html"], "r.html", "wrote HTML report"),
        (["--batch", "2"], None, ", batch 2, "),
        (["--strategy", "tpe", "--seeds", "2,3"], None, ", seed 3: "),
        (["--strategy", "tpe", "--resume"], None, "seed outcomes: seed 2"),
        (["--strategy", "tpe", "--seed-timeout", "5"], None, "best seed 2"),
    ], ids=[
        "pareto-path", "pareto-bare", "trials", "html", "batch",
        "seeds", "resume", "seed-timeout",
    ])
    def test_every_flag_is_read_on_the_one_path(
        self, argv, wrote, printed, tmp_path, monkeypatch, capsys
    ):
        """There is no path not taken: each of these was a usage error
        while ``--strategy`` chose between two drivers; now every one
        runs and writes what it names (``--pareto`` with the default
        strategy writes the annealer study's frontier)."""
        monkeypatch.chdir(tmp_path)
        base = ["dse", "vecmax", "-n", "6", "--no-cache", "-o", "d.json"]
        assert main(base + argv) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and printed in captured.out
        assert "saved design to d.json" in captured.out
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            {"d.json", wrote or "d.json"}
        )
        if wrote and wrote.endswith(".json"):
            assert json.loads((tmp_path / wrote).read_text())["points"]

    def test_all_eighteen_options_on_one_line(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        argv = [
            "dse", "vecmax", "-n", "6", "-s", "2", "--name", "everything",
            "--seeds", "2,3", "--strategy", "evolutionary", "--trials", "8",
            "--batch", "4", "-w", "1", "--cache-dir", str(cache),
            "--resume", "--checkpoint-every", "4", "--seed-timeout", "60",
            "--metrics", str(tmp_path / "ev.jsonl"),
            "-o", str(tmp_path / "d.json"),
            "--pareto", str(tmp_path / "p.json"),
            "--html", str(tmp_path / "r.html"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "engine DSE [evolutionary]" in out and "best trial" in out
        for name in ("d.json", "p.json", "r.html", "ev.jsonl"):
            assert (tmp_path / name).exists(), name
        assert main(["study", "list", "--study-dir", str(cache)]) == 0
        listing = capsys.readouterr().out.strip().splitlines()
        assert sorted(line.split()[2] for line in listing) == [
            "seed=2", "seed=3",
        ]
        # Warm: the same line answers from the store, reports included.
        (tmp_path / "p.json").unlink()
        assert main(argv) == 0
        assert "cache hit (disk)" in capsys.readouterr().out
        assert json.loads((tmp_path / "p.json").read_text())["points"]

    @pytest.mark.parametrize("every, saves", [("4", 2), ("0", 1), ("1", 4)])
    def test_checkpoint_every_is_honoured_for_a_sampler(
        self, every, saves, tmp_path, study_saves, capsys
    ):
        """At the parent ``--strategy tpe --checkpoint-every N`` was
        accepted and ignored (the study was saved after every batch)."""
        assert main([
            "dse", "vecmax", "-n", "6", "--strategy", "tpe", "--trials", "8",
            "--batch", "2", "--checkpoint-every", every,
            "--cache-dir", str(tmp_path / "c"), "-o", str(tmp_path / "d.json"),
        ]) == 0
        assert len(study_saves) == saves and study_saves[-1] == 8

    def test_short_anneal_still_writes_its_design(self, tmp_path, capsys):
        """``--trials`` below ``-n``: exit 0 used to come with no file."""
        out_path = tmp_path / "x.json"
        assert main([
            "dse", "vecmax", "--strategy", "anneal", "--trials", "5",
            "-n", "40", "--no-cache", "-o", str(out_path),
        ]) == 0
        assert f"saved design to {out_path}" in capsys.readouterr().out
        assert json.loads(out_path.read_text())

    @pytest.mark.parametrize("argv, flag", [
        (["--batch", "0"], "--batch"),
        (["--trials", "0"], "--trials"),
        (["--trials", "-3"], "--trials"),
        (["--strategy", "tpe", "--batch", "-1"], "--batch"),
    ])
    def test_budget_below_one_is_a_usage_error(
        self, argv, flag, tmp_path, monkeypatch, capsys
    ):
        """Each ran a zero-trial study and exited 0 with nothing written."""
        monkeypatch.chdir(tmp_path)
        assert main(["dse", "vecmax", "--no-cache"] + argv) == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: {flag} must be at least 1")
        assert captured.out == "" and not list(tmp_path.iterdir())

    def test_no_feasible_trial_exits_1_and_writes_no_design(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.search import evaluate

        monkeypatch.setattr(evaluate, "sweep_candidate", lambda *a, **k: None)
        out_path = tmp_path / "d.json"
        assert main([
            "dse", "vecmax", "--strategy", "tpe", "--trials", "2",
            "--no-cache", "-o", str(out_path),
        ]) == 1
        captured = capsys.readouterr()
        assert "no feasible trials; no design written" in captured.err
        assert "seed 2: infeasible" in captured.out
        assert not out_path.exists()

    def test_cold_then_warm_cache(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        argv = [
            "dse", "vecmax", "-n", "10", "--seeds", "2,3",
            "-o", str(tmp_path / "d.json"), "--cache-dir", str(cache),
            "--metrics", str(tmp_path / "events.jsonl"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "seed outcomes" in out and "best seed" in out
        assert (tmp_path / "d.json").exists()

        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "cache hit (disk)" in out
        assert "0 DSE iterations run" in out
        lines = (tmp_path / "events.jsonl").read_text().strip().splitlines()
        events = [json.loads(l)["event"] for l in lines]
        assert "run_start" in events and "cache_hit" in events

    def test_no_cache_runs_fresh(self, tmp_path, capsys):
        argv = [
            "dse", "vecmax", "-n", "8", "--no-cache",
            "-o", str(tmp_path / "d.json"),
        ]
        assert main(argv) == 0
        assert "cache disabled" in capsys.readouterr().out


class TestSearchCli:
    """``dse --strategy`` (a choice inside the one path) and ``study``."""

    def test_list_strategies(self, capsys):
        assert main(["dse", "--list-strategies"]) == 0
        out = capsys.readouterr().out.split()
        assert out == ["anneal", "bottleneck", "evolutionary", "tpe"]

    def test_search_run_writes_study_pareto_and_html(self, tmp_path, capsys):
        store = tmp_path / "store"
        argv = [
            "dse", "vecmax", "--strategy", "tpe",
            "--trials", "4", "--batch", "2", "-n", "6", "-s", "3",
            "--cache-dir", str(store),
            "-o", str(tmp_path / "d.json"),
            "--pareto", str(tmp_path / "front.json"),
            "--html", str(tmp_path / "report.html"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "engine DSE [tpe]" in out and "best trial" in out
        front = json.loads((tmp_path / "front.json").read_text())
        assert front["points"] and "hypervolume" in front
        assert "<svg" in (tmp_path / "report.html").read_text()
        assert (tmp_path / "d.json").exists()

        # study list / show / export against the populated store.
        assert main(["study", "list", "--study-dir", str(store)]) == 0
        listing = capsys.readouterr().out
        assert "tpe" in listing
        key_prefix = listing.split()[0]

        assert main(
            ["study", "show", key_prefix, "--study-dir", str(store)]
        ) == 0
        shown = capsys.readouterr().out
        assert "frontier" in shown and "best trial" in shown

        export_path = tmp_path / "study.json"
        assert main(
            ["study", "export", key_prefix, "--study-dir", str(store),
             "-o", str(export_path)]
        ) == 0
        capsys.readouterr()
        doc = json.loads(export_path.read_text())
        assert doc["strategy"] == "tpe" and len(doc["trials"]) == 4

    def test_study_merge_and_import(self, tmp_path, capsys):
        store = tmp_path / "store"
        base = [
            "--trials", "3", "--batch", "3", "-n", "5",
            "--cache-dir", str(store), "-o", str(tmp_path / "d.json"),
        ]
        assert main(["dse", "vecmax", "--strategy", "tpe", "-s", "1"] + base) == 0
        assert main(["dse", "vecmax", "--strategy", "tpe", "-s", "2"] + base) == 0
        capsys.readouterr()
        assert main(["study", "list", "--study-dir", str(store)]) == 0
        keys = [
            line.split()[0]
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert len(keys) == 2
        assert main(["study", "merge", *keys, "--study-dir", str(store)]) == 0
        assert "merged 2 studies" in capsys.readouterr().out

        # There is no importer: a run's per-seed study is already stored.
        with pytest.raises(SystemExit) as excinfo:
            main(["study", "import", "events.jsonl", "--study-dir", str(store)])
        assert excinfo.value.code == 2
        assert "invalid choice: 'import'" in capsys.readouterr().err

    def test_study_ambiguous_or_missing_key_is_2(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(["study", "show", "feed", "--study-dir", str(store)]) == 2
        assert "no study matching" in capsys.readouterr().err
        assert main(["study", "show", "--study-dir", str(store)]) == 2
        assert "at least one" in capsys.readouterr().err


class TestExitCodes:
    """The CLI exit-code contract: 0 ok, 1 domain failure, 2 user error.

    Domain failures that matter for CI: fuzz/soak exit 1 exactly when
    they record *new* failures (or invariant violations), so a smoke job
    over a warm corpus stays green while a fresh regression trips it.
    """

    def test_user_error_is_2(self, capsys):
        assert main(["map", "/no/such/design.json", "vecmax"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_strategy_is_2_and_lists_available(self, capsys):
        assert main(["dse", "vecmax", "--strategy", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown strategy" in err
        for name in ("anneal", "bottleneck", "evolutionary", "tpe"):
            assert name in err

    def test_dse_without_workloads_is_2(self, capsys):
        assert main(["dse"]) == 2
        err = capsys.readouterr().err
        assert "missing workloads" in err and "--list-strategies" in err

    def test_fuzz_clean_default_bands_is_0(self, capsys):
        assert main(["fuzz", "--budget", "5", "--seed", "0"]) == 0
        capsys.readouterr()

    def test_fuzz_new_failures_then_known_failures(self, tmp_path, capsys):
        argv = [
            "fuzz", "--budget", "4", "--seed", "0",
            "--rel-tol", "0", "--abs-floor", "0",
            "--corpus", str(tmp_path / "corpus"),
        ]
        assert main(argv) == 1              # first sight: new failures
        capsys.readouterr()
        assert main(argv) == 0              # already in the corpus
        capsys.readouterr()

    def test_fuzz_without_corpus_cannot_know_failures(self, capsys):
        argv = [
            "fuzz", "--budget", "4", "--seed", "0",
            "--rel-tol", "0", "--abs-floor", "0",
        ]
        assert main(argv) == 1
        assert main(argv) == 1              # no memory: still "new"
        capsys.readouterr()

    def test_soak_follows_same_contract(self, tmp_path, capsys):
        argv = [
            "soak", "--budget", "8", "--seed", "3", "--shards", "2",
            "--workers", "1", "--rel-tol", "0", "--abs-floor", "0",
            "--shrink-budget", "20", "--corpus", str(tmp_path / "corpus"),
        ]
        assert main(argv) == 1
        capsys.readouterr()
        assert main(argv) == 0
        capsys.readouterr()

    def test_validate_clean_is_0(self, capsys):
        assert main(["validate"]) == 0
        capsys.readouterr()
