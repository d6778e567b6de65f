"""Structural guards: what a refactor deleted stays deleted.

One table, five kinds of row:

* ``ABSENT``: no line under ``paths`` matches ``pattern``, scanned like
  ``grep -rnE pattern paths`` (every file under each path, ``^`` anchored
  per line; ``__pycache__``, undecodable files and this file skipped),
  except in the ``allow`` files.  ``witness`` is a line the pattern must
  match, so a typo cannot turn a guard into one that always passes.
* ``COUNTED``: the same scan finds exactly ``count`` lines.
* ``GONE``: a replaced module stays replaced.
* ``TESTS``: a property's test ids still exist in tier-1, checked
  statically (file, then class, then function), so renaming a test away
  cannot silently drop the property it pins.
* ``UNUSED_IMPORTS``: no module under these paths (``__init__.py``
  re-exports aside) imports a name it never references; a name read only
  in a quoted annotation counts as referenced.

A row's id names the property it guards: ``pytest tests/test_guards.py
-k charge`` finds the charge-path rows.
"""

from __future__ import annotations

import ast
import re
from functools import lru_cache
from pathlib import Path
from typing import List, NamedTuple, Optional, Tuple

import pytest

HERE = Path(__file__).resolve()
ROOT = HERE.parent.parent

SRC_TESTS_DOCS = ("src", "tests", "README.md", "DESIGN.md")


class Lines(NamedTuple):
    id: str
    pattern: str
    paths: Tuple[str, ...]
    witness: str
    allow: Tuple[str, ...] = ()
    count: int = 0


class Selected(NamedTuple):
    id: str
    ids: Tuple[str, ...]


ABSENT = [
    Lines(
        "The deleted schedule memo stays deleted",
        r"ResultMemo|memo_for_config|adg_fingerprint|memo_speedup",
        ("src", "tests"),
        "class ResultMemo:",
    ),
    Lines(
        "One repro store, one campaign loop",
        r"corpus_migrated|fuzz_(start|failure|done)|--regression|CORPUS_VERSION",
        ("src", "tests", ".github", "README.md", "DESIGN.md"),
        '    parser.add_argument("--regression", metavar="DIR")',
    ),
    Lines(
        "One DSE driver",
        r"_reject_unread_flags|study_from_metrics|study_from_points|dse_point"
        r"|checkpoint_sink|load_checkpoint",
        SRC_TESTS_DOCS,
        "    state = load_checkpoint(path)",
    ),
    Lines(
        "One job runtime",
        r"JobRunner|FaultPolicy|Checkpointing\b|ProcessPoolJobExecutor"
        r"|InProcessExecutor|JobsFailedError|make_worker_pool|fail_fast"
        r"|all_failed_raises|last_mode",
        SRC_TESTS_DOCS,
        "class ProcessPoolJobExecutor(JobExecutor):",
    ),
    Lines(
        "The router reads the ADG routing view",
        r"_hop_allowed|link_free_for",
        ("src", "tests"),
        "        if not self._hop_allowed(src, dst):",
    ),
    Lines(
        "The harness reads no environment",
        r"get_engine|peek_engine|set_engine|REPRO_DSE_JOBS|StreamDispatcher",
        ("src", "tests", "benchmarks", "README.md", "DESIGN.md"),
        '    workers = int(os.environ.get("REPRO_DSE_JOBS", "1"))',
    ),
    # \b: the harness's ``workload_overlay`` is not the deleted op.
    Lines(
        "One routing path",
        r"topology_doc|Topology\.from_doc|\bload_overlay|shard_requests"
        r'|HAND_MARKER|"--cluster"',
        SRC_TESTS_DOCS,
        '    sub.add_argument("--cluster", action="store_true")',
    ),
    Lines(
        "One load generator and constant cluster knobs",
        r"run_load_sharded|_load_shard_worker|FlightStats|failover_retries"
        r"|admin_timeout_s|startup_timeout_s",
        SRC_TESTS_DOCS,
        "    failover_retries: int = 2",
    ),
    Lines(
        "One seed builder",
        r"SeedInventory|seed_inventory|inputs\.inventory",
        SRC_TESTS_DOCS,
        "    seed = inputs.inventory.build()",
    ),
    Lines(
        "One timing harness",
        r"BENCH_dse|BENCH_sim|measure_overhead|compare_reports|max-overhead"
        r"|enabled=False",
        SRC_TESTS_DOCS + (".claude",),
        "    tracer = Tracer(enabled=False)",
    ),
    Lines(
        "One preservation ladder: the DSE revalidates only through repair_schedule",
        r"revalidate_schedule",
        ("src/repro/dse",),
        "from ..scheduler import revalidate_schedule",
    ),
    Lines(
        "One preservation ladder: the copying rung 0 and the span aggregates",
        r"def _repair_schedule|class SpanStat|def summarize",
        ("src",),
        "def summarize(spans):",
    ),
    Lines(
        "One preservation ladder: scheduler.legality is the one legality rule",
        r"def (semantic_ok|is_valid_for|broken_pieces|hardware_in_use)\b",
        ("src",),
        "    def is_valid_for(self, adg):",
    ),
    Lines(
        "One preservation ladder: validate asks scheduler.legality, not the ADG",
        r"has_link\(",
        ("src/repro/validate",),
        "        if not adg.has_link(src, dst):",
    ),
    Lines(
        "One JSON-lines protocol",
        r"open_unix_connection|open_connection|start_unix_server|start_server"
        r"|StreamReader|StreamWriter|\.readline\(",
        ("src/repro/serve", "src/repro/cluster"),
        "        line = await reader.readline()",
    ),
    Lines(
        "One home for the paper's numbers",
        r"paper(_totals)? = \{|PAPER_(GEOMEANS|TOTALS) = |^MEMORY_BOUND = ",
        ("src", "benchmarks"),
        'MEMORY_BOUND = {"fir", "gemm"}',
    ),
    Lines(
        "One response count",
        r'\["(requests|responses_ok|responses_error)"\] *(\+|-)?=',
        ("src",),
        '        self.counters["requests"] += 1',
        allow=("src/repro/serve/endpoint.py",),
    ),
    Lines(
        "One charge path: the sweep's grid size is read from SYSTEM_GRID_AXES",
        r"model_eval \* 60",
        ("src",),
        "        return self.model_eval * 60",
    ),
    Lines(
        "A workload is lowered once per process: the harness copy",
        r'\("variants",',
        ("src/repro/harness/experiments.py",),
        '    return CACHE.memoized(("variants", name), build)',
    ),
    Lines(
        "A workload is lowered once per process: the serve copies",
        r"RESIDENT\.variants|lookup\.variants",
        ("src/repro/serve",),
        "    variants = lookup.variants(workload)",
    ),
    Lines(
        "A cold request pays only for its compile: the pool and its watchdog",
        r"ProcessPoolExecutor|_exit_with_server",
        ("src/repro/serve",),
        "    pool = ProcessPoolExecutor(1, initializer=_exit_with_server)",
    ),
    Lines(
        "A cold request pays only for its compile: the per-server workload memos",
        r"_workload_fps",
        ("src/repro/serve/server.py", "src/repro/cluster/router.py"),
        "        self._workload_fps = {}",
    ),
    Lines(
        "The serve and cluster tiers never unpickle client bytes",
        r"pickle\.loads|JOB_OPS",
        ("src/repro/serve", "src/repro/cluster"),
        "        job = pickle.loads(payload)",
    ),
    Lines(
        "One engine contract: the model's greedy binder stays deleted",
        r"preferred_binding|_spad_indirect",
        SRC_TESTS_DOCS,
        "def preferred_binding(mdfg: MDFG, adg: ADG) -> MemoryBinding:",
    ),
    # ``ADG.touched_since`` is sound only if every edit goes through a
    # mutation that records it (the MDFG's own ``_nodes`` is no ADG's).
    Lines(
        "An ADG edit records its footprint: only adg/graph.py touches an "
        "ADG's node and link maps",
        r"\._(nodes|out|in)\b",
        ("src",),
        "        adg._nodes[pe] = ProcessingElement(pe, width_bits=512)",
        allow=(
            "src/repro/adg/graph.py",
            "src/repro/dfg/graph.py",
            "src/repro/model/resource/predictor.py",
        ),
    ),
    # One kernel call per batch: the per-region pack / struct / call path.
    Lines(
        "The per-region packing path stays deleted",
        r"run_packed_region|pack_tile",
        ("src",),
        "    return run_packed_region(pack_tile(tile), cycles)",
    ),
    # The sim kernel's columns are ``array.array``s; only the ML resource
    # model, which only the report builds, needs numpy.
    Lines(
        "No pipeline module imports numpy",
        r"^\s*(import|from) numpy\b",
        ("src",),
        "import numpy as np",
        allow=(
            "src/repro/model/resource/dataset.py",
            "src/repro/model/resource/mlp.py",
        ),
    ),
    # A package exports what it imports; a lazy ``__getattr__`` hid the
    # serve ↔ cluster import cycle.
    Lines(
        "An acyclic import graph: no lazy package attributes",
        r"^def __getattr__\(",
        ("src",),
        "def __getattr__(name: str):",
    ),
]

COUNTED = [
    Lines(
        "One charge path: modeled time is booked once in explorer.py",
        r"modeled_seconds \+=",
        ("src/repro/dse/explorer.py",),
        "        self.modeled_seconds += seconds",
        count=1,
    ),
    Lines(
        "One charge path: modeled time is booked once in the DSE",
        r"modeled_seconds \+=",
        ("src/repro/dse",),
        "        self.modeled_seconds += seconds",
        count=1,
    ),
    Lines(
        "An ADG edit records its footprint: the resource model's one read",
        r"\._(nodes|out|in)\b",
        ("src/repro/model/resource/predictor.py",),
        "        by_id, feeders, drains = self._by_id, adg._in, adg._out",
        count=1,
    ),
]

UNUSED_IMPORTS = ("src", "tests")

GONE = [
    "src/repro/cli.py",
    "src/repro/engine/checkpoint.py",
    "src/repro/profile/memo.py",
    # Moved to the layer they belong to, with no alias at the old path.
    "src/repro/compiler/advisor.py",
    "src/repro/engine/orchestrator.py",
    "src/repro/cluster/registry.py",
]

TESTS = [
    Selected(
        "A served hit encodes only its envelope",
        (
            "tests/test_serve_server.py::TestSplicedHits",
            "tests/test_serve_server.py::TestCoalescing::test_a_miss_found_in_flight_joins_even_a_landing_flight",
            "tests/test_serve_server.py::TestWire::test_request_raw_is_the_pending_future_and_drains_when_paused",
            "tests/test_serve_resident.py::test_killed_server_takes_its_worker_with_it",
        ),
    ),
    Selected(
        "One response count",
        (
            "tests/test_serve_server.py::TestAccounting",
            "tests/test_serve_server.py::TestDrain::test_a_drain_that_times_out_answers_and_closes",
            "tests/test_cluster_router.py::TestAccounting",
            "tests/test_events.py",
        ),
    ),
    Selected(
        "Scheduling routes best-first",
        (
            "tests/test_scheduler.py::TestBestFirst",
            "tests/test_compiler_lowering.py::TestRmwGate",
        ),
    ),
    Selected(
        "schedule_workload binds only variants whose IPC ceiling can still win",
        (
            "tests/test_scheduler.py::TestIpcCeiling",
            "tests/test_dfg.py::TestMetrics::test_insts_per_cycle_follows_an_edit_after_a_read",
        ),
    ),
    Selected(
        "The resource model prices each distinct node once",
        ("tests/test_resource_model.py::TestTileMemo",),
    ),
    Selected(
        "A DSE candidate is modelled once",
        ("tests/test_dse_system.py::TestKeptProfile",),
    ),
    Selected(
        "A DSE candidate re-schedules only what can win",
        (
            "tests/test_scheduler.py::TestBeat",
            "tests/test_dse_explorer.py::TestNoopEdit",
            "tests/test_dse_explorer.py::TestExplorer::test_failed_repair_is_charged",
        ),
    ),
    Selected(
        "One charge path",
        (
            "tests/test_dse_golden.py::test_charges_and_moves_account_for_the_run",
            "tests/test_engine_checkpoint.py::TestExplorerResume::test_a_snapshot_is_not_written_by_the_live_run",
            "tests/test_dse_explorer.py::TestExplorer::test_a_sweep_is_priced_per_system_grid_point",
            "tests/test_dse_explorer.py::TestExplorer::test_fast_path_skips_repair",
            "tests/test_dse_explorer.py::TestExplorer::test_repair_path_charges_repair",
            "tests/test_paper.py",
        ),
    ),
    Selected(
        "A workload is lowered once per process",
        (
            "tests/test_compiler_lowering.py::TestFamilyMemo",
            "tests/test_scheduler.py::TestBestFirst::test_work_counts_on_general",
            "tests/test_serve_resident.py::test_a_kernel_is_lowered_once_for_every_resident_overlay",
            "tests/test_dse_explorer.py::TestNoopEdit::test_an_equal_replace_node_is_no_edit",
        ),
    ),
    Selected(
        "A cold request pays only for its compile",
        (
            "tests/test_serve_resident.py::test_a_compute_process_costs_the_server_no_thread",
            "tests/test_serve_resident.py::test_a_workload_is_built_and_fingerprinted_once_per_process",
            "tests/test_serve_resident.py::test_killed_server_takes_its_worker_with_it",
            "tests/test_serve_resident.py::test_killed_worker_is_replaced_and_the_job_retried",
            "tests/test_serialize_render.py::TestRoundTrip::test_equal_capabilities_decode_to_one_fucap",
            "tests/test_jobs.py::TestWorkerPool",
        ),
    ),
    Selected(
        "The system sweep prices each distinct grid point once per DSE run",
        (
            "tests/test_dse_system.py::TestGridMemo",
            "tests/test_dse_system.py::TestTileCount::test_padding_probe_is_one_footprint_test",
        ),
    ),
    Selected(
        "A search study prices each node and grid point once per study",
        (
            "tests/test_search.py::TestStudyPricing",
            "tests/test_search.py::TestWorkerInvariance",
        ),
    ),
    Selected(
        "One engine contract",
        (
            "tests/test_scheduler.py::TestLegality::test_corruption_matrix",
            "tests/test_schedule_golden.py::test_schedules_and_pickles_match_committed_golden",
            "tests/test_advisor.py::TestAdvise::test_a_variant_no_engine_holds_is_projected_at_its_ceiling",
            "tests/test_simulator.py::TestWholeRegion::test_spad_read_and_write_ports_agree_with_the_model",
            "tests/test_harness.py::test_legality_audit_lists_the_shipped_illegal_schedules",
        ),
    ),
    Selected(
        "An ADG edit records its footprint",
        (
            "tests/test_edit_footprint.py",
            "tests/test_adg.py::TestViews",
            "tests/test_dse_transforms.py::TestPaddingCursor",
        ),
    ),
    Selected(
        "No pipeline process loads numpy",
        (
            "tests/test_layering.py::test_the_pipeline_never_imports_numpy",
            "tests/test_sim_vector.py::test_batch_arrays_mirror_the_c_struct",
        ),
    ),
    Selected(
        "An acyclic import graph",
        (
            "tests/test_layering.py::test_no_import_cycles",
            "tests/test_layering.py::test_imports_are_at_module_top",
        ),
    ),
    Selected("Runtime unit + fault-injection suite", ("tests/test_jobs.py",)),
    Selected("Parity suite", ("tests/test_sim_vector.py",)),
]


# ----------------------------------------------------------------------
_TOKEN = re.compile(r"\\.|\[\^?\]?[^]]*\]|\{[^}]*\}|.", re.S)


def needles(pattern: str) -> Tuple[str, ...]:
    """The longest literal run of each top-level alternative of
    ``pattern`` (outside groups and classes, not under ``?``, ``*`` or
    ``{}``): every line the pattern matches contains one of them, so a
    file holding none is skipped unscanned.  ``()`` when some alternative
    has no literal: then no file is skipped."""
    picks, runs, run, depth = [], [], "", 0
    for token in _TOKEN.findall(pattern) + ["|"]:
        if depth == 0 and len(token) == 1 and token not in ".^$|()?*+":
            run += token
        elif depth == 0 and token[0] == "\\" and not token[1].isalnum():
            run += token[1]
        else:
            if token in ("?", "*") or token[0] == "{":
                run = run[:-1]
            runs.append(run)
            run = ""
            depth += (token == "(") - (token == ")")
            if depth == 0 and token == "|":
                picks.append(max(runs, key=len))
                runs = []
    return tuple(picks) if all(picks) else ()


def grep(pattern: str, text: str) -> List[Tuple[int, str]]:
    """``grep -nE pattern`` over ``text``: its matching (number, line)s."""
    keys = needles(pattern)
    if keys and not any(key in text for key in keys):
        return []
    regex = re.compile(pattern, re.M)
    if not regex.search(text):
        return []
    lines = enumerate(text.split("\n"), 1)
    return [(number, line) for number, line in lines if regex.search(line)]


@lru_cache(maxsize=None)
def _text(path: Path) -> Optional[str]:
    try:
        return path.read_bytes().decode("utf-8")
    except UnicodeDecodeError:
        return None


@lru_cache(maxsize=None)
def _files(path: str) -> Tuple[Path, ...]:
    root = ROOT / path
    assert root.exists(), f"{path} does not exist: the guard would scan nothing"
    if root.is_file():
        return (root,)
    return tuple(
        sorted(
            f
            for f in root.rglob("*")
            if f.is_file() and "__pycache__" not in f.parts and f != HERE
        )
    )


def grep_r(
    pattern: str, paths: Tuple[str, ...], allow: Tuple[str, ...] = ()
) -> List[str]:
    """``grep -rnE pattern paths``, as ``file:line: text``, less ``allow``."""
    hits = []
    for path in paths:
        for file in _files(path):
            name = file.relative_to(ROOT).as_posix()
            text = _text(file)
            if text is not None and name not in allow:
                hits += [f"{name}:{n}: {line}" for n, line in grep(pattern, text)]
    return hits


@lru_cache(maxsize=None)
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def _defines(body, name: str):
    for node in body:
        if (
            isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == name
        ):
            return node
    return None


def _annotation_names(node: ast.AST):
    """Every name an annotation reads, quoted ones included."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield from _annotation_names(ast.parse(sub.value, mode="eval"))


def unused_imports(tree: ast.Module) -> List[str]:
    """The names ``tree`` imports (``__future__`` aside) and never reads."""
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(
            node, "returns", None
        )
        if annotation is not None:
            used.update(_annotation_names(annotation))
    return [
        f"{line}: {name}"
        for name, line in sorted(imported.items(), key=lambda kv: kv[1])
        if name not in used
    ]


def resolves(test_id: str) -> bool:
    """The id's file exists under tests/ and defines its class and test."""
    file, *names = test_id.split("::")
    path = ROOT / file
    if not file.startswith("tests/") or not path.is_file():
        return False
    scope = _tree(path) if names else None
    for name in names:
        scope = _defines(scope.body, name)
        if scope is None:
            return False
    return True


# ----------------------------------------------------------------------
@pytest.mark.parametrize("row", ABSENT + COUNTED, ids=lambda r: r.id)
def test_lines(row: Lines):
    assert grep(row.pattern, row.witness), "the witness must match"
    hits = grep_r(row.pattern, row.paths, row.allow)
    assert len(hits) == row.count, hits


@pytest.mark.parametrize(
    "path", GONE, ids=[f"Replaced modules stay replaced: {p}" for p in GONE]
)
def test_gone(path: str):
    assert not (ROOT / path).exists()


def test_no_unused_imports():
    witness = ast.parse(
        "from typing import List, Optional\nimport random\n"
        "def f(x: 'List[int]'): ...\n"
    )
    assert unused_imports(witness) == ["1: Optional", "2: random"]
    hits = [
        f"{path.relative_to(ROOT)}:{line}"
        for root in UNUSED_IMPORTS
        for path in _files(root)
        if path.suffix == ".py" and path.name != "__init__.py"
        for line in unused_imports(_tree(path))
    ]
    assert hits == []


@pytest.mark.parametrize("row", TESTS, ids=lambda r: r.id)
def test_tests_exist(row: Selected):
    assert [i for i in row.ids if not resolves(i)] == []
