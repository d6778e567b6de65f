"""The one event envelope.

Every record a :class:`~repro.engine.metrics.MetricsLogger` writes is
``{"v": 1, "event", "time", **fields}``, and each event name has one
fixed field set: its row of :data:`EVENT_FIELDS`.  The table is checked
statically (every name an ``emit(...)`` call in ``src/`` passes has a
row, and every row is emitted somewhere) and on the JSONL files real
runs write, through :func:`assert_event_file`.  The tests that already
drive a served miss, hit, error and drain (``test_serve_server``), a
router forward and drain (``test_cluster_router``'s cluster fixture), a
warm ``repro dse`` and a two-shard soak call it on their metrics files;
this module adds a two-seed, two-worker ``repro dse``.
"""

import ast
import contextlib
import gc
import json
import pathlib
import warnings

import pytest

from repro.engine.metrics import EVENT_VERSION, MetricsLogger

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: Fields every record carries besides its own.
ENVELOPE = frozenset({"v", "event", "time"})

_JOB = {"runner", "job", "index"}
#: Event name -> the fields it carries besides the envelope.
EVENT_FIELDS = {
    # repro.jobs.run_jobs (runner: engine.seeds, soak.shards, search.eval)
    "job_batch_start": {"runner", "jobs", "workers"},
    "pool_unavailable": {"runner", "workers"},
    "job_done": _JOB | {"wall_s"},
    "job_failed": _JOB | {"error"},
    "job_timeout": _JOB | {"error"},
    "job_batch_end": {
        "runner", "jobs", "ok", "failed", "mode", "wall_s", "execute_s",
        "schedule_s",
    },
    # repro.search.seeds
    "cache_hit": {"key", "name", "tier", "objective"},
    "run_start": {
        "key", "name", "seeds", "jobs", "iterations", "strategy", "trials",
        "schema",
    },
    "run_failed": {"key", "name", "errors"},
    "run_end": {
        "key", "name", "seeds", "jobs", "cache_hit", "cache_tier",
        "wall_seconds", "modeled_seconds", "iterations", "accepted",
        "acceptance_rate", "iterations_per_second", "objective",
        "best_seed", "crashed_seeds", "timed_out_seeds", "resumed_seeds",
    },
    # repro.search.runner
    "study_start": {
        "key", "strategy", "seed", "batch", "trials_target", "existing",
        "resumed",
    },
    "study_batch": {
        "key", "strategy", "asked", "evaluated", "feasible", "total",
    },
    "study_end": {
        "key", "strategy", "trials", "feasible", "best_objective",
        "best_index",
    },
    # repro.validate.soak
    "soak_start": {
        "campaign", "budget", "seed", "shards", "jobs", "resume", "bands",
    },
    "job_cached": set(_JOB),
    "soak_failed": {"campaign", "errors"},
    "soak_merged": {"campaign", "unique_failures", "raw_failures"},
    "soak_promoted": {"campaign", "cases", "dry_run"},
    "soak_done": {
        "campaign", "shards", "cases_run", "crashed_shards",
        "cached_shards", "unique_failures", "raw_failures", "new_failures",
        "promoted", "promote_dry_run", "budget", "seed", "start",
        "outcomes", "invariant_violations", "by_class",
    },
    # repro.serve.server
    "serve_start": {
        "protocol", "endpoint", "overlays", "queue_limit", "workers",
        "executor", "cache_dir",
    },
    "registry_load": {"spec", "fingerprint"},
    "request": {
        "op", "overlay", "workload", "ok", "cache", "coalesced",
        "latency_s", "in_service",
    },
    "pool_restart": {"worker"},
    "serve_summary": {
        "protocol", "overlays", "overlay_fps", "executor", "draining",
        "counters", "admission", "latency", "schedules", "store",
        "registry",
    },
    # repro.cluster.router
    "router_start": {"protocol", "endpoint", "shards", "healthy"},
    "backend_up": {"shard"},
    "backend_down": {"shard", "error"},
    "route": {"op", "shard", "attempts", "latency_s"},
    "router_summary": {"role", "protocol", "draining", "counters", "shards"},
}


def assert_event_file(path, expect=()):
    """Every line of ``path`` is one ``v: 1`` envelope whose fields are
    its event's row; ``expect`` names events that must appear.  Returns
    the records."""
    text = pathlib.Path(path).read_text()
    records = [json.loads(line) for line in text.splitlines()]
    assert records, f"{path} is empty"
    for record in records:
        assert record["v"] == EVENT_VERSION == 1, record
        fields = EVENT_FIELDS.get(record["event"])
        assert fields is not None, f"no EVENT_FIELDS row: {record}"
        assert set(record) == ENVELOPE | fields, (
            record["event"], sorted(set(record) ^ (ENVELOPE | fields))
        )
    missing = set(expect) - {r["event"] for r in records}
    assert not missing, f"{path} lacks {sorted(missing)}"
    return records


@contextlib.contextmanager
def no_unclosed_metrics_file():
    """Fail if a metrics file opened inside the block is left open."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        yield
        gc.collect()
    leaked = [
        str(w.message) for w in caught
        if issubclass(w.category, ResourceWarning)
        and ".jsonl" in str(w.message)
    ]
    assert not leaked, leaked


def _emitted_names():
    """Every event name a literal ``emit("...")`` call in ``src/`` passes
    (both arms of a conditional name included)."""
    names = set()
    for path in SRC.rglob("*.py"):
        text = path.read_text()
        if "emit(" not in text:
            continue
        for node in ast.walk(ast.parse(text)):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            func = node.func
            name = getattr(func, "attr", getattr(func, "id", None))
            if name != "emit":
                continue
            arg = node.args[0]
            arms = (
                [arg.body, arg.orelse] if isinstance(arg, ast.IfExp) else [arg]
            )
            names.update(
                a.value for a in arms
                if isinstance(a, ast.Constant) and isinstance(a.value, str)
            )
    return names


def test_the_table_has_one_row_per_emitted_event():
    assert _emitted_names() == set(EVENT_FIELDS)
    assert len(EVENT_FIELDS) == 29


class _Writes:
    """A file that records each ``write`` it passes on."""

    def __init__(self, file):
        self.file, self.writes = file, []

    def write(self, data):
        self.writes.append(data)
        return self.file.write(data)

    def close(self):
        self.file.close()


def test_one_open_file_one_write_per_record(tmp_path):
    path = tmp_path / "events.jsonl"
    with no_unclosed_metrics_file():
        logger = MetricsLogger(str(path))
        logger._file = recorder = _Writes(logger._file)
        with contextlib.closing(logger):
            record = logger.emit("backend_up", shard="unix s.sock")
            logger.emit("backend_down", shard="unix s.sock", error="gone")
        assert recorder.file.closed
        assert [w.count(b"\n") for w in recorder.writes] == [1, 1]
        with pytest.raises(ValueError):  # closed: nothing drops quietly
            logger.emit("backend_up", shard="unix s.sock")
    assert record["v"] == EVENT_VERSION
    assert_event_file(path, expect=("backend_up", "backend_down"))


def test_two_seed_workers_append_to_one_file(tmp_path, capsys):
    """Both seeds' studies run in pool workers and append to the
    parent's file through their own loggers."""
    from repro.cli import main

    path = tmp_path / "events.jsonl"
    with no_unclosed_metrics_file():
        assert main([
            "dse", "vecmax", "-n", "10", "--seeds", "2,3", "-w", "2",
            "--no-cache", "--metrics", str(path),
            "-o", str(tmp_path / "d.json"),
        ]) == 0
    capsys.readouterr()
    records = assert_event_file(path, expect=(
        "run_start", "job_batch_start", "study_start", "study_batch",
        "study_end", "job_done", "job_batch_end", "run_end",
    ))
    starts = [r["seed"] for r in records if r["event"] == "study_start"]
    assert sorted(starts) == [2, 3]
