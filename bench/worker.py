"""One workload, one process: set up, run timed reps, check, report.

``run.py`` starts this file once per workload in a fresh interpreter
(``PYTHONHASHSEED=0``, private ``REPRO_KERNEL_CACHE``) and reads the one
JSON document it prints last.  Layers are measured from outside: every
call into ``repro`` goes through a public function, wrapped in a
bench-owned ``ext.*`` span that is a no-op unless the rep is traced.

A rep is a fixed amount of work made of *units* (one suite study, one
chunk of the deploy plan, one pass of requests).  Reps repeat until the
time box closes; a unit's time is the median over the run's reps and a
rep's wall is the sum of its units' medians, so a burst of host noise
spoils one sample of one unit, not the run.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import subprocess
import sys
import time
from contextlib import contextmanager
from time import perf_counter, process_time
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import inputs
from check import check_response, check_sim, check_value, load_expected
from layers import layer_metrics, median_layers
from stats import (
    Span,
    chrome_trace,
    geomean,
    median,
    percentile,
    probe_around,
    spread,
    tail_samples,
)

sys.path.insert(0, inputs.SRC)

from repro.adg import load_sysadg, save_sysadg  # noqa: E402
from repro.compiler import generate_variants  # noqa: E402
from repro.dse import DseConfig, explore  # noqa: E402
from repro.engine.hashing import config_fingerprint  # noqa: E402
from repro.profile import Tracer, drop_memo, span, tracing  # noqa: E402
from repro.rtl import (  # noqa: E402
    build_design,
    design_stats,
    floorplan,
    get_backend,
)
from repro.scheduler import schedule_workload  # noqa: E402
from repro.search import SearchSettings, frontier_doc, run_search  # noqa: E402
from repro.serve import ServeClient, wait_for_server  # noqa: E402
from repro.sim import (  # noqa: E402
    simulate_batch,
    simulate_schedule,
    vector_core_available,
)
from repro.workloads import all_workloads, get_suite, get_workload  # noqa: E402

#: Failure reasons kept for the report (all are counted).
MAX_REASONS = 8


#: Walls are reported for a host on which ``probe()`` takes this long
#: (about what it takes on the reference box).
PROBE_NOMINAL_S = 0.005
#: A probe follows a unit unless the last one is more recent than this.
PROBE_EVERY_S = 0.05


def probe(cpu_sets: Sequence[Sequence[int]] = ()) -> float:
    """Host speed right now: median seconds of a fixed pure-Python loop.

    The reference box's effective CPU speed drifts by +-15 % over tens of
    seconds and bursts by more within a second, far more than any change
    the benchmark is meant to resolve.  The loop touches no code of the
    program under test, so only the host and the interpreter move it.
    With ``cpu_sets`` the loop runs once on each set (the CPUs differ in
    speed at any one moment) and the times are averaged.
    """
    if cpu_sets:
        home = os.sched_getaffinity(0)
        try:
            total = 0.0
            for cpus in cpu_sets:
                os.sched_setaffinity(0, cpus)
                total += probe()
        finally:
            os.sched_setaffinity(0, home)
        return total / len(cpu_sets)
    samples = []
    for _ in range(3):
        start = perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        samples.append(perf_counter() - start)
    return median(samples)


class Recorder:
    """What the timed reps observed: unit walls, op outcomes, latencies,
    deterministic outputs, and the per-rep notes the layer table reads."""

    def __init__(self, probe_cpus: Sequence[Sequence[int]] = ()) -> None:
        self.unit_log: List[Tuple[int, str, float, float]] = []
        self.probe_cpus = probe_cpus
        self.probe_values = [probe(probe_cpus)]
        self.probe_times = [perf_counter()]
        self.latencies: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []
        self.cycles: Dict[str, float] = {}
        self.objectives: Dict[str, float] = {}
        self.stepped_per_rep = 0
        self.reps = 0
        self.begin_rep(False)

    def begin_rep(self, traced: bool) -> None:
        self.traced = traced
        self.units: List[Tuple[float, float]] = []
        self.notes: Dict[str, float] = {}
        self.requests: List[Dict[str, Any]] = []
        self.client_spans: List[Span] = []

    def end_rep(self) -> None:
        self.reps += 1
        self.stepped_per_rep = int(self.notes.get("sim.stepped_cycles", 0))

    @contextmanager
    def unit(self, key: str) -> Iterator[None]:
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self.units.append((start, end))
            self.unit_log.append((self.reps, key, start, end))
            if end - self.probe_times[-1] > PROBE_EVERY_S:
                self.probe_values.append(probe(self.probe_cpus))
                self.probe_times.append(perf_counter())

    def host_speed(self) -> float:
        """Nominal over measured probe time: below 1 on a slow host."""
        return PROBE_NOMINAL_S / median(self.probe_values)

    def scaled_walls(self) -> Tuple[Dict[str, List[float]], List[float]]:
        """Every unit wall scaled to the nominal host by the probes taken
        just before and just after it: per unit key, and summed per rep."""
        by_key: Dict[str, List[float]] = {}
        by_rep = [0.0] * self.reps
        for rep, key, start, end in self.unit_log:
            local = probe_around(
                self.probe_times, self.probe_values, start, end
            )
            wall = (end - start) * PROBE_NOMINAL_S / local
            by_key.setdefault(key, []).append(wall)
            if rep < self.reps:
                by_rep[rep] += wall
        return by_key, by_rep

    def note(self, key: str, value: float = 1.0) -> None:
        self.notes[key] = self.notes.get(key, 0.0) + value

    def ops(self, attempted: int, reason: Optional[str] = None) -> None:
        """Count ``attempted`` ops; all of them failed if ``reason``."""
        self.attempted += attempted
        if reason is not None:
            self.failed += attempted
            if len(self.reasons) < MAX_REASONS:
                self.reasons.append(reason)

    def sim(self, key: str, result: Any) -> None:
        self.cycles[key] = result.cycles
        self.note("sim.results")
        self.note("sim.stepped_cycles", result.stepped_cycles)
        if result.extrapolated:
            self.note("sim.extrapolated")


def deploy(rec: Recorder, key: str, workload: Any, sysadg: Any) -> Any:
    """The paper's usability path for one kernel: variants -> schedule ->
    simulate.  Returns the ``SimResult`` or ``None`` (does not map)."""
    with span("ext.generate_variants"):
        variants = generate_variants(workload)
    rec.note("compiler.mdfgs_out", len(variants.variants))
    with span("ext.schedule_workload"):
        schedule = schedule_workload(variants, sysadg.adg, sysadg.params)
    if schedule is None:
        rec.note("scheduler.unmapped")
        return None
    with span("ext.simulate_schedule"):
        result = simulate_schedule(schedule, sysadg)
    rec.sim(key, result)
    return result


class Workload:
    """Base: ``setup`` (untimed), ``rep`` (timed units), ``teardown``."""

    name = ""
    #: Extra end-to-end metrics this workload reports (see ``spec.py``).
    latency = False
    sim_rate = False
    uses_children = False
    #: Where ``probe`` runs: in place unless the work is on other CPUs.
    probe_cpus: Sequence[Sequence[int]] = ()

    def __init__(self, args: argparse.Namespace, expected: Dict[str, Any]):
        self.args = args
        self.seed = args.seed
        self.study_seed = inputs.study_seed(args.seed)
        self.expected = expected
        self.ops_per_rep = 0
        self.run_notes: Dict[str, float] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def rep(self, rec: Recorder) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass


class OverlayGen(Workload):
    """DSE per suite, then deploy, simulate, emit RTL, floorplan."""

    name = "overlay_gen"

    def setup(self) -> None:
        self.order = inputs.shuffled(self.seed, "suites", inputs.SUITES)
        self.suites = {s: get_suite(s) for s in inputs.SUITES}
        self.ops_per_rep = inputs.DSE_ITERATIONS * len(self.order)
        self.want = self.expected["overlay_gen"][str(self.study_seed)]

    def rep(self, rec: Recorder) -> None:
        for suite in self.order:
            kernels = self.suites[suite]
            config = DseConfig(
                iterations=inputs.DSE_ITERATIONS, seed=self.study_seed
            )
            drop_memo(config_fingerprint(config))  # every study is cold
            with rec.unit(f"{suite}.explore"), span("ext.explore"):
                result = explore(kernels, config, name=suite)
            sysadg = result.sysadg
            with rec.unit(f"{suite}.deploy"):
                sims = {
                    w.name: deploy(rec, f"{suite}/{w.name}", w, sysadg)
                    for w in kernels
                }
            with rec.unit(f"{suite}.rtl"):
                with span("ext.build_design"):
                    design = build_design(sysadg)
                with span("ext.emit_verilog"):
                    verilog = get_backend("verilog").emit_system(sysadg)
                with span("ext.emit_migen"):
                    migen = get_backend("migen").emit_system(sysadg)
                with span("ext.floorplan"):
                    plan = floorplan(sysadg)
            stats = result.stats
            rec.note("dse.iterations", stats.iterations)
            rec.note("dse.accepted", stats.accepted)
            rec.note("dse.preserved_hits", stats.preserved_hits)
            rec.note("dse.repairs", stats.repairs)
            rec.note("dse.modeled_hours", result.modeled_hours)
            rec.note("rtl.verilog_bytes", len(verilog))
            rec.note("rtl.modules", design_stats(design)["modules"])
            rec.objectives[suite] = result.choice.objective
            want = self.want[suite]
            reason = check_value(
                f"{suite} objective", result.choice.objective, want["objective"]
            )
            for kernel, sim in sims.items():
                reason = reason or check_sim(
                    f"{suite}/{kernel}", sim, want["kernels"][kernel]
                )
            if not (verilog and migen and len(plan.placements) == sysadg.params.num_tiles):
                reason = reason or f"{suite}: empty RTL or partial floorplan"
            rec.ops(stats.iterations, reason)


class SearchBatch(Workload):
    """The same dse/model layers reached through search + jobs."""

    name = "search_batch"

    def setup(self) -> None:
        self.order = inputs.shuffled(
            self.seed, "strategies", inputs.SEARCH_STRATEGIES
        )
        self.kernels = [get_workload(k) for k in inputs.SEARCH_KERNELS]
        self.ops_per_rep = inputs.SEARCH_TRIALS * len(self.order)
        self.want = self.expected["search_batch"][str(self.study_seed)]

    def rep(self, rec: Recorder) -> None:
        for strategy in self.order:
            config = DseConfig(seed=self.study_seed)
            drop_memo(config_fingerprint(config))
            settings = SearchSettings(
                strategy=strategy,
                trials=inputs.SEARCH_TRIALS,
                batch=inputs.SEARCH_BATCH,
                seed=self.study_seed,
                workers=1,
            )
            with rec.unit(strategy), span("ext.run_search"):
                outcome = run_search(
                    self.kernels, config, settings, store=None
                )
            study = outcome.study
            feasible = len(study.feasible_trials())
            best = outcome.best_trial
            objective = best.objective if best is not None else None
            rec.note("search.trials", len(study.trials))
            rec.note("search.feasible", feasible)
            rec.note("search.studies")
            if rec.traced:
                rec.note(
                    "search.hypervolume_sum", frontier_doc(study)["hypervolume"]
                )
            want = self.want[strategy]
            reason = check_value(
                f"{strategy} best objective", objective, want["objective"]
            ) or check_value(
                f"{strategy} feasible trials", feasible, want["feasible"]
            )
            if reason is None:
                rec.objectives[strategy] = objective
            rec.ops(len(study.trials), reason)


class DeploySweep(Workload):
    """Every kernel onto every committed overlay."""

    name = "deploy_sweep"
    latency = True

    def setup(self) -> None:
        self.designs = {
            d: load_sysadg(inputs.design_path(d)) for d in inputs.DESIGNS
        }
        self.kernels = {w.name: w for w in all_workloads()}
        plan = inputs.deploy_plan(self.seed, sorted(self.kernels))
        self.chunks = inputs.chunked(plan, inputs.DEPLOY_CHUNKS)
        self.ops_per_rep = len(plan)
        self.want = self.expected["deploy"]

    def rep(self, rec: Recorder) -> None:
        done = []
        for i, chunk in enumerate(self.chunks):
            with rec.unit(f"chunk{i}"):
                for design, kernel in chunk:
                    key = f"{design}/{kernel}"
                    start = perf_counter()
                    result = deploy(
                        rec, key, self.kernels[kernel], self.designs[design]
                    )
                    rec.latencies.append(perf_counter() - start)
                    done.append((key, result, self.want[design][kernel]))
        for key, result, want in done:
            rec.ops(1, check_sim(key, result, want))


class SimLong(Workload):
    """Exact simulation of long regions: stepping-kernel bound."""

    name = "sim_long"
    sim_rate = True

    def setup(self) -> None:
        self.general = load_sysadg(inputs.design_path("general"))
        self.order = inputs.shuffled(
            self.seed, "sim_long", inputs.SIM_LONG_KERNELS
        )
        self.schedules = {
            k: schedule_workload(
                generate_variants(get_workload(k)),
                self.general.adg,
                self.general.params,
            )
            for k in self.order
        }
        self.ops_per_rep = len(self.order)
        self.want = self.expected["sim_long"]

    def rep(self, rec: Recorder) -> None:
        for kernel in self.order:
            with rec.unit(kernel), span("ext.simulate_schedule"):
                result = simulate_schedule(
                    self.schedules[kernel], self.general, exact=True
                )
            rec.sim(kernel, result)
            rec.ops(1, check_sim(kernel, result, self.want[kernel]))


class SimBatchShort(Workload):
    """``simulate_batch`` with library defaults over short regions."""

    name = "sim_batch_short"
    sim_rate = True

    def setup(self) -> None:
        general = load_sysadg(inputs.design_path("general"))
        self.plan = inputs.batch_plan(
            self.seed, inputs.short_kernels(self.expected)
        )
        schedules = {
            k: schedule_workload(
                generate_variants(get_workload(k)), general.adg, general.params
            )
            for k in set(self.plan)
        }
        self.items = [(schedules[k], general) for k in self.plan]
        self.ops_per_rep = len(self.items)
        self.want = self.expected["deploy"]["general"]

    def rep(self, rec: Recorder) -> None:
        with rec.unit("batch"), span("ext.simulate_batch"):
            results = simulate_batch(self.items)
        rec.note("sim.batch_items", len(self.items))
        for kernel, result in zip(self.plan, results):
            rec.sim(kernel, result)
            rec.ops(1, check_sim(kernel, result, self.want[kernel]))
        if rec.traced:
            # Same items without the content-key dedupe: the difference is
            # what fingerprinting costs.  Outside every unit, so it never
            # enters a rep's wall.
            start = perf_counter()
            simulate_batch(self.items, dedupe=False)
            rec.note("sim.batch_nodedupe_s", perf_counter() - start)


class Server:
    """A ``python -m repro serve`` subprocess on a unix socket."""

    def __init__(
        self, out_dir: str, designs: Sequence[str], tag: str,
        cpus: Optional[Sequence[int]],
    ):
        self.socket = os.path.join(out_dir, f"{tag}.sock")
        self.log = open(os.path.join(out_dir, f"{tag}.log"), "w")
        self.boot_s = 0.0
        self.drain_s = 0.0
        self._started = perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--socket", self.socket,
                "--workers", "1",
                "--queue-limit", "64",
                *designs,
            ],
            stdout=self.log,
            stderr=subprocess.STDOUT,
            preexec_fn=(lambda: os.sched_setaffinity(0, cpus)) if cpus else None,
        )

    def client(self) -> ServeClient:
        return ServeClient(socket_path=self.socket)

    async def wait_ready(self) -> None:
        await wait_for_server(self.client, attempts=500, delay_s=0.02)
        self.boot_s = perf_counter() - self._started

    async def stop(self) -> Dict[str, Any]:
        """Read the counters, drain, and wait for the process to end."""
        stats: Dict[str, Any] = {}
        start = perf_counter()
        try:
            async with self.client() as client:
                stats = await client.stats()
                start = perf_counter()
                await client.shutdown()
            self.proc.wait(timeout=30)
        finally:
            self.kill()
        self.drain_s = perf_counter() - start
        return stats

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.log.close()


class ServeWorkload(Workload):
    """Closed loop: each connection sends its next request only after
    the previous reply arrived (callers are compile tools that wait)."""

    latency = True
    uses_children = True
    #: A hot request's time is spent on both sides of the socket.
    probe_generator = True

    def __init__(self, args: argparse.Namespace, expected: Dict[str, Any]):
        super().__init__(args, expected)
        self.loop = asyncio.new_event_loop()
        self.kernels = [w.name for w in all_workloads()]
        self.boots: List[float] = []
        self.drains: List[float] = []
        # The generator keeps the first CPU, the server and its pool get
        # the rest: left to the OS, where the two land relative to each
        # other moves sub-millisecond request latency by +-25 % for tens
        # of seconds at a time.
        cpus = sorted(os.sched_getaffinity(0))
        self.server_cpus = cpus[1:] or None
        if self.server_cpus:
            os.sched_setaffinity(0, cpus[:1])
            self.probe_cpus = [self.server_cpus]
            if self.probe_generator:
                self.probe_cpus.append(cpus[:1])

    async def drive(
        self, clients: Sequence[ServeClient], plan: Sequence[Tuple[str, str, str]]
    ) -> List[Tuple[Tuple[str, str, str], float, float, Dict[str, Any], int]]:
        async def connection(index: int, client: ServeClient):
            out = []
            for key in plan[index::len(clients)]:
                design, kernel, op = key
                start = perf_counter()
                response = await client.request_raw(
                    {"op": op, "workload": kernel, "overlay": design}
                )
                out.append((key, start, perf_counter(), response, index))
            return out

        parts = await asyncio.gather(
            *(connection(i, c) for i, c in enumerate(clients))
        )
        return [record for part in parts for record in part]

    def account(self, rec: Recorder, records: Sequence[Any]) -> None:
        """Check every response and book latency (outside the unit)."""
        for (design, kernel, op), start, end, response, conn in records:
            key = f"{design}/{kernel}/{op}"
            want = self.expected["responses"][design][kernel][op]
            rec.ops(1, check_response(key, response, want))
            rec.latencies.append(end - start)
            rec.requests.append(
                {"client_s": end - start, "served": response.get("served") or {}}
            )
            rec.client_spans.append(("ext.request", start, end, conn))

    def stopped(self, server: Server) -> None:
        self.boots.append(server.boot_s)
        self.drains.append(server.drain_s)
        self.run_notes["serve.boot_ms"] = median(self.boots) * 1e3
        self.run_notes["serve.drain_ms"] = median(self.drains) * 1e3


class ServeHot(ServeWorkload):
    """Every key warmed at set-up: wire + protocol + memory tier only."""

    name = "serve_hot"

    def setup(self) -> None:
        self.plan = inputs.serve_plan(self.seed, inputs.DESIGNS, self.kernels)
        self.ops_per_rep = len(self.plan)
        self.clients: List[ServeClient] = []
        self.server = Server(
            self.args.out_dir,
            [inputs.design_path(d) for d in inputs.DESIGNS],
            "hot",
            self.server_cpus,
        )
        self.loop.run_until_complete(self._warm())

    async def _warm(self) -> None:
        await self.server.wait_ready()
        self.clients = [
            self.server.client() for _ in range(self.args.connections)
        ]
        for client in self.clients:
            await client.connect()
        warm = Recorder()
        self.account(warm, await self.drive(self.clients, self.plan))
        if warm.failed:
            raise RuntimeError(f"warm-up pass failed: {warm.reasons}")

    def rep(self, rec: Recorder) -> None:
        before = self._counters() if rec.traced else None
        with rec.unit("pass"):
            cpu, start = process_time(), perf_counter()
            records = self.loop.run_until_complete(
                self.drive(self.clients, self.plan)
            )
            rec.note(
                "serve.loadgen_cpu_share",
                (process_time() - cpu) / (perf_counter() - start),
            )
        self.account(rec, records)
        if before is not None:
            after = self._counters()
            rec.note("serve.computes", after[0] - before[0])
            rec.note("serve.shed", after[1] - before[1])

    def _counters(self) -> Tuple[int, int]:
        stats = self.loop.run_until_complete(self.clients[0].stats())
        return stats["counters"]["computes"], stats["admission"]["rejected"]

    def teardown(self) -> None:
        async def close() -> None:
            for client in self.clients:
                await client.close()
            await self.server.stop()

        try:
            self.loop.run_until_complete(close())
        finally:
            self.server.kill()
            self.loop.close()
        self.stopped(self.server)


class ServeCold(ServeWorkload):
    """A fresh server per rep: every request is a compile behind one
    worker; no cache tier is ever hit."""

    name = "serve_cold"

    #: Every request is a compile in the server's worker.
    probe_generator = False

    def setup(self) -> None:
        general = load_sysadg(inputs.design_path("general"))
        cold_path = os.path.join(
            self.args.out_dir, f"{inputs.COLD_DESIGN}.json"
        )
        save_sysadg(inputs.cold_design(general), cold_path)
        self.design_paths = [inputs.design_path("general"), cold_path]
        self.plan = inputs.serve_plan(
            self.seed, ("general", inputs.COLD_DESIGN), self.kernels
        )[: inputs.COLD_KEYS]
        self.chunks = inputs.chunked(self.plan, inputs.COLD_CHUNKS)
        self.ops_per_rep = len(self.plan)
        self.reps = 0

    def rep(self, rec: Recorder) -> None:
        self.reps += 1
        server = Server(
            self.args.out_dir, self.design_paths, f"cold{self.reps}",
            self.server_cpus,
        )
        try:
            self.loop.run_until_complete(self._pass(rec, server))
        finally:
            server.kill()
        self.stopped(server)

    async def _pass(self, rec: Recorder, server: Server) -> None:
        await server.wait_ready()  # boot is not part of the rep
        clients = [server.client() for _ in range(self.args.connections)]
        for client in clients:
            await client.connect()
        records: List[Any] = []
        busy = wall = 0.0
        for i, chunk in enumerate(self.chunks):
            # No request is in flight between chunks, so the probe that
            # follows a unit sees an idle server.
            with rec.unit(f"chunk{i}"):
                cpu, start = process_time(), perf_counter()
                records += await self.drive(clients, chunk)
                busy += process_time() - cpu
                wall += perf_counter() - start
        rec.note("serve.loadgen_cpu_share", busy / wall)
        for client in clients:
            await client.close()
        self.account(rec, records)
        stats = await server.stop()
        rec.note("serve.computes", stats["counters"]["computes"])
        rec.note("serve.shed", stats["admission"]["rejected"])

    def teardown(self) -> None:
        self.loop.close()


WORKLOADS = {
    cls.name: cls
    for cls in (
        OverlayGen, SearchBatch, DeploySweep, SimLong, SimBatchShort,
        ServeHot, ServeCold,
    )
}


def run_reps(
    workload: Workload, args: argparse.Namespace, layer_names: Sequence[str]
) -> Tuple[Recorder, List[Dict[str, float]], List[bool], List[Span]]:
    """Repeat reps inside the time box; odd reps are traced if asked."""
    rec = Recorder(workload.probe_cpus)
    layers: List[Dict[str, float]] = []
    traced_reps: List[bool] = []
    last_spans: List[Span] = []
    deadline = perf_counter() + args.seconds
    while rec.reps < args.min_reps or perf_counter() < deadline:
        traced = bool(args.trace) and rec.reps % 2 == 1
        rec.begin_rep(traced)
        tracer = Tracer()
        try:
            if traced:
                with tracing(tracer):
                    workload.rep(rec)
            else:
                workload.rep(rec)
        except Exception as exc:  # a rep that raises is failed ops, not a crash
            rec.ops(workload.ops_per_rep, f"rep raised {type(exc).__name__}: {exc}")
        rec.end_rep()
        traced_reps.append(traced)
        if traced:
            last_spans = [
                (s.name, s.start, s.end, s.tid) for s in tracer.spans()
            ] + rec.client_spans
            layers.append(
                layer_metrics(
                    layer_names, last_spans, rec.units, rec.notes, rec.requests
                )
            )
    return rec, layers, traced_reps, last_spans


def end_to_end(
    workload: Workload, rec: Recorder, setup_s: float, rep_walls: List[float],
    rep_wall: float,
) -> Tuple[Dict[str, Dict[str, Any]], Dict[str, Any]]:
    """Every end-to-end metric that applies, with the samples behind it.

    Rates and latencies are for the nominal host (see ``probe``);
    ``setup_s`` and memory are as measured.
    """
    ops = workload.ops_per_rep
    speed = rec.host_speed()
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.uses_children:
        usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out: Dict[str, Dict[str, Any]] = {
        "setup_s": {"value": setup_s},
        "ops_per_s": {
            "value": ops / rep_wall,
            "samples": [ops / w for w in rep_walls if w > 0],
        },
        "failed_share": {"value": rec.failed / rec.attempted},
        "peak_rss_mb": {"value": usage / 1024.0},
    }
    info: Dict[str, Any] = {
        "reps": rec.reps,
        "rep_wall_s": rep_wall,
        "host_speed": speed,
        "probes": len(rec.probe_values),
    }
    if workload.latency:
        count = len(rec.latencies)
        info["latency_samples"] = count
        info["p95_tail_samples"] = tail_samples(count, 0.95)
        scale = speed * 1e3
        out["op_p50_ms"] = {"value": percentile(rec.latencies, 0.50) * scale}
        out["op_p95_ms"] = {"value": percentile(rec.latencies, 0.95) * scale}
        if count >= 1000:
            info["op_p99_ms"] = percentile(rec.latencies, 0.99) * scale
    if workload.sim_rate:
        out["sim_cycles_per_s"] = {
            "value": rec.stepped_per_rep / rep_wall,
            "samples": [rec.stepped_per_rep / w for w in rep_walls if w > 0],
        }
    if rec.objectives:
        out["overlay_objective"] = {"value": geomean(rec.objectives.values())}
    if rec.cycles:
        out["geomean_sim_cycles"] = {"value": geomean(rec.cycles.values())}
    for entry in out.values():
        entry["spread"] = spread(entry.pop("samples", []))
    return out, info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-reps", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--connections", type=int, default=2)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--started", type=float, required=True,
                        help="time.time() when run.py spawned this process")
    parser.add_argument("--layers", default="",
                        help="comma list of per-layer metric names to report")
    args = parser.parse_args()

    start = perf_counter()
    if not vector_core_available():
        print(
            "error: the compiled simulator core is unavailable (no C "
            "compiler?); refusing to benchmark the ~100x slower object core",
            file=sys.stderr,
        )
        return 2
    kernel_load_s = perf_counter() - start

    layer_names = [n for n in args.layers.split(",") if n]
    workload = WORKLOADS[args.workload](args, load_expected())
    try:
        workload.setup()
        setup_s = time.time() - args.started
        rec, layers, traced_reps, spans = run_reps(workload, args, layer_names)
    finally:
        workload.teardown()

    unit_walls, rep_walls = rec.scaled_walls()
    # A unit's time is its median over the reps; a rep is their sum.
    rep_wall = sum(median(walls) for walls in unit_walls.values())
    metrics, info = end_to_end(workload, rec, setup_s, rep_walls, rep_wall)
    doc: Dict[str, Any] = {
        "workload": workload.name,
        "seed": args.seed,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "reasons": rec.reasons,
        "end_to_end": metrics,
        "info": info,
    }
    if args.trace:
        per_layer = median_layers(layers)
        per_layer["sim.kernel_load_ms"] = kernel_load_s * 1e3
        per_layer["bench.trace_overhead_ratio"] = median(
            [w for w, traced in zip(rep_walls, traced_reps) if traced]
        ) / median([w for w, traced in zip(rep_walls, traced_reps) if not traced])
        for key, value in workload.run_notes.items():
            per_layer[key] = value
        doc["per_layer"] = {n: per_layer[n] for n in layer_names}
        trace_path = os.path.join(
            os.path.dirname(args.out_dir), f"trace-{workload.name}.json"
        )
        with open(trace_path, "w") as f:
            json.dump(chrome_trace(spans), f)
        info["trace"] = os.path.relpath(trace_path, inputs.ROOT)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
