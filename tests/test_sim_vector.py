"""Vectorized simulator core: parity goldens, batching, and satellites.

The vectorized core's contract is *bit-identical* cycle accounting: every
``SimResult`` field (cycles is an IEEE-754 double) must equal the object
model's, and every raised ``SimulationError`` must carry the same message.
These tests pin that contract on the bench workloads, on fuzz-generated
cases (the differential oracle's own distribution), and on crafted edge
cases (deadlock, zero-trip streams, clamped measurement windows).
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adg import SysADG, general_overlay
from repro.compiler import generate_variants, lower
from repro.dfg import StreamKind
from repro.profile import Tracer, tracing
from repro.scheduler import schedule_mdfg, schedule_workload
from repro.sim import (
    BandwidthPool,
    SimResult,
    SimulationError,
    build_tile,
    critical_path_depth,
    simulate_batch,
    simulate_schedule,
    vector_core_available,
)
from repro.sim.simulator import _resolve_core
from repro.validate.generators import random_case
from repro.workloads import all_workloads, get_workload

needs_kernel = pytest.mark.skipif(
    not vector_core_available(),
    reason="no C compiler: vector core unavailable",
)

BENCH_WORKLOADS = ("fir", "mm", "bgr2grey", "vecmax")


@pytest.fixture(scope="module")
def overlay():
    return general_overlay()


def scheduled(name, overlay):
    schedule = schedule_workload(
        generate_variants(get_workload(name)), overlay.adg, overlay.params
    )
    assert schedule is not None
    return schedule


def scheduled_recurrence(name, overlay):
    """Schedule the recurrence-engine variant (out-port -> in-port loop)."""
    mdfg = lower(get_workload(name), use_recurrence=True)
    assert any(s.kind is StreamKind.RECURRENCE for s in mdfg.streams)
    schedule = schedule_mdfg(mdfg, overlay.adg, overlay.params)
    assert schedule is not None
    return schedule


def assert_identical(a: SimResult, b: SimResult) -> None:
    """Field-exact equality — floats compared with ==, not approx."""
    for f in dataclasses.fields(SimResult):
        av, bv = getattr(a, f.name), getattr(b, f.name)
        assert av == bv, f"{f.name}: {av!r} != {bv!r}"


def both_cores(schedule, sysadg, **kwargs):
    obj = simulate_schedule(schedule, sysadg, core="object", **kwargs)
    vec = simulate_schedule(schedule, sysadg, core="vector", **kwargs)
    return obj, vec


@needs_kernel
class TestGoldenParity:
    @pytest.mark.parametrize("name", BENCH_WORKLOADS)
    def test_bench_workload_defaults(self, name, overlay):
        obj, vec = both_cores(scheduled(name, overlay), overlay)
        assert_identical(obj, vec)

    @pytest.mark.parametrize("name", ("mm", "vecmax"))
    def test_exact_runs(self, name, overlay):
        obj, vec = both_cores(scheduled(name, overlay), overlay, exact=True)
        assert not obj.extrapolated
        assert_identical(obj, vec)

    def test_extrapolated_run(self, overlay):
        # fir does not drain in 20k cycles -> exercises the window
        # snapshot + steady-state extrapolation on both cores.
        obj, vec = both_cores(
            scheduled("fir", overlay), overlay, max_exact_cycles=20_000
        )
        assert obj.extrapolated
        assert_identical(obj, vec)

    def test_clamped_measure_window(self, overlay):
        # measure_window >= max_exact_cycles clamps the window to half the
        # cap; the snapshot then lands mid-run (and, on the vector core,
        # possibly mid-skip).
        obj, vec = both_cores(
            scheduled("fir", overlay),
            overlay,
            max_exact_cycles=7_000,
            measure_window=9_000,
        )
        assert obj.extrapolated
        assert_identical(obj, vec)

    def test_onehot_bypass_off(self, overlay):
        obj, vec = both_cores(
            scheduled("vecmax", overlay), overlay, onehot_bypass=False
        )
        assert_identical(obj, vec)

    @pytest.mark.parametrize("name", ("fir", "gemm"))
    def test_recurrence_variant(self, name, overlay):
        # the recurrence engine's forward_to loop (out-port -> buffer ->
        # in-port) is the one stream topology the bench set never takes
        obj, vec = both_cores(scheduled_recurrence(name, overlay), overlay)
        assert_identical(obj, vec)


@needs_kernel
class TestFuzzParity:
    """The oracle's own case distribution, object vs vector."""

    @staticmethod
    def run_case(seed: str):
        case = random_case(seed)
        workload = case.program.build()
        adg = case.adg()
        params = case.system_params()
        schedule = schedule_workload(
            generate_variants(workload), adg, params
        )
        if schedule is None:
            return None
        sysadg = SysADG(adg=adg, params=params, name="fuzz")
        outcomes = []
        for core in ("object", "vector"):
            try:
                outcomes.append(simulate_schedule(schedule, sysadg, core=core))
            except SimulationError as exc:
                outcomes.append(str(exc))
        return outcomes

    def test_generator_corpus(self):
        compared = 0
        for i in range(12):
            outcomes = self.run_case(f"vector-parity:{i}")
            if outcomes is None:
                continue
            obj, vec = outcomes
            if isinstance(obj, SimResult):
                assert isinstance(vec, SimResult), f"seed {i}: {vec}"
                assert_identical(obj, vec)
            else:
                assert obj == vec, f"seed {i}: error messages diverge"
            compared += 1
        assert compared >= 6  # the generator maps most cases

    @given(st.integers(0, 10**6))
    @settings(max_examples=8, deadline=None, derandomize=True)
    def test_property_random_schedules(self, n):
        outcomes = self.run_case(f"vector-hyp:{n}")
        if outcomes is None:
            return
        obj, vec = outcomes
        if isinstance(obj, SimResult):
            assert_identical(obj, vec)
        else:
            assert obj == vec


@needs_kernel
class TestDeadlockParity:
    def test_identical_deadlock_message(self, overlay, monkeypatch):
        # Streams that never dispatch starve the fabric forever; both
        # cores must raise the same no-progress error at the same cycle
        # (the vector core reaches it through its deadline skip).
        import repro.sim.simulator as simmod

        real_build = simmod.build_tile

        def starved(*args, **kwargs):
            engines, fabric, pools = real_build(*args, **kwargs)
            for engine in engines:
                for stream in engine.streams:
                    stream.dispatched_at = 10**9
            return engines, fabric, pools

        schedule = scheduled("mm", overlay)
        messages = []
        for core in ("object", "vector"):
            monkeypatch.setattr(simmod, "build_tile", starved)
            with pytest.raises(SimulationError) as exc:
                simulate_schedule(schedule, overlay, core=core)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert "no progress for 20k cycles at cycle 20001" in messages[0]


class TestCoreSelection:
    def test_invalid_core_rejected(self, overlay):
        with pytest.raises(SimulationError, match="unknown simulator core"):
            simulate_schedule(
                scheduled("mm", overlay), overlay, core="bogus"
            )

    def test_env_var_selects_core(self, overlay, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_CORE", "nope")
        with pytest.raises(SimulationError, match="unknown simulator core"):
            simulate_schedule(scheduled("mm", overlay), overlay)
        monkeypatch.setenv("REPRO_SIM_CORE", "object")
        assert _resolve_core(None) == "object"
        # explicit argument wins over the environment
        assert _resolve_core("auto") == "auto"

    def test_object_core_always_available(self, overlay):
        result = simulate_schedule(
            scheduled("vecmax", overlay), overlay, core="object"
        )
        assert result.cycles > 0


def test_batch_honours_env_object_core_without_loading_kernel(
    overlay, monkeypatch
):
    """``REPRO_SIM_CORE=object`` opts out of the C kernel: the batch must
    not compile/``dlopen`` it behind the caller's back (nor for an empty
    batch)."""
    from repro.sim import ckernel, vector

    def forbidden():
        raise AssertionError("load_kernel called under REPRO_SIM_CORE=object")

    monkeypatch.setenv("REPRO_SIM_CORE", "object")
    monkeypatch.setattr(ckernel, "load_kernel", forbidden)
    monkeypatch.setattr(vector, "load_kernel", forbidden)
    pair = (scheduled("mm", overlay), overlay)
    assert simulate_batch([]) == []
    (result,) = simulate_batch([pair])
    assert_identical(result, simulate_schedule(*pair, core="object"))


@needs_kernel
class TestBatch:
    def test_batch_identical_to_serial(self, overlay):
        names = ["fir", "mm", "fir", "vecmax", "mm"]  # with duplicates
        pairs = [(scheduled(n, overlay), overlay) for n in names]
        serial = [simulate_schedule(s, d) for s, d in pairs]
        batched = simulate_batch(pairs)
        assert len(batched) == len(serial)
        for a, b in zip(serial, batched):
            assert_identical(a, b)

    def test_batch_dedupes_duplicates(self, overlay):
        pair = (scheduled("mm", overlay), overlay)
        first, second = simulate_batch([pair, pair])
        assert first is second  # answered from the identity key
        no_dedupe = simulate_batch([pair, pair], dedupe=False)
        assert no_dedupe[0] is not no_dedupe[1]
        assert_identical(first, no_dedupe[0])

    def test_batch_options_forwarded(self, overlay):
        pairs = [(scheduled("mm", overlay), overlay)]
        ref = simulate_schedule(pairs[0][0], overlay, exact=True)
        batched = simulate_batch(pairs, exact=True)
        assert_identical(ref, batched[0])

    def test_dedupe_tells_schedules_of_one_variant_apart(self, overlay):
        # Two *different* schedules of one variant on one overlay object
        # share the (overlay, workload, variant) key; a hit must also
        # need equal placement and routes.
        import copy

        first = scheduled("mm", overlay)
        longer = copy.deepcopy(first)
        depth = critical_path_depth(first.mdfg, first)
        for key, path in first.routes.items():
            longer.routes[key] = path + (path[-1],) * 6
            if critical_path_depth(longer.mdfg, longer) == depth + 6:
                break
            longer.routes[key] = path
        pairs = [(first, overlay), (longer, overlay)]
        serial = [simulate_schedule(s, d) for s, d in pairs]
        assert serial[1].cycles == serial[0].cycles + 6
        batched = simulate_batch(pairs)
        assert batched[0] is not batched[1]
        for a, b in zip(serial, batched):
            assert_identical(a, b)
        # an *equal* schedule (serve's twice-listed name) still steps once
        twin = copy.deepcopy(first)
        same = simulate_batch([(first, overlay), (twin, overlay)])
        assert same[0] is same[1]


def mapped_pairs(overlay):
    """Every registered workload that maps on the overlay, scheduled."""
    pairs = []
    for workload in all_workloads():
        schedule = schedule_workload(
            generate_variants(workload), overlay.adg, overlay.params
        )
        if schedule is not None:
            pairs.append((schedule, overlay))
    return pairs


def fuzz_pairs(count):
    """The first ``count`` generator cases that map, as batch items."""
    pairs = []
    for i in range(40):
        case = random_case(f"batch-parity:{i}")
        adg, params = case.adg(), case.system_params()
        schedule = schedule_workload(
            generate_variants(case.program.build()), adg, params
        )
        if schedule is not None:
            pairs.append(
                (schedule, SysADG(adg=adg, params=params, name="fuzz"))
            )
        if len(pairs) == count:
            break
    assert len(pairs) == count
    return pairs


def serial_outcomes(pairs, **options):
    """What N serial calls give: a result or an error message each."""
    outcomes = []
    for schedule, sysadg in pairs:
        try:
            outcomes.append(simulate_schedule(schedule, sysadg, **options))
        except SimulationError as exc:
            outcomes.append(str(exc))
    return outcomes


@needs_kernel
class TestBatchParity:
    """One kernel call over the whole batch == N serial calls == the
    object core, field-exact, errors included."""

    def test_every_workload_and_recurrence_variants(self, overlay):
        pairs = mapped_pairs(overlay)
        assert len(pairs) >= 20
        pairs += [
            (scheduled_recurrence(name, overlay), overlay)
            for name in ("fir", "gemm")
        ]
        options = {"max_exact_cycles": 20_000}  # long regions extrapolate
        batched = simulate_batch(pairs, **options)
        assert {r.extrapolated for r in batched} == {True, False}
        for (schedule, sysadg), got in zip(pairs, batched):
            assert_identical(
                simulate_schedule(schedule, sysadg, **options), got
            )
            assert_identical(
                simulate_schedule(schedule, sysadg, core="object", **options),
                got,
            )

    def test_fuzz_regions_identical_to_serial(self):
        pairs = fuzz_pairs(8)
        serial = serial_outcomes(pairs)
        assert all(isinstance(o, SimResult) for o in serial)
        for a, b in zip(serial, simulate_batch(pairs)):
            assert_identical(a, b)

    def test_fuzz_regions_raise_the_first_serial_error(self):
        # A 6-cycle cap ends most regions before their first firing: the
        # batch must raise what the first failing *item* raises alone.
        pairs = fuzz_pairs(8)
        serial = serial_outcomes(pairs, max_exact_cycles=6)
        errors = [o for o in serial if isinstance(o, str)]
        assert errors and "zero steady-state rate" in errors[0]
        for core in ("object", "vector"):
            with pytest.raises(SimulationError) as exc:
                simulate_batch(pairs, max_exact_cycles=6, core=core)
            assert str(exc.value) == errors[0]

    def test_starved_region_mid_batch_raises_serial_message(
        self, overlay, monkeypatch
    ):
        import repro.sim.simulator as simmod

        real_build = simmod.build_tile
        victim = scheduled("mm", overlay)

        def starve_victim(schedule, *args, **kwargs):
            engines, fabric, pools = real_build(schedule, *args, **kwargs)
            if schedule is victim:
                for engine in engines:
                    for stream in engine.streams:
                        stream.dispatched_at = 10**9
            return engines, fabric, pools

        monkeypatch.setattr(simmod, "build_tile", starve_victim)
        pairs = [
            (scheduled("vecmax", overlay), overlay),
            (victim, overlay),
            (scheduled("bgr2grey", overlay), overlay),
        ]
        with pytest.raises(SimulationError) as alone:
            simulate_schedule(victim, overlay)
        assert "no progress for 20k cycles at cycle 20001" in str(alone.value)
        for core in ("object", "vector"):
            with pytest.raises(SimulationError) as exc:
                simulate_batch(pairs, core=core)
            assert str(exc.value) == str(alone.value)

    def test_unpackable_tile_falls_back_or_raises(self, overlay, monkeypatch):
        # A third pool is outside the kernel's (l2, dram) slots: "auto"
        # steps that region on the object core, "vector" refuses it.
        import repro.sim.simulator as simmod

        real_build = simmod.build_tile
        victim = scheduled("mm", overlay)

        def third_pool(schedule, *args, **kwargs):
            engines, fabric, pools = real_build(schedule, *args, **kwargs)
            if schedule is victim:
                pools = pools + [BandwidthPool("spare", 1.0)]
            return engines, fabric, pools

        monkeypatch.setattr(simmod, "build_tile", third_pool)
        pairs = [
            (scheduled("vecmax", overlay), overlay),
            (victim, overlay),
        ]
        with tracing(Tracer()) as tracer:
            auto = simulate_batch(pairs)
        assert tracer.counters()["sim.kernel_calls"] == 1  # vecmax only
        for got, want in zip(auto, simulate_batch(pairs, core="object")):
            assert_identical(got, want)
        assert "spare" in auto[1].pool_bytes
        with pytest.raises(SimulationError) as exc:
            simulate_batch(pairs, core="vector")
        assert str(exc.value) == (
            f"mm/{victim.mdfg.variant}: vector core unavailable (tile "
            "shape outside the packed model); use core='auto' or 'object'"
        )

    def test_synced_back_state_matches_object_core(self, overlay):
        # Stop mid-run (pipeline in flight, FIFOs part full) and compare
        # every mutable quantity the kernel writes back, on the batch's
        # *second* region so every slice starts at a non-zero offset.
        from repro.sim.ckernel import STATUS_HARD_CAP
        from repro.sim.simulator import Region
        from repro.sim.vector import pack_batch, step_batch

        def snapshot(region):
            return (
                [
                    (
                        e.name,
                        e._rr,
                        e.issued_cycles,
                        e.busy_cycles,
                        [s is e._last_issued for s in e.streams],
                        [(s.moved, s.port.level) for s in e.streams],
                    )
                    for e in region.engines
                ],
                [(f.level, rate) for f, rate in region.fabric.config.inputs],
                [(f.level, rate) for f, rate in region.fabric.config.outputs],
                region.fabric.firings,
                region.fabric.stall_cycles,
                region.fabric._pipeline,
                [(p.available, p.consumed_total) for p in region.pools],
            )

        schedule = scheduled("fir", overlay)
        obj = Region.build(schedule, overlay, True)
        obj.step_object(False, 3_000, 1_000)
        assert obj.extrapolated and obj.fabric._pipeline
        regions = [
            Region.build(scheduled("vecmax", overlay), overlay, True),
            Region.build(schedule, overlay, True),
        ]
        outcomes = step_batch(
            pack_batch([r.tile for r in regions]),
            False,
            3_000,
            1_000,
        )
        assert outcomes[1] == (
            STATUS_HARD_CAP, obj.now, obj.window_firings, obj.window_cycle
        )
        assert snapshot(regions[1]) == snapshot(obj)

    def test_one_kernel_call_per_batch(self, overlay):
        pairs = mapped_pairs(overlay)[:25]
        assert len(pairs) == 25
        with tracing(Tracer()) as tracer:
            batched = simulate_batch(pairs)
        assert tracer.counters()["sim.kernel_calls"] == 1
        assert tracer.counters()["sim.regions"] == 25
        assert tracer.counters()["sim.cycles_stepped"] == sum(
            r.stepped_cycles for r in batched
        )
        (region_span,) = [s for s in tracer.spans() if s.name == "sim.region"]
        assert region_span.attrs == {"regions": 25}
        with tracing(Tracer()) as tracer:
            for schedule, sysadg in pairs:
                simulate_schedule(schedule, sysadg)
        assert tracer.counters()["sim.kernel_calls"] == 25
        assert tracer.counters()["sim.regions"] == 25
        mdfg = pairs[-1][0].mdfg
        assert tracer.spans()[-1].attrs == {
            "regions": 1,
            "workload": mdfg.workload,
            "variant": mdfg.variant,
        }


def test_batch_arrays_mirror_the_c_struct():
    """``BatchStateStruct`` is built from ``BATCH_ARRAYS``; its order and
    element types must be the C ``BatchState`` declaration's, and every
    typecode must be 8 bytes wide here (a platform whose ``q`` is not
    64-bit fails here rather than corrupting the kernel's view)."""
    import re
    from array import array

    from repro.sim.ckernel import BATCH_ARRAYS, KERNEL_SOURCE

    body = re.search(
        r"typedef struct \{([^}]*)\} BatchState;", KERNEL_SOURCE
    ).group(1)
    body = re.sub(r"/\*.*?\*/", "", body, flags=re.S)
    declared = [
        (name.strip()[1:], {"double": "d", "int64_t": "q"}[ctype])
        for ctype, names in re.findall(r"(double|int64_t) ([^;]+);", body)
        for name in names.split(",")
        if name.strip().startswith("*")
    ]
    assert declared == list(BATCH_ARRAYS.items())
    assert {array(code).itemsize for code in BATCH_ARRAYS.values()} == {8}


@needs_kernel
class TestKernelCache:
    """The on-disk kernel cache must survive corrupt entries and
    concurrent cold builders."""

    @pytest.fixture
    def cold(self, tmp_path, monkeypatch):
        """A fresh cache dir and an unloaded kernel, for one test."""
        from repro.sim import ckernel

        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
        monkeypatch.setattr(ckernel, "_kernel", None)
        monkeypatch.setattr(ckernel, "_load_attempted", False)
        monkeypatch.setattr(ckernel, "_load_error", None)
        return ckernel

    def test_symbolless_cached_library_is_rebuilt(
        self, cold, tmp_path, overlay
    ):
        import subprocess

        planted = tmp_path / f"repro_sim_kernel_{cold._source_digest()}.so"
        subprocess.run(
            ["cc", "-shared", "-fPIC", "-x", "c", "-o", str(planted), "-"],
            input=b"int unrelated(void) { return 0; }\n",
            check=True,
        )
        before = planted.read_bytes()
        assert cold._compile(str(tmp_path)) == str(planted)  # a cache hit
        kernel = cold.load_kernel()
        assert kernel is not None and cold.load_error() is None
        assert planted.read_bytes() != before
        schedule = scheduled("mm", overlay)
        assert_identical(
            simulate_schedule(schedule, overlay, core="vector"),
            simulate_schedule(schedule, overlay, core="object"),
        )

    def test_concurrent_cold_compiles_all_load(self, cold, tmp_path):
        import ctypes
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(4) as pool:
            paths = list(
                pool.map(lambda _: cold._compile(str(tmp_path)), range(4))
            )
        assert len(set(paths)) == 1
        for path in paths:
            cold.Kernel(ctypes.CDLL(path), path)  # has the entry point
        assert [p.name for p in tmp_path.iterdir()] == [
            paths[0].rsplit("/", 1)[1]
        ]  # no temp files or sources left behind


@needs_kernel
class TestServeBatchOp:
    def test_docs_byte_identical_to_serial_op(self, overlay):
        from repro.serve import simulate_batch_op, simulate_op
        from repro.serve.protocol import canonical_dumps

        names = ["fir", "mm", "fir", "vecmax"]
        docs = simulate_batch_op(overlay, names)
        for name, doc in zip(names, docs):
            assert canonical_dumps(doc) == canonical_dumps(
                simulate_op(overlay, name)
            )

    def test_unknown_workload_rejected(self, overlay):
        from repro.serve import simulate_batch_op
        from repro.serve.errors import BadRequestError

        with pytest.raises(BadRequestError):
            simulate_batch_op(overlay, ["mm", "no-such-workload"])


class TestMultiplexBatched:
    def test_per_kernel_matches_serial_simulation(self, overlay):
        from repro.sim import run_sequence

        schedules = [scheduled(n, overlay) for n in ("mm", "vecmax", "mm")]
        result = run_sequence(schedules, overlay, repeats=2)
        for schedule in schedules:
            key = f"{schedule.mdfg.workload}/{schedule.mdfg.variant}"
            assert_identical(
                result.per_kernel[key],
                simulate_schedule(schedule, overlay),
            )


# ---------------------------------------------------------------------------
# Satellites: cycle-accounting audits riding along with the rewrite.
# ---------------------------------------------------------------------------


def tile_fingerprint(engines, fabric, pools):
    """Order-stable snapshot of every mutable tile quantity."""
    fifo_ids = {}

    def fid(fifo):
        return fifo_ids.setdefault(id(fifo), len(fifo_ids))

    doc = []
    for engine in engines:
        for s in engine.streams:
            doc.append(
                (
                    engine.name,
                    s.name,
                    s.total_elements,
                    s.elements_per_cycle_cap,
                    s.element_bytes,
                    s.l2_fraction,
                    s.dram_fraction,
                    s.dispatched_at,
                    fid(s.port),
                    s.port.capacity,
                    s.port.level,
                    None
                    if getattr(s, "forward_to", None) is None
                    else (
                        fid(s.forward_to),
                        s.forward_to.capacity,
                        s.forward_to.level,
                    ),
                )
            )
    for group in (fabric.config.inputs, fabric.config.outputs):
        for fifo, rate in group:
            doc.append((fid(fifo), fifo.capacity, fifo.level, rate))
    doc.append(
        (
            fabric.config.total_firings,
            fabric.config.pipeline_depth,
            fabric.config.insts_per_firing,
        )
    )
    doc.append([(p.name, p.bytes_per_cycle) for p in pools])
    return doc


class TestBuildTileIdempotent:
    """S1: the recurrence branch mutates ``in_fifo`` in place
    (``capacity +=`` / ``level =``); those FIFOs are freshly constructed
    per call, so repeated builds must be state-identical."""

    @pytest.mark.parametrize("name", BENCH_WORKLOADS)
    def test_two_builds_identical(self, name, overlay):
        schedule = scheduled(name, overlay)
        first = tile_fingerprint(*build_tile(schedule, overlay, 2))
        second = tile_fingerprint(*build_tile(schedule, overlay, 2))
        assert first == second

    def test_recurrence_builds_identical(self, overlay):
        # the branch under audit: `in_fifo.capacity +=` / `in_fifo.level =`
        # mutate a FIFO in place — fresh per call, so builds must agree
        schedule = scheduled_recurrence("fir", overlay)
        first = tile_fingerprint(*build_tile(schedule, overlay, 2))
        second = tile_fingerprint(*build_tile(schedule, overlay, 2))
        assert first == second
        stream_rows = [r for r in first if len(r) == 12]
        assert any(row[-1] is not None for row in stream_rows)


@needs_kernel
class TestExtrapolationDrift:
    """S2: fractional per-firing rates (wide ports / narrow dtypes) must
    not let the extrapolated total drift from the exact count."""

    def test_long_region_drift_bounded(self, overlay):
        # fir steps 200k cycles before extrapolating ~1.25M: fractional
        # per-firing rates must not compound into the projected total
        schedule = scheduled("fir", overlay)
        exact = simulate_schedule(schedule, overlay, exact=True)
        extra = simulate_schedule(schedule, overlay)
        assert extra.extrapolated and not exact.extrapolated
        rel = abs(extra.cycles - exact.cycles) / exact.cycles
        assert rel < 1e-3, f"fir extrapolation drifts {rel:.2e} from exact"

    def test_short_region_residual_is_drain_tail(self, overlay):
        # bgr2grey's i8 elements on 32-byte ports give fractional
        # cap_elems; forcing extrapolation on the short region must leave
        # only the (constant, window-independent) pipeline-drain residual
        # — a growing gap here would mean per-firing rate rounding drift.
        schedule = scheduled("bgr2grey", overlay)
        exact = simulate_schedule(schedule, overlay, exact=True)
        gaps = []
        for cap, win in ((4_000, 1_000), (2_000, 500)):
            extra = simulate_schedule(
                schedule, overlay, max_exact_cycles=cap, measure_window=win
            )
            assert extra.extrapolated
            gaps.append(abs(extra.cycles - exact.cycles))
        assert gaps[0] == gaps[1]  # residual independent of the window
        assert gaps[0] <= 2 * build_tile(schedule, overlay, 2)[
            1
        ].config.pipeline_depth + 2

    def test_crafted_fractional_rate(self, overlay):
        # craft a genuinely fractional per-firing rate (the bench set's
        # rates are all integral) by skewing one stream's traffic off the
        # firing grid: extrapolation must stay within rounding distance
        # of the exact count, and both cores must agree exactly
        import copy

        schedule = copy.deepcopy(scheduled("bgr2grey", overlay))
        victim = next(s for s in schedule.mdfg.streams if s.traffic > 0)
        victim.traffic = int(victim.traffic * 4 // 3)
        fabric = build_tile(schedule, overlay, 2)[1]
        assert any(
            rate > 0 and (rate % 1.0) != 0.0
            for _, rate in fabric.config.inputs + fabric.config.outputs
        )
        exact = simulate_schedule(schedule, overlay, exact=True)
        extra = simulate_schedule(
            schedule, overlay, max_exact_cycles=4_000, measure_window=1_000
        )
        assert extra.extrapolated
        rel = abs(extra.cycles - exact.cycles) / exact.cycles
        assert rel < 5e-3, f"fractional-rate drift {rel:.2e}"
        obj, vec = both_cores(schedule, overlay, exact=True)
        assert_identical(obj, vec)


class TestZeroTripStreams:
    """S3: a stream whose total rounds to zero is skipped by
    ``build_tile`` but its port still appears in the fabric's eps sums
    (with rate 0) — the region must still drain, on both cores."""

    def zero_one_stream(self, overlay):
        import copy

        schedule = copy.deepcopy(scheduled("mm", overlay))
        victim = max(schedule.mdfg.streams, key=lambda s: s.node_id)
        victim.traffic = 0.0
        return schedule

    def test_zero_trip_completes_object(self, overlay):
        schedule = self.zero_one_stream(overlay)
        result = simulate_schedule(schedule, overlay, core="object")
        assert result.cycles > 0
        assert result.ipc >= 0.0

    @needs_kernel
    def test_zero_trip_parity(self, overlay):
        schedule = self.zero_one_stream(overlay)
        obj, vec = both_cores(schedule, overlay)
        assert_identical(obj, vec)

    def test_ipc_zero_cycles_guard(self):
        result = SimResult(
            workload="w",
            variant="v",
            cycles=0.0,
            instructions=10.0,
            tiles_used=1,
            extrapolated=False,
        )
        assert result.ipc == 0.0
