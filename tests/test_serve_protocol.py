"""Unit tests for the serve wire protocol, errors, and batching pieces."""

import asyncio

import pytest

from repro.serve import (
    AdmissionGate,
    BadRequestError,
    DeadlineError,
    LatencyReservoir,
    OverloadedError,
    ServeError,
    SingleFlight,
    UnmappableError,
    canonical_dumps,
    decode_line,
    encode_line,
    error_from_doc,
    parse_request,
    response_doc,
)


class TestFraming:
    def test_round_trip(self):
        doc = {"id": "r1", "op": "map", "workload": "fir"}
        assert decode_line(encode_line(doc)) == doc

    def test_canonical_dumps_is_key_sorted_and_tight(self):
        assert canonical_dumps({"b": 1, "a": [2, 3]}) == '{"a":[2,3],"b":1}'

    def test_decode_rejects_garbage(self):
        with pytest.raises(BadRequestError):
            decode_line(b"not json\n")

    def test_decode_rejects_non_object(self):
        with pytest.raises(BadRequestError):
            decode_line(b"[1, 2, 3]\n")


class TestParseRequest:
    def test_minimal_compute(self):
        req = parse_request({"id": "a", "op": "map", "workload": "fir"})
        assert req.op == "map" and req.workload == "fir"
        assert req.overlay is None and req.timeout_s is None

    def test_as_doc_round_trip(self):
        req = parse_request(
            {"id": "a", "op": "simulate", "workload": "fir",
             "overlay": "dsp", "timeout_s": 2.5, "options": {"x": 1}}
        )
        assert parse_request(req.as_doc()) == req

    @pytest.mark.parametrize(
        "doc",
        [
            {"id": "a", "op": "frobnicate"},
            {"id": "", "op": "map", "workload": "fir"},
            {"op": "map", "workload": "fir"},
            {"id": "a", "op": "map"},                      # missing workload
            {"id": "a", "op": "map", "workload": ""},
            {"id": "a", "op": "map", "workload": "fir", "timeout_s": 0},
            {"id": "a", "op": "map", "workload": "fir", "timeout_s": "x"},
            {"id": "a", "op": "map", "workload": "fir", "options": []},
            {"id": "a", "op": "map", "workload": "fir", "overlay": 7},
            # json.loads parses NaN/Infinity and bool is an int: none of
            # them is a deadline asyncio.wait_for can enforce.
            decode_line(b'{"id":"a","op":"map","workload":"fir","timeout_s":NaN}'),
            decode_line(
                b'{"id":"a","op":"map","workload":"fir","timeout_s":Infinity}'
            ),
            {"id": "a", "op": "map", "workload": "fir", "timeout_s": True},
        ],
    )
    def test_rejects_malformed(self, doc):
        with pytest.raises(BadRequestError):
            parse_request(doc)

    def test_admin_ops_need_no_workload(self):
        for op in ("ping", "stats", "shutdown"):
            assert parse_request({"id": "a", "op": op}).op == op


class TestErrors:
    def test_wire_round_trip_preserves_type(self):
        for exc in (
            OverloadedError("full"),
            DeadlineError("late"),
            UnmappableError("no fit"),
            BadRequestError("bad"),
        ):
            back = error_from_doc(exc.to_doc())
            assert type(back) is type(exc)
            assert str(back) == str(exc)
            assert back.retryable == exc.retryable

    def test_unknown_code_degrades_to_internal(self):
        exc = error_from_doc({"code": "???", "message": "m"})
        assert isinstance(exc, ServeError) and exc.code == "internal"
        assert error_from_doc(None).code == "internal"

    def test_response_doc_shape(self):
        ok = response_doc("1", result={"x": 1}, served={"cache": "memory"})
        assert ok["ok"] and ok["error"] is None
        bad = response_doc("1", error=OverloadedError("full").to_doc())
        assert not bad["ok"] and bad["error"]["code"] == "overloaded"
        assert bad["error"]["retryable"] is True


class TestAdmissionGate:
    def test_rejects_beyond_limit(self):
        gate = AdmissionGate(2)
        gate.admit()
        gate.admit()
        with pytest.raises(OverloadedError):
            gate.admit()
        assert gate.as_dict() == {
            "limit": 2,
            "in_service": 2,
            "admitted": 2,
            "rejected": 1,
            "peak_in_service": 2,
        }
        gate.release()
        gate.admit()  # slot freed -> admitted again
        assert gate.admitted == 3

    def test_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            AdmissionGate(0)


class TestSingleFlight:
    def test_concurrent_duplicates_share_one_compute(self):
        async def run():
            flights = SingleFlight()
            calls = []
            release = asyncio.Event()

            async def compute():
                calls.append(1)
                await release.wait()
                return "done"

            async def request():
                task, _ = flights.join("k", compute)
                return await asyncio.shield(task)

            waiters = [asyncio.ensure_future(request()) for _ in range(8)]
            await asyncio.sleep(0)  # let every waiter join
            release.set()
            results = await asyncio.gather(*waiters)
            assert results == ["done"] * 8
            assert len(calls) == 1
            assert flights.stats.leaders == 1
            assert flights.stats.followers == 7
            assert flights.stats.coalesce_rate == pytest.approx(7 / 8)
            await asyncio.sleep(0)
            assert len(flights) == 0  # settled entries are dropped

        asyncio.run(run())

    def test_sequential_requests_do_not_coalesce(self):
        async def run():
            flights = SingleFlight()

            async def compute():
                return 1

            task1, lead1 = flights.join("k", compute)
            await task1
            task2, lead2 = flights.join("k", compute)
            await task2
            assert lead1 and lead2
            assert flights.stats.leaders == 2
            assert flights.stats.followers == 0

        asyncio.run(run())

    def test_one_waiter_timeout_does_not_cancel_the_shared_task(self):
        async def run():
            flights = SingleFlight()

            async def compute():
                await asyncio.sleep(0.05)
                return "late"

            task, _ = flights.join("k", compute)
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(asyncio.shield(task), timeout=0.001)
            assert await task == "late"  # survived the waiter's deadline

        asyncio.run(run())


class TestLatencyReservoir:
    def test_percentiles(self):
        res = LatencyReservoir()
        for ms in range(1, 101):
            res.record(ms / 1000.0)
        doc = res.as_dict()
        assert doc["count"] == 100
        assert doc["p50_s"] == pytest.approx(0.050, abs=0.002)
        assert doc["p95_s"] == pytest.approx(0.095, abs=0.002)
        assert doc["p99_s"] == pytest.approx(0.099, abs=0.002)
        assert doc["max_s"] == pytest.approx(0.100)

    def test_empty_is_zero(self):
        doc = LatencyReservoir().as_dict()
        assert doc["count"] == 0 and doc["p99_s"] == 0.0

    def test_bounded_window(self):
        res = LatencyReservoir(cap=8)
        for _ in range(100):
            res.record(1.0)
        assert res.count == 100
        assert len(res._samples) == 8
