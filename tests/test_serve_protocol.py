"""Unit tests for the serve wire protocol, errors, and batching pieces."""

import asyncio
import dataclasses

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
from repro.serve.protocol import JsonLinesProtocol


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


class _Transport:
    def is_reading(self):
        return True


class _Lines(JsonLinesProtocol):
    max_line = 8

    def __init__(self):
        super().__init__()
        self.lines, self.overflows = [], 0
        self.connection_made(_Transport())

    def line_received(self, line):
        self.lines.append(bytes(line))

    def line_too_long(self):
        self.overflows += 1


class TestLineFraming:
    def test_lines_split_across_chunks_reassemble(self):
        proto = _Lines()
        for byte in b"ab\n\n  \ncdefghij\nk":
            proto.data_received(bytes([byte]))
        assert proto.lines == [b"ab", b"cdefghij"]  # blank lines skipped
        proto.data_received(b"l\nm\n")
        assert proto.lines[2:] == [b"kl", b"m"]
        assert proto.overflows == 0

    def test_max_line_excludes_the_newline(self):
        proto = _Lines()
        proto.data_received(b"12345678\n123456789\nlost\n")
        assert proto.lines == [b"12345678"] and proto.overflows == 1

    def test_unterminated_tail_past_max_line_overflows_at_once(self):
        proto = _Lines()
        proto.data_received(b"12345678")
        assert proto.overflows == 0
        proto.data_received(b"9")
        assert proto.overflows == 1 and not proto.lines

    # A read that is one whole line into an empty buffer skips the
    # buffer: the same rules must hold on that path.
    def test_single_line_read_skips_the_buffer(self):
        proto = _Lines()
        proto.data_received(memoryview(b"12345678\n"))  # as buffer_updated
        assert proto.lines == [b"12345678"] and not proto._buffer

    def test_single_oversize_line_overflows(self):
        proto = _Lines()
        proto.data_received(b"123456789\n")
        assert proto.overflows == 1 and not proto.lines
        proto.data_received(b"ok\n")
        assert proto.lines == [b"ok"]

    def test_single_blank_line_is_skipped(self):
        proto = _Lines()
        for chunk in (b"\n", b"  \t\n", b"ab\n"):
            proto.data_received(chunk)
        assert proto.lines == [b"ab"] and proto.overflows == 0

    def test_read_ending_without_a_newline_waits_for_the_rest(self):
        proto = _Lines()
        proto.data_received(b"ab")
        assert not proto.lines
        proto.data_received(b"c\n")
        proto.data_received(b"d\n")
        assert proto.lines == [b"abc", b"d"]

    def test_reading_paused_mid_read_keeps_the_rest(self):
        proto = _Pausing()
        proto.data_received(b"a\nb\n")
        assert proto.lines == [b"a"]
        proto.data_received(b"c\n")  # one whole line, but not reading
        assert proto.lines == [b"a"]
        proto.reading = True
        proto.frame()
        assert proto.lines == [b"a", b"b", b"c"]


class _Pausing(_Lines):
    """Stops reading after line ``a``, as when that line's response
    takes the transport past its high-water mark."""

    def __init__(self):
        super().__init__()
        self.reading = True
        self._transport.is_reading = lambda: self.reading

    def line_received(self, line):
        super().line_received(line)
        self.reading = line != b"a"


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
        assert parse_request(dataclasses.asdict(req)) == req

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

            leaders = []

            async def request():
                task, is_leader = flights.join("k", compute)
                leaders.append(is_leader)
                return await asyncio.shield(task)

            waiters = [asyncio.ensure_future(request()) for _ in range(8)]
            await asyncio.sleep(0)  # let every waiter join
            release.set()
            results = await asyncio.gather(*waiters)
            assert results == ["done"] * 8
            assert len(calls) == 1
            assert leaders == [True] + [False] * 7
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

    def test_window_holds_the_most_recent_samples(self):
        cap = 4
        res = LatencyReservoir(cap=cap)
        for value in range(1, cap + 4):
            res.record(float(value))
        assert sorted(res._samples) == [4.0, 5.0, 6.0, 7.0]
