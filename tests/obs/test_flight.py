"""Flight recorder: ring semantics, gated dumps, tracer mirroring."""

from __future__ import annotations

import io
import json

from repro.obs import FLIGHT_DIR_ENV, FlightRecorder, Tracer, dump_flight, \
    get_flight


class TestRing:
    def test_record_stamps_and_bounds(self):
        flight = FlightRecorder(capacity=4)
        for index in range(10):
            flight.record("tick", "unit", index=index)
        assert len(flight) == 4
        events = list(flight._ring)
        assert [e["index"] for e in events] == [6, 7, 8, 9]
        assert all(e["pid"] == flight.pid for e in events)
        assert events[-1]["seq"] == 9
        assert events[-1]["kind"] == "tick" and events[-1]["name"] == "unit"


class TestDump:
    def test_unarmed_dump_is_noop(self, monkeypatch, tmp_path):
        monkeypatch.delenv(FLIGHT_DIR_ENV, raising=False)
        flight = FlightRecorder()
        flight.record("tick", "unit")
        assert flight.dump("test") is None
        assert list(tmp_path.iterdir()) == []

    def test_armed_dump_writes_header_and_events(self, monkeypatch, tmp_path):
        monkeypatch.setenv(FLIGHT_DIR_ENV, str(tmp_path))
        flight = FlightRecorder()
        flight.record("fault_injected", "fig07", kind_detail="crash")
        path = flight.dump("fault-crash:fig07")
        assert path is not None and path.exists()
        header, event = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert header["flight_meta"] is True and header["schema"] == 1
        assert header["reason"] == "fault-crash:fig07"
        assert header["events"] == 1
        assert event["kind"] == "fault_injected" and event["name"] == "fig07"

    def test_repeat_dumps_get_numbered_suffixes(self, monkeypatch, tmp_path):
        monkeypatch.setenv(FLIGHT_DIR_ENV, str(tmp_path))
        flight = FlightRecorder()
        flight.record("tick", "unit")
        first = flight.dump("one")
        second = flight.dump("two")
        assert first != second
        assert first.name == f"flight-{flight.pid}.jsonl"
        assert second.name == f"flight-{flight.pid}-1.jsonl"

    def test_module_level_dump(self, monkeypatch, tmp_path):
        monkeypatch.setenv(FLIGHT_DIR_ENV, str(tmp_path))
        get_flight().record("tick", "unit")
        path = dump_flight("module")
        assert path is not None and path.exists()


class TestTracerMirroring:
    def test_traced_spans_land_in_the_ring(self):
        flight = get_flight()
        sink = io.StringIO()
        tracer = Tracer(sink=sink)
        with tracer.span("mirrored", attrs={"unit": True}):
            pass
        tracer.close()
        mirrored = [
            e for e in list(flight._ring)
            if e.get("name") == "mirrored"
        ]
        # span_start + span_end both mirrored, as the newest events (the
        # process-wide ring may already be full, so its length need not
        # grow).
        assert len(mirrored) == 2
        assert list(flight._ring)[-2:] == mirrored


class TestGetFlight:
    def test_singleton_per_process(self):
        assert get_flight() is get_flight()
