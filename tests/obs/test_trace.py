"""Tracer unit tests: spans, lanes, ingestion, Chrome export validity."""

import json
import threading

import pytest

from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    validate_chrome_trace,
)


class TestRecording:
    def test_span_records_b_e_pair(self):
        tracer = Tracer()
        with tracer.span("match", lane="engine", cycle=1):
            pass
        events = tracer.events()
        assert [(ph, name, lane) for ph, name, lane, _ts, _a in events] == [
            ("B", "match", "engine"),
            ("E", "match", "engine"),
        ]
        assert events[0][4] == {"cycle": 1}
        assert events[1][3] >= events[0][3]

    def test_spans_nest(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        phases = [e[0] for e in tracer.events()]
        names = [e[1] for e in tracer.events()]
        assert phases == ["B", "B", "E", "E"]
        assert names == ["outer", "inner", "inner", "outer"]

    def test_instant(self):
        tracer = Tracer()
        tracer.instant("kill", lane="worker-1", detail="injected")
        (event,) = tracer.events()
        assert event[0] == "i"
        assert event[2] == "worker-1"
        assert event[4] == {"detail": "injected"}

    def test_each_closed_span_records_one_end_event(self):
        tracer = Tracer()
        with tracer.span("match"):
            pass
        with tracer.span("match"):
            pass
        ends = [e for e in tracer.events() if e[0] == "E" and e[1] == "match"]
        assert len(ends) == 2
        begins = [e for e in tracer.events() if e[0] == "B"]
        assert all(b[3] <= e[3] for b, e in zip(begins, ends))

    def test_lanes_in_first_seen_order_and_declare_lane(self):
        tracer = Tracer()
        tracer.declare_lane("site-0")
        tracer.declare_lane("site-1")
        tracer.instant("x", lane="network")
        tracer.instant("y", lane="site-0")
        assert tracer.lanes() == ["site-0", "site-1", "network"]


class TestIngestion:
    def test_ingest_rewrites_lane_and_preserves_args(self):
        worker = Tracer()
        with worker.span("match", lane="worker", rules=3):
            pass
        shipped = worker.drain_events()
        assert worker.events() == []

        parent = Tracer()
        parent.ingest(shipped, lane="worker-2")
        events = parent.events()
        assert {e[2] for e in events} == {"worker-2"}
        assert events[0][4] == {"rules": 3}
        assert [e[0] for e in events] == ["B", "E"]

    def test_ingest_keeps_original_lane_when_not_rewritten(self):
        worker = Tracer()
        worker.instant("kill", lane="site-3")
        parent = Tracer()
        parent.ingest(worker.drain_events())
        assert parent.lanes() == ["site-3"]


class TestChromeExport:
    def test_export_validates_and_names_lanes(self):
        tracer = Tracer()
        with tracer.span("run", lane="engine"):
            with tracer.span("match", lane="engine"):
                pass
        tracer.instant("kill", lane="worker-0")
        doc = tracer.to_chrome()
        validate_chrome_trace(doc)
        thread_names = {
            e["tid"]: e["args"]["name"]
            for e in doc["traceEvents"]
            if e["name"] == "thread_name"
        }
        assert set(thread_names.values()) == {"engine", "worker-0"}

    def test_tied_timestamps_become_strictly_increasing(self):
        # A frozen clock produces all-equal stamps; export must still
        # satisfy the strict per-lane ordering Perfetto expects.
        tracer = Tracer(clock=lambda: 1_000_000)
        for _ in range(5):
            with tracer.span("zero", lane="engine"):
                pass
        doc = tracer.to_chrome()
        validate_chrome_trace(doc)
        ts = [e["ts"] for e in doc["traceEvents"] if e["ph"] != "M"]
        assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_write_chrome_and_jsonl(self, tmp_path):
        tracer = Tracer()
        with tracer.span("match", lane="engine", cycle=1):
            pass
        chrome = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        tracer.write_chrome(str(chrome))
        tracer.write_jsonl(str(jsonl))

        validate_chrome_trace(json.loads(chrome.read_text()))
        lines = [json.loads(l) for l in jsonl.read_text().splitlines()]
        assert [l["ph"] for l in lines] == ["B", "E"]
        assert lines[0]["lane"] == "engine"
        assert lines[0]["args"] == {"cycle": 1}


class TestValidation:
    def test_rejects_non_document(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({"events": []})

    def test_rejects_unmatched_end(self):
        doc = {
            "traceEvents": [
                {"name": "x", "ph": "E", "ts": 1.0, "pid": 1, "tid": 1}
            ]
        }
        with pytest.raises(ValueError, match="no open span"):
            validate_chrome_trace(doc)

    def test_rejects_mismatched_names(self):
        doc = {
            "traceEvents": [
                {"name": "a", "ph": "B", "ts": 1.0, "pid": 1, "tid": 1},
                {"name": "b", "ph": "E", "ts": 2.0, "pid": 1, "tid": 1},
            ]
        }
        with pytest.raises(ValueError, match="does not match"):
            validate_chrome_trace(doc)

    def test_rejects_unclosed_span(self):
        doc = {
            "traceEvents": [
                {"name": "a", "ph": "B", "ts": 1.0, "pid": 1, "tid": 1}
            ]
        }
        with pytest.raises(ValueError, match="unclosed"):
            validate_chrome_trace(doc)

    def test_rejects_non_increasing_timestamps(self):
        doc = {
            "traceEvents": [
                {"name": "a", "ph": "i", "ts": 2.0, "pid": 1, "tid": 1},
                {"name": "b", "ph": "i", "ts": 2.0, "pid": 1, "tid": 1},
            ]
        }
        with pytest.raises(ValueError, match="strictly greater"):
            validate_chrome_trace(doc)


class TestNullTracer:
    def test_null_is_free_and_inert(self):
        null = NullTracer()
        with null.span("anything", lane="x", arg=1):
            null.instant("nothing")
        assert null.events() == []
        assert null.lanes() == []
        assert null.drain_events() == []
        assert not null.enabled
        # The span handle is one shared instance — no per-call allocation.
        assert null.span("a") is null.span("b") is NULL_TRACER.span("c")


class TestThreadSafety:
    def test_concurrent_spans_from_eight_threads(self):
        tracer = Tracer()
        n_threads, spans_each = 8, 200

        def work(lane_idx: int) -> None:
            lane = f"thread-{lane_idx}"
            for i in range(spans_each):
                with tracer.span("work", lane=lane, i=i):
                    pass

        threads = [
            threading.Thread(target=work, args=(t,)) for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        events = tracer.events()
        assert len(events) == n_threads * spans_each * 2
        ends = [e for e in events if e[0] == "E" and e[1] == "work"]
        assert len(ends) == n_threads * spans_each
        # Per-lane streams stay well-formed B/E sequences and the export
        # contract (strictly increasing ts, matched pairs) holds.
        validate_chrome_trace(tracer.to_chrome())
