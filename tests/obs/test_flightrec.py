"""Flight-recorder core: ring semantics, dumps, SIGKILL survival.

The ring tests exercise the packed-record format directly — wraparound
must evict oldest-first with an accurate dropped count, and a torn write
(a slot whose stored sequence number disagrees with its position) must be
detected and skipped, never misread. The SIGKILL test is the tentpole's
core claim made literal: a worker journals into a parent-created
shared-memory ring, dies by real ``SIGKILL`` mid-flight, and the parent
decodes everything the worker wrote — including the unmatched
rule-begin record that names what it was doing when it died.
"""

import multiprocessing
import os
import signal
import struct
import subprocess
import sys

import pytest

from repro.errors import BlackboxCorruptError
from repro.obs.blackbox import load_blackbox
from repro.obs.flightrec import (
    EV_CYCLE,
    EV_FIRE,
    EV_RULE_BEGIN,
    EV_RULE_END,
    EV_WORKER_START,
    FLIGHT_PREFIX,
    HEADER_SIZE,
    RECORD_SIZE,
    FlightRecorder,
    FlightRing,
    decode_ring,
    flight_owner_pid,
)


class TestRingRoundtrip:
    def test_append_decode_roundtrip(self):
        ring = FlightRing(capacity=64, shared=False)
        ring.append(EV_CYCLE, 1, code=0, a=3, b=7)
        ring.append(EV_FIRE, 1, code=2, a=-5, site=1)
        out = decode_ring(ring.snapshot())
        ring.close()
        assert out["seq"] == 2
        assert out["dropped"] == 0
        assert out["torn"] == 0
        recs = out["records"]
        assert [r["kind"] for r in recs] == [EV_CYCLE, EV_FIRE]
        assert recs[0]["a"] == 3 and recs[0]["b"] == 7
        assert recs[1]["a"] == -5 and recs[1]["site"] == 1
        # Timestamps are monotonic within one ring.
        assert recs[0]["ts_ns"] <= recs[1]["ts_ns"]

    def test_capacity_floor(self):
        ring = FlightRing(capacity=1, shared=False)
        try:
            assert ring._cap >= 16
        finally:
            ring.close()

    def test_shared_ring_name_embeds_owner_pid(self):
        ring = FlightRing(capacity=16, shared=True)
        try:
            if ring.name is None:
                pytest.skip("no shared memory on this platform")
            assert ring.name.startswith(FLIGHT_PREFIX)
            assert flight_owner_pid(ring.name) == os.getpid()
        finally:
            ring.close()


class TestWraparound:
    def test_oldest_records_evicted(self):
        ring = FlightRing(capacity=16, shared=False)
        for i in range(40):
            ring.append(EV_CYCLE, i, a=i)
        out = decode_ring(ring.snapshot())
        ring.close()
        assert out["seq"] == 40
        assert out["dropped"] == 24
        assert len(out["records"]) == 16
        # The survivors are exactly the newest 16, in append order.
        assert [r["a"] for r in out["records"]] == list(range(24, 40))
        assert [r["seq"] for r in out["records"]] == list(range(24, 40))


class TestTornWrites:
    def test_corrupt_slot_detected_and_skipped(self):
        ring = FlightRing(capacity=16, shared=False)
        for i in range(8):
            ring.append(EV_CYCLE, i, a=i)
        raw = bytearray(ring.snapshot())
        ring.close()
        # Smash slot 3's stored sequence number: a torn write leaves a
        # slot whose seq disagrees with its ring position.
        offset = HEADER_SIZE + 3 * RECORD_SIZE
        struct.pack_into("<Q", raw, offset, 9999)
        out = decode_ring(bytes(raw))
        assert out["torn"] == 1
        assert [r["a"] for r in out["records"]] == [0, 1, 2, 4, 5, 6, 7]

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            decode_ring(b"NOTARING" + b"\x00" * 120)


class TestAttach:
    def test_attach_continues_sequence(self):
        ring = FlightRing(capacity=32, shared=True)
        if ring.name is None:
            ring.close()
            pytest.skip("no shared memory on this platform")
        try:
            ring.append(EV_CYCLE, 1)
            # A respawned worker attaches to its predecessor's ring and
            # keeps appending where it stopped (single writer at a time).
            other = FlightRing.attach(ring.name)
            assert other.seq == 1
            other.append(EV_CYCLE, 2)
            other.append(EV_CYCLE, 3)
            other.close()  # attached: must NOT unlink the segment
            out = decode_ring(ring.snapshot())
            assert out["seq"] == 3
            assert out["torn"] == 0
            assert [r["cycle"] for r in out["records"]] == [1, 2, 3]
        finally:
            ring.close()


class TestRecorderDump:
    def test_dump_load_roundtrip(self, tmp_path):
        rec = FlightRecorder(rule_names=["r1", "r2"], capacity=64)
        rec.record(EV_FIRE, 1, code=rec.rule_id("r2"), a=1000)
        path = str(tmp_path / "t.blackbox")
        rec.dump(path, reason="test", info={"k": "v"})
        rec.close()
        bb = load_blackbox(path)
        assert bb.reason == "test"
        assert bb.header["info"]["k"] == "v"
        assert bb.rules == ["r1", "r2"]
        fires = [r for r in bb.main.records if r["kind"] == EV_FIRE]
        assert len(fires) == 1
        assert bb.rule_name(fires[0]["code"]) == "r2"

    def test_truncated_dump_raises_corrupt_error(self, tmp_path):
        rec = FlightRecorder(rule_names=["r"], capacity=64)
        path = str(tmp_path / "t.blackbox")
        rec.dump(path)
        rec.close()
        size = os.path.getsize(path)
        for cut in (4, size // 2, size - 8):
            clipped = str(tmp_path / f"cut{cut}.blackbox")
            with open(path, "rb") as src, open(clipped, "wb") as dst:
                dst.write(src.read(cut))
            with pytest.raises(BlackboxCorruptError):
                load_blackbox(clipped)

    def test_rule_id_interns_dynamically(self):
        rec = FlightRecorder(rule_names=["a"], capacity=64)
        try:
            known = rec.rule_id("a")
            fresh = rec.rule_id("later")
            assert rec.rule_id("later") == fresh  # stable
            assert fresh != known
            assert rec.manifest()["rules"][fresh] == "later"
        finally:
            rec.close()

    def test_in_process_engine_starts_no_helper_process(self):
        """The engine's own ring is not a segment, so a default run never
        starts the stdlib resource tracker — a second interpreter that
        would boot beside the first cycles and share their CPU. A fresh
        interpreter, because any earlier test may have started one here."""
        code = (
            "from multiprocessing import resource_tracker\n"
            "from repro.core import ParulelEngine\n"
            "from repro.lang.parser import parse_program\n"
            "with ParulelEngine(parse_program(\n"
            "    '(literalize a k) (p r (a ^k 1) --> (make a ^k 2))'\n"
            ")) as engine:\n"
            "    engine.wm.make('a', k=1)\n"
            "    engine.run()\n"
            "    assert engine.flightrec.ring.seq > 0\n"
            "    assert engine.flightrec.ring.name is None\n"
            "    assert resource_tracker._resource_tracker._pid is None\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": "src"},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr


def _ring_writer_child(name: str) -> None:  # pragma: no cover - child proc
    ring = FlightRing.attach(name)
    ring.append(EV_WORKER_START, 0, a=os.getpid())
    ring.append(EV_RULE_BEGIN, 1, code=1)
    ring.append(EV_RULE_END, 1, code=1, a=4)
    ring.append(EV_RULE_BEGIN, 2, code=2)  # in flight at the kill
    os.kill(os.getpid(), signal.SIGSTOP)  # freeze until the parent kills


class TestSIGKILLSurvival:
    @pytest.mark.timeout(60)
    def test_parent_decodes_ring_after_worker_sigkill(self):
        if not hasattr(signal, "SIGSTOP"):
            pytest.skip("needs SIGSTOP/SIGKILL")
        ring = FlightRing(capacity=64, shared=True)
        if ring.name is None:
            ring.close()
            pytest.skip("no shared memory on this platform")
        try:
            ctx = multiprocessing.get_context(
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else "spawn"
            )
            proc = ctx.Process(target=_ring_writer_child, args=(ring.name,))
            proc.start()
            # Wait until the child has written all four records, then
            # SIGKILL it — no cleanup of any kind runs in the child.
            import time as _time

            deadline = _time.monotonic() + 30.0
            while decode_ring(ring.snapshot())["seq"] < 4:
                if not proc.is_alive():  # pragma: no cover - child crashed
                    pytest.fail("ring-writer child died early")
                if _time.monotonic() > deadline:  # pragma: no cover
                    proc.kill()
                    proc.join()
                    pytest.fail("child never wrote its records")
                _time.sleep(0.005)
            proc.kill()
            proc.join()
            out = decode_ring(ring.snapshot())
            assert out["seq"] == 4
            assert out["torn"] == 0
            kinds = [r["kind"] for r in out["records"]]
            assert kinds == [
                EV_WORKER_START,
                EV_RULE_BEGIN,
                EV_RULE_END,
                EV_RULE_BEGIN,
            ]
            # The unmatched BEGIN is the post-mortem "what was it doing".
            begins = [r for r in out["records"] if r["kind"] == EV_RULE_BEGIN]
            ends = {r["code"] for r in out["records"] if r["kind"] == EV_RULE_END}
            assert begins[-1]["code"] == 2 and 2 not in ends
        finally:
            ring.close()


class TestFireRecords:
    def test_one_record_per_rule_batch_on_tc_48x20(self, tmp_path):
        """tc over 48 chains of 20 edges fires 10,080 times in 20 cycles:
        one ``fire`` record per (cycle, rule that fired), their firing
        counts summing to every firing, and cycle 1 still in the ring."""
        import re

        from repro.core import ParulelEngine
        from repro.programs.tc import tc_program

        engine = ParulelEngine(tc_program())
        for chain in range(48):
            for i in range(20):
                src, dst = chain * 21 + i, chain * 21 + i + 1
                engine.make("edge", {"src": f"n{src}", "dst": f"n{dst}"})
        fired = set()
        engine.trace = lambda report: fired.update(
            (report.cycle, rule)
            for rule, _ts in engine.fired_log[len(engine.fired_log) - report.fired:]
        )
        result = engine.run()
        assert (result.cycles, result.firings) == (20, 10080)
        path = str(tmp_path / "tc.blackbox")
        engine.dump_blackbox(path)
        engine.close()
        bb = load_blackbox(path)
        fires = [r for r in bb.main.records if r["kind"] == EV_FIRE]
        batches = [(r["cycle"], bb.rule_name(r["code"])) for r in fires]
        assert len(batches) == len(set(batches))
        assert set(batches) == fired
        assert sum(r["b"] for r in fires) == 10080
        assert min(cycle for cycle, _rule in batches) == 1
        assert any(r["kind"] == EV_CYCLE and r["cycle"] == 1 for r in bb.main.records)
        assert re.fullmatch(
            r"fire tc-extend ×\d+ \(\d+\.\d{3}ms\)", bb.describe(fires[-1])
        )
