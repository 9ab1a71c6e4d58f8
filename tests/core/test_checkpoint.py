"""Engine checkpoint/resume: byte-identical continuation of a run."""

import json

import pytest

from repro.core import EngineConfig, ParulelEngine
from repro.core.engine import CHECKPOINT_VERSION
from repro.errors import CycleLimitExceeded, ExecutionError, WorkingMemoryError
from repro.lang.parser import parse_program
from repro.resilience.checkpoint import write_envelope

COUNTER = """
(literalize count value)
(literalize audit value)
(p bump
    (count ^value {<v> < 10})
    -->
    (modify 1 ^value (compute <v> + 1))
    (make audit ^value <v>))
"""

META = """
(literalize job id size)
(literalize done id)
(p finish (job ^id <i> ^size <s>) --> (remove 1) (make done ^id <i>))
(mp largest-first
    (instantiation ^rule finish ^id <a> ^s <s1>)
    (instantiation ^rule finish ^id {<b> <> <a>} ^s < <s1>)
    -->
    (redact <b>))
"""


def wm_bytes(engine):
    return [repr(w) for w in engine.wm.snapshot()]


def fresh(src=COUNTER, **facts_kw):
    engine = ParulelEngine(parse_program(src))
    return engine


class TestCheckpointDict:
    def test_round_trips_through_json(self):
        e = fresh()
        e.make("count", value=0)
        e.step()
        state = e.checkpoint()
        assert state == json.loads(json.dumps(state))
        assert state["version"] == CHECKPOINT_VERSION
        assert state["cycle"] == 1

    def test_captures_wm_timestamps_exactly(self):
        e = fresh()
        e.make("count", value=0)
        for _ in range(2):
            e.step()
        state = e.checkpoint()
        stored = {
            (c, tuple(sorted(a.items())), t)
            for c, a, t in state["wm"]["records"]
        }
        live = {
            (w.class_name, tuple(sorted(w.attributes.items())), w.timestamp)
            for w in e.wm.snapshot()
        }
        assert stored == live

    def test_delta_log_matches_cycles(self):
        e = fresh()
        e.make("count", value=0)
        for _ in range(3):
            e.step()
        state = e.checkpoint()
        assert len(state["delta_log"]) == 3
        # Every cycle: one remove (the modify) and two makes.
        for removed, made in state["delta_log"]:
            assert len(removed) == 1
            assert len(made) == 2


class TestResume:
    def test_resumed_run_is_byte_identical(self):
        ref = fresh()
        ref.make("count", value=0)
        ref_result = ref.run()

        e = fresh()
        e.make("count", value=0)
        for _ in range(4):
            e.step()
        state = json.loads(json.dumps(e.checkpoint()))
        del e

        resumed = ParulelEngine.restore(parse_program(COUNTER), state)
        result = resumed.run()
        assert resumed.cycle == ref.cycle
        assert result.cycles == ref_result.cycles - 4
        assert wm_bytes(resumed) == wm_bytes(ref)
        assert resumed.output == ref.output
        assert resumed.fired == ref.fired
        assert len(resumed.delta_log) == len(ref.delta_log)

    def test_refraction_survives_restore(self):
        # A restored engine must not re-fire instantiations the original
        # already fired: at quiescence, restore + run = zero cycles.
        e = fresh()
        e.make("count", value=0)
        e.run()
        state = e.checkpoint()
        resumed = ParulelEngine.restore(parse_program(COUNTER), state)
        assert resumed.run().cycles == 0

    def test_resume_with_meta_rules(self):
        prog = parse_program(META)
        ref = ParulelEngine(prog)
        for i, size in enumerate([3, 9, 5, 7]):
            ref.make("job", id=f"j{i}", size=size)
        ref_result = ref.run()

        e = ParulelEngine(prog)
        for i, size in enumerate([3, 9, 5, 7]):
            e.make("job", id=f"j{i}", size=size)
        e.step()
        e.step()
        state = json.loads(json.dumps(e.checkpoint()))
        resumed = ParulelEngine.restore(prog, state)
        resumed.run()
        assert resumed.cycle == ref.cycle
        assert wm_bytes(resumed) == wm_bytes(ref)
        assert ref_result.cycles == 4  # meta forces one firing per cycle

    def test_halted_flag_restored(self):
        src = """
        (literalize tick n)
        (p stop (tick ^n 1) --> (halt))
        """
        e = ParulelEngine(parse_program(src))
        e.make("tick", n=1)
        e.run()
        assert e.halted
        resumed = ParulelEngine.restore(parse_program(src), e.checkpoint())
        assert resumed.halted
        assert resumed.step() is None

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        e = fresh()
        e.make("count", value=0)
        e.step()
        write_envelope(path, e.checkpoint())
        resumed = ParulelEngine.restore(parse_program(COUNTER), path)
        resumed.run()
        ref = fresh()
        ref.make("count", value=0)
        ref.run()
        assert wm_bytes(resumed) == wm_bytes(ref)

    def test_version_mismatch_rejected(self):
        e = fresh()
        state = e.checkpoint()
        state["version"] = CHECKPOINT_VERSION + 1
        with pytest.raises(ExecutionError, match="version"):
            ParulelEngine.restore(parse_program(COUNTER), state)

    def test_restore_accepts_config(self):
        e = fresh()
        e.make("count", value=0)
        e.step()
        resumed = ParulelEngine.restore(
            parse_program(COUNTER),
            e.checkpoint(),
            EngineConfig(matcher="treat"),
        )
        assert resumed.matcher.name == "treat"
        resumed.run()
        ref = fresh()
        ref.make("count", value=0)
        ref.run()
        assert wm_bytes(resumed) == wm_bytes(ref)


class TestCycleLimitPartialState:
    def test_partial_state_attached(self):
        src = """
        (literalize tick n)
        (p forever (tick ^n <n>) --> (modify 1 ^n (compute <n> + 1)))
        """
        e = ParulelEngine(parse_program(src))
        e.make("tick", n=0)
        with pytest.raises(CycleLimitExceeded) as excinfo:
            e.run(max_cycles=5)
        exc = excinfo.value
        assert exc.cycles_completed == 5
        assert exc.firings == 5
        assert exc.last_report is not None
        assert exc.last_report.cycle == 5
        assert exc.partial is not None
        assert exc.partial.reason == "cycle-limit"
        assert exc.partial.cycles == 5
        assert len(exc.partial.reports) == 5
        # The work is preserved: the engine can checkpoint and continue.
        assert e.wm.find("tick", n=5)
        state = e.checkpoint()
        resumed = ParulelEngine.restore(parse_program(src), state)
        with pytest.raises(CycleLimitExceeded) as again:
            resumed.run(max_cycles=3)
        assert again.value.cycles_completed == 3
        assert resumed.wm.find("tick", n=8)


class TestWorkingMemoryRecords:
    def test_load_records_requires_empty_store(self):
        e = fresh()
        e.make("count", value=0)
        records, next_ts = e.wm.dump_records()
        with pytest.raises(WorkingMemoryError):
            e.wm.load_records(records, next_ts)

    def test_bad_next_timestamp_rejected(self):
        e = fresh()
        e.make("count", value=0)
        records, _ = e.wm.dump_records()
        fresh_engine = fresh()
        with pytest.raises(WorkingMemoryError):
            fresh_engine.wm.load_records(records, next_timestamp=1)
