"""Error-path and edge-case tests for the execution core."""

import pytest

from repro.errors import CycleLimitExceeded, ExecutionError
from repro.core import EngineConfig, ParulelEngine
from repro.core.redaction import MetaLevel
from repro.lang.parser import parse_program
from repro.match.interface import PoolConfig
from repro.lab import DistributedMachine, SimMachine


class TestMetaLevelLimits:
    def test_meta_cycle_limit(self):
        # A meta program that keeps matching fresh pairs forever cannot be
        # built easily (reifications are fixed per phase), so exercise the
        # limit with max_meta_cycles=0: any meta activity then overflows.
        src = """
        (literalize req name)
        (p grant (req ^name <n>) --> (remove 1))
        (mp noisy (instantiation ^rule grant ^id <i>) --> (write seen <i>))
        """
        engine = ParulelEngine(
            parse_program(src), EngineConfig(max_meta_cycles=0)
        )
        engine.make("req", name="a")
        with pytest.raises(ExecutionError, match="redaction\\s+cycles"):
            engine.run()

    def test_meta_rules_with_writes_only_terminate(self):
        # Refraction alone must end the phase when nothing is redacted.
        src = """
        (literalize req name)
        (p grant (req ^name <n>) --> (remove 1))
        (mp noisy (instantiation ^rule grant ^id <i>) --> (write meta <i>))
        """
        engine = ParulelEngine(parse_program(src))
        engine.make("req", name="a")
        engine.make("req", name="b")
        result = engine.run()
        assert result.cycles == 1
        assert sorted(result.output) == ["meta 1", "meta 2"]

    def test_meta_halt_stops_engine(self):
        src = """
        (literalize req name)
        (p grant (req ^name <n>) --> (remove 1))
        (mp panic (instantiation ^rule grant ^id <i> ^n stop) --> (halt) (redact <i>))
        """
        engine = ParulelEngine(parse_program(src))
        engine.make("req", name="ok")
        engine.make("req", name="stop")
        result = engine.run()
        assert result.reason == "halt"
        # The 'stop' request was redacted, 'ok' fired in the same cycle.
        names = sorted(w.get("name") for w in engine.wm.by_class("req"))
        assert names == ["stop"]


class TestEngineEdges:
    def test_redaction_quiescence_reported(self):
        src = """
        (literalize req name)
        (p grant (req ^name <n>) --> (remove 1))
        (mp veto (instantiation ^rule grant ^id <i>) --> (redact <i>))
        """
        engine = ParulelEngine(parse_program(src))
        engine.make("req", name="a")
        result = engine.run()
        assert result.reason == "redaction-quiescence"
        assert engine.wm.count_class("req") == 1  # nothing fired
        # Further steps are no-ops.
        assert engine.step() is None

    def test_run_after_halt_is_noop(self):
        src = """
        (literalize f n)
        (p stop (f ^n <n>) --> (halt))
        """
        engine = ParulelEngine(parse_program(src))
        engine.make("f", n=1)
        first = engine.run()
        assert first.reason == "halt"
        second = engine.run()
        assert second.cycles == 0

    def test_unknown_matcher_rejected(self):
        from repro.match.interface import create_matcher
        from repro.wm.memory import WorkingMemory

        with pytest.raises(ValueError, match="unknown match engine"):
            create_matcher("magic", [], WorkingMemory())

    def test_bad_interference_policy_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(interference="panic")

    @pytest.mark.parametrize("timeout", [0, -1.0, float("nan"), float("inf")])
    def test_matcher_timeout_must_be_finite_and_positive(self, timeout):
        # A NaN or infinite reply deadline never expires: a wedged worker
        # would hang the parent.
        with pytest.raises(ValueError, match="finite number > 0"):
            PoolConfig(timeout=timeout)

    @pytest.mark.parametrize("field", ["max_cycles", "max_meta_cycles"])
    def test_negative_limits_rejected(self, field):
        # A negative limit would only surface as a failed first run.
        with pytest.raises(ValueError, match=f"{field} must be >= 0, got -1"):
            EngineConfig(**{field: -1})
        assert getattr(EngineConfig(**{field: 0}), field) == 0


class TestSubstrateLimits:
    LOOP = """
    (literalize tick n)
    (p forever (tick ^n <n>) --> (modify 1 ^n (compute <n> + 1)))
    """

    def test_simmachine_cycle_limit(self):
        sm = SimMachine(parse_program(self.LOOP), 2)
        sm.make("tick", n=0)
        with pytest.raises(CycleLimitExceeded):
            sm.run(max_cycles=5)

    def test_distributed_cycle_limit(self):
        dm = DistributedMachine(parse_program(self.LOOP), 2)
        dm.make("tick", n=0)
        with pytest.raises(CycleLimitExceeded):
            dm.run(max_cycles=5)

    def test_distributed_halt(self):
        src = """
        (literalize f n)
        (p stop (f ^n <n>) --> (write stopping) (halt))
        """
        dm = DistributedMachine(parse_program(src), 3)
        dm.make("f", n=1)
        res = dm.run()
        assert res.reason == "halt"
        assert res.output == ["stopping"]

    def test_distributed_redaction_quiescence(self):
        src = """
        (literalize req name)
        (p grant (req ^name <n>) --> (remove 1))
        (mp veto (instantiation ^rule grant ^id <i>) --> (redact <i>))
        """
        dm = DistributedMachine(parse_program(src), 2)
        dm.make("req", name="a")
        res = dm.run()
        assert res.reason == "redaction-quiescence"
