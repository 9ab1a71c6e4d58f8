"""Integration-level tests of the PARULEL engine's cycle semantics."""

import pytest

from repro.errors import CycleLimitExceeded, InterferenceError
from repro.core import EngineConfig, ParulelEngine
from repro.lang.parser import parse_program


def engine_for(src, **config):
    return ParulelEngine(parse_program(src), EngineConfig(**config))


COUNTER = """
(literalize count value)
(p bump
    (count ^value {<v> < 3})
    -->
    (modify 1 ^value (compute <v> + 1)))
"""


class TestBasicCycle:
    def test_quiescence(self):
        e = engine_for(COUNTER)
        e.make("count", value=0)
        result = e.run()
        assert result.reason == "quiescence"
        assert result.cycles == 3
        assert e.wm.find("count", value=3)

    def test_empty_wm_is_immediately_quiescent(self):
        e = engine_for(COUNTER)
        result = e.run()
        assert result.cycles == 0
        assert result.reason == "quiescence"

    def test_step_returns_none_at_quiescence(self):
        e = engine_for(COUNTER)
        e.make("count", value=2)
        assert e.step() is not None
        assert e.step() is None
        assert e.step() is None

    def test_halt_stops_the_run(self):
        src = """
        (literalize tick n)
        (p forever (tick ^n <n>) --> (modify 1 ^n (compute <n> + 1)))
        (p stop (salience 10) (tick ^n 5) --> (halt))
        """
        e = engine_for(src)
        e.make("tick", n=0)
        result = e.run()
        assert result.reason == "halt"
        assert e.wm.find("tick", n=5) or e.wm.find("tick", n=6)

    def test_cycle_limit_raises(self):
        src = """
        (literalize tick n)
        (p forever (tick ^n <n>) --> (modify 1 ^n (compute <n> + 1)))
        """
        e = engine_for(src)
        e.make("tick", n=0)
        with pytest.raises(CycleLimitExceeded):
            e.run(max_cycles=10)

    def test_refraction_prevents_refiring(self):
        # A rule whose RHS does not change its own match would loop without
        # refraction; with it, the instantiation fires exactly once.
        src = """
        (literalize fact name)
        (literalize note text)
        (p observe (fact ^name <n>) --> (make note ^text <n>))
        """
        e = engine_for(src)
        e.make("fact", name="a")
        result = e.run()
        assert result.cycles == 1
        assert e.wm.count_class("note") == 1


class TestSetOrientedSemantics:
    def test_all_instantiations_fire_in_one_cycle(self):
        src = """
        (literalize fact n)
        (literalize double n)
        (p dbl (fact ^n <n>) --> (make double ^n (compute <n> * 2)))
        """
        e = engine_for(src)
        for i in range(10):
            e.make("fact", n=i)
        result = e.run()
        assert result.cycles == 1
        assert result.firings == 10
        assert e.wm.count_class("double") == 10

    def test_firings_see_snapshot_not_each_other(self):
        # Both swap directions read the pre-firing values: a<->b swap works
        # only because RHS evaluation happens against the snapshot.
        src = """
        (literalize cell name val)
        (p order-ab
            (cell ^name a ^val <x>)
            (cell ^name b ^val {<y> < <x>})
            -->
            (modify 1 ^val <y>)
            (modify 2 ^val <x>))
        """
        e = engine_for(src)
        e.make("cell", name="a", val=2)
        e.make("cell", name="b", val=1)
        result = e.run(max_cycles=5)
        assert result.cycles == 1  # one swap, then ordered -> quiescent
        assert e.wm.find("cell", name="a")[0].get("val") == 1
        assert e.wm.find("cell", name="b")[0].get("val") == 2

    def test_interference_error_is_default(self):
        src = """
        (literalize req n)
        (literalize slot owner)
        (p claim (req ^n <n>) (slot ^owner nil) --> (modify 2 ^owner <n>))
        """
        e = engine_for(src)
        e.make("req", n="a")
        e.make("req", n="b")
        e.make("slot", owner="nil")
        with pytest.raises(InterferenceError, match="meta-rule"):
            e.run()

    def test_interference_first_policy_resolves(self):
        src = """
        (literalize req n)
        (literalize slot owner)
        (p claim (req ^n <n>) (slot ^owner nil) --> (modify 2 ^owner <n>))
        """
        e = engine_for(src, interference="first")
        e.make("req", n="a")
        e.make("req", n="b")
        e.make("slot", owner="nil")
        result = e.run()
        assert result.reports[0].conflicts_resolved == 1
        owner = e.wm.by_class("slot")[0].get("owner")
        assert owner == "a"  # conflict-set order is deterministic

    def test_dedupe_makes_in_cycle(self):
        src = """
        (literalize pair a b)
        (literalize mark x)
        (p tag (pair ^a <a>) --> (make mark ^x done))
        """
        e = engine_for(src, dedupe_makes=True)
        e.make("pair", a=1)
        e.make("pair", a=2)
        result = e.run()
        assert e.wm.count_class("mark") == 1
        assert result.reports[0].makes_deduped == 1

    def test_dedupe_off_duplicates(self):
        src = """
        (literalize pair a b)
        (literalize mark x)
        (p tag (pair ^a <a>) --> (make mark ^x done))
        """
        e = engine_for(src, dedupe_makes=False)
        e.make("pair", a=1)
        e.make("pair", a=2)
        e.run()
        assert e.wm.count_class("mark") == 2


class TestReportsAndOutput:
    def test_cycle_reports_recorded(self):
        e = engine_for(COUNTER)
        e.make("count", value=0)
        result = e.run()
        assert len(result.reports) == 3
        assert [r.cycle for r in result.reports] == [1, 2, 3]
        assert all(r.fired == 1 for r in result.reports)

    def test_writes_collected_in_output(self):
        src = """
        (literalize f n)
        (p w (f ^n <n>) --> (write saw <n>))
        """
        e = engine_for(src)
        e.make("f", n=1)
        e.make("f", n=2)
        result = e.run()
        assert sorted(result.output) == ["saw 1", "saw 2"]

    def test_trace_callback_invoked(self):
        seen = []
        e = ParulelEngine(parse_program(COUNTER), trace=seen.append)
        e.make("count", value=1)
        e.run()
        assert [r.cycle for r in seen] == [1, 2]

    def test_mean_firing_set(self):
        src = """
        (literalize f n)
        (literalize g n)
        (p w (f ^n <n>) --> (make g ^n <n>))
        """
        e = engine_for(src)
        for i in range(4):
            e.make("f", n=i)
        result = e.run()
        assert result.mean_firing_set == 4.0
        assert result.firing_set_sizes == [4]

    def test_phase_times_accumulate(self):
        e = engine_for(COUNTER)
        e.make("count", value=0)
        result = e.run()
        for phase in ("collect", "redact", "evaluate", "apply"):
            assert phase in result.phase_times

    def test_run_twice_counts_separately(self):
        e = engine_for(COUNTER)
        e.make("count", value=0)
        first = e.run()
        assert first.cycles == 3
        # Re-arm with a fresh counter; previous refraction must not block.
        e.make("count", value=1)
        second = e.run()
        assert second.cycles == 2
        assert second.firings == 2


class TestHostFunctions:
    def test_call_via_engine(self):
        seen = []
        src = """
        (literalize f n)
        (p c (f ^n <n>) --> (call collect <n>))
        """
        e = ParulelEngine(
            parse_program(src), host_functions={"collect": lambda n: seen.append(n)}
        )
        e.make("f", n=7)
        e.run()
        assert seen == [7]

    def test_register_function(self):
        seen = []
        src = """
        (literalize f n)
        (p c (f ^n <n>) --> (call collect <n>))
        """
        e = ParulelEngine(parse_program(src))
        e.register_function("collect", seen.append)
        e.make("f", n=1)
        e.run()
        assert seen == [1]


class TestRemoveSemantics:
    def test_remove_action(self):
        src = """
        (literalize junk n)
        (p clean (junk ^n <n>) --> (remove 1))
        """
        e = engine_for(src)
        for i in range(5):
            e.make("junk", n=i)
        result = e.run()
        assert result.cycles == 1
        assert e.wm.count_class("junk") == 0

    def test_conflict_set_view(self):
        e = engine_for(COUNTER)
        e.make("count", value=0)
        assert len(e.conflict_set()) == 1
        e.run()
        assert e.conflict_set() == []


WRITER = """
(literalize count value)
(p bump
    (count ^value {<v> < 2})
    -->
    (write bump <v>)
    (modify 1 ^value (compute <v> + 1)))
"""


class TestRepeatedRunOutput:
    def test_second_run_reports_only_its_own_output(self):
        # Regression: RunResult.output used to be the engine's cumulative
        # output, while reports/cycles/firings were sliced per run.
        e = engine_for(WRITER)
        e.make("count", value=0)
        first = e.run()
        assert first.output == ["bump 0", "bump 1"]

        e.make("count", value=0)
        second = e.run()
        assert second.output == ["bump 0", "bump 1"]
        assert second.cycles == len(second.reports) == 2
        # The engine-level log stays cumulative.
        assert e.output == ["bump 0", "bump 1"] * 2

    def test_idle_rerun_has_empty_output(self):
        e = engine_for(WRITER)
        e.make("count", value=0)
        e.run()
        again = e.run()
        assert again.cycles == 0
        assert again.output == []


class TestMetaWritesInReports:
    def test_meta_writes_appear_in_cycle_report(self):
        # Regression: meta-level (write ...) went straight to engine.output,
        # bypassing CycleReport.writes, so trace callbacks never saw it.
        src = """
        (literalize item n)
        (literalize log n)
        (p touch (item ^n <n>) --> (make log ^n <n>))
        (mp watch (instantiation ^rule touch ^id <i>)
            --> (write meta-saw <i>))
        """
        e = engine_for(src)
        e.make("item", n=1)
        report = e.step()
        assert report.fired == 1
        assert any(w.startswith("meta-saw") for w in report.writes)
        # Report writes and engine output agree on the meta lines.
        for line in report.writes:
            assert line in e.output

    def test_meta_writes_reported_on_redaction_quiescence(self):
        src = """
        (literalize item n)
        (p touch (item ^n <n>) --> (remove 1))
        (mp veto (instantiation ^rule touch ^id <i>)
            --> (write vetoed <i>) (redact <i>))
        """
        e = engine_for(src)
        e.make("item", n=1)
        result = e.run()
        assert result.reason == "redaction-quiescence"
        assert len(result.reports) == 1
        report = result.reports[0]
        assert report.fired == 0
        assert any(w.startswith("vetoed") for w in report.writes)
        assert report.writes == result.output


class TestPrebuiltMatcher:
    """A prebuilt ``matcher=`` replaces the configured one, so a config
    that names a matcher of its own is refused, not silently overridden."""

    @staticmethod
    def _build(**config):
        from repro.match.treat import TreatMatcher
        from repro.wm.memory import WorkingMemory
        from repro.wm.template import TemplateRegistry

        program = parse_program(COUNTER)
        wm = WorkingMemory(TemplateRegistry.from_program(program))
        return ParulelEngine(
            program,
            EngineConfig(**config),
            wm=wm,
            matcher=TreatMatcher(program.rules, wm),
        )

    def test_default_config_accepted(self):
        engine = self._build()
        engine.make("count", value=0)
        assert engine.run().firings == 3

    @pytest.mark.parametrize("name", ["naive", "process"])
    def test_named_matcher_refused(self, name):
        with pytest.raises(ValueError, match="prebuilt matcher"):
            self._build(matcher=name)

    def test_pool_refused(self):
        from repro.match.interface import PoolConfig

        with pytest.raises(ValueError, match="prebuilt matcher"):
            self._build(pool=PoolConfig(timeout=5))
        with pytest.raises(ValueError, match="prebuilt matcher"):
            self._build(matcher="process", pool=PoolConfig(timeout=5))
