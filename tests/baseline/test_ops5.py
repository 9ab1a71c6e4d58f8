"""Tests for the sequential OPS5 engine."""

import pytest

from repro.errors import CycleLimitExceeded
from repro.baseline import OPS5Engine
from repro.lab.rete import create_lab_matcher
from repro.lang.parser import parse_program
from repro.wm.memory import WorkingMemory
from repro.wm.template import TemplateRegistry


def engine_for(src, **kw):
    return OPS5Engine(parse_program(src), **kw)


COUNTER = """
(literalize count value)
(p bump
    (count ^value {<v> < 3})
    -->
    (modify 1 ^value (compute <v> + 1)))
"""


class TestSequentialCycle:
    def test_one_firing_per_cycle(self):
        src = """
        (literalize f n)
        (literalize g n)
        (p copy (f ^n <n>) --> (make g ^n <n>))
        """
        e = engine_for(src)
        for i in range(5):
            e.make("f", n=i)
        result = e.run()
        assert result.cycles == 5  # PARULEL does this in 1
        assert result.firings == 5
        assert e.wm.count_class("g") == 5

    def test_counter_runs_to_quiescence(self):
        e = engine_for(COUNTER)
        e.make("count", value=0)
        result = e.run()
        assert result.cycles == 3
        assert result.reason == "quiescence"
        assert e.wm.find("count", value=3)

    def test_halt(self):
        src = """
        (literalize f n)
        (p stop (f ^n <n>) --> (write stopping) (halt))
        """
        e = engine_for(src)
        e.make("f", n=1)
        e.make("f", n=2)
        result = e.run()
        assert result.reason == "halt"
        assert result.cycles == 1  # halt prevents the second firing
        assert result.output == ["stopping"]

    def test_cycle_limit(self):
        src = """
        (literalize tick n)
        (p forever (tick ^n <n>) --> (modify 1 ^n (compute <n> + 1)))
        """
        e = engine_for(src)
        e.make("tick", n=0)
        with pytest.raises(CycleLimitExceeded):
            e.run(max_cycles=7)

    def test_effects_visible_immediately(self):
        # The second firing must see the first's make (unlike PARULEL's
        # snapshot semantics within a cycle).
        src = """
        (literalize seed n)
        (literalize chain n)
        (p start (seed ^n <n>) -(chain ^n <n>) --> (make chain ^n <n>))
        (p grow (chain ^n {<n> < 3}) --> (make chain ^n (compute <n> + 1)))
        """
        e = engine_for(src)
        e.make("seed", n=0)
        result = e.run()
        assert e.wm.count_class("chain") == 4  # 0,1,2,3 sequentially

    def test_fired_rules_recorded_in_order(self):
        e = engine_for(COUNTER)
        e.make("count", value=1)
        result = e.run()
        assert result.fired_rules == ["bump", "bump"]

    def test_step_returns_winner(self):
        e = engine_for(COUNTER)
        e.make("count", value=2)
        winner = e.step()
        assert winner.rule.name == "bump"
        assert e.step() is None


class TestStrategySelection:
    PROG = """
    (literalize goal n)
    (literalize item n)
    (literalize log rule)
    (p general (item ^n <n>) --> (make log ^rule general) (remove 1))
    (p specific (item ^n <n> ^n > 0) --> (make log ^rule specific) (remove 1))
    """

    def test_lex_prefers_specific_rule(self):
        e = engine_for(self.PROG, strategy="lex")
        e.make("item", n=5)
        e.step()
        assert e.wm.by_class("log")[0].get("rule") == "specific"

    def test_mea_uses_first_ce_recency(self):
        src = """
        (literalize ctx name)
        (literalize item n)
        (literalize log ctx)
        (p via-old (ctx ^name old) (item ^n <n>) --> (make log ^ctx old) (remove 2))
        (p via-new (ctx ^name new) (item ^n <n>) --> (make log ^ctx new) (remove 2))
        """
        for strategy, expected in (("mea", "new"),):
            e = engine_for(src, strategy=strategy)
            e.make("ctx", name="old")
            e.make("ctx", name="new")  # more recent context
            e.make("item", n=1)
            e.step()
            assert e.wm.by_class("log")[0].get("ctx") == expected

    def test_salience_priority(self):
        src = """
        (literalize item n)
        (literalize log rule)
        (p low (item ^n <n>) --> (make log ^rule low) (remove 1))
        (p high (salience 9) (item ^n <n>) --> (make log ^rule high) (remove 1))
        """
        e = engine_for(src)
        e.make("item", n=1)
        e.step()
        assert e.wm.by_class("log")[0].get("rule") == "high"


class TestMatcherChoices:
    @pytest.mark.parametrize("matcher", ["rete", "treat", "naive"])
    def test_same_result_all_matchers(self, matcher):
        program = parse_program(COUNTER)
        wm = WorkingMemory(TemplateRegistry.from_program(program))
        e = OPS5Engine(
            program, wm=wm, matcher=create_lab_matcher(matcher, program.rules, wm)
        )
        e.make("count", value=0)
        result = e.run()
        assert result.cycles == 3
        assert e.wm.find("count", value=3)


class TestModifyRemoveApplication:
    def test_modify_then_remove_same_wme_is_safe(self):
        # A rule that modifies CE 1 and also removes it: the remove targets
        # the already-displaced WME; discard semantics tolerate it.
        src = """
        (literalize f n)
        (p odd (f ^n {<n> <> 99}) --> (modify 1 ^n 99) (remove 1))
        """
        e = engine_for(src)
        e.make("f", n=1)
        e.run(max_cycles=5)
        # modify re-made it with n=99, remove discarded the stale original.
        assert [w.get("n") for w in e.wm.by_class("f")] == [99]
