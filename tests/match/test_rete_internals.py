"""RETE-specific structural tests: alpha sharing, token bookkeeping."""

import pytest

from repro.lab.rete import ReteMatcher
from repro.lang.parser import parse_program
from repro.wm.memory import WorkingMemory


def build(src):
    wm = WorkingMemory()
    return wm, ReteMatcher(parse_program(src).rules, wm)


class TestAlphaSharing:
    def test_identical_patterns_share_memory(self):
        wm, m = build(
            "(p r1 (c ^a 1) (d ^b <x>) --> (halt))"
            "(p r2 (c ^a 1) (e ^b <x>) --> (halt))"
        )
        # c^a=1 shared; d^b var and e^b var are distinct classes.
        assert m.alpha_memory_count == 3

    def test_different_constants_not_shared(self):
        wm, m = build("(p r1 (c ^a 1) --> (halt))(p r2 (c ^a 2) --> (halt))")
        assert m.alpha_memory_count == 2

    def test_attribute_order_does_not_split_alpha(self):
        wm, m = build(
            "(p r1 (c ^a 1 ^b 2) --> (halt))(p r2 (c ^b 2 ^a 1) --> (halt))"
        )
        assert m.alpha_memory_count == 1

    def test_variable_tests_do_not_contribute_to_alpha_key(self):
        # Different variable names, same alpha shape.
        wm, m = build(
            "(p r1 (c ^a <x>) --> (halt))(p r2 (c ^a <y>) --> (halt))"
        )
        assert m.alpha_memory_count == 1


class TestTokenBookkeeping:
    def test_token_count_grows_and_shrinks(self):
        wm, m = build("(p r (a ^k <k>) (b ^k <k>) --> (halt))")
        assert m.token_count() == 0
        wa = wm.make("a", k=1)
        assert m.token_count() == 1  # the (a) token
        wb = wm.make("b", k=1)
        assert m.token_count() == 2  # (a) and (a,b)
        wm.remove(wb)
        assert m.token_count() == 1
        wm.remove(wa)
        assert m.token_count() == 0

    def test_removal_cascades_through_chain(self):
        wm, m = build("(p r (a ^k <k>) (b ^k <k>) (c ^k <k>) --> (halt))")
        wa = wm.make("a", k=1)
        wm.make("b", k=1)
        wm.make("c", k=1)
        assert len(m.instantiations()) == 1
        wm.remove(wa)  # head removal must cascade to the production
        assert m.instantiations() == []
        assert m.token_count() == 0

    def test_rebuild_on_populated_memory(self):
        # Attaching a matcher to a pre-loaded WM replays history.
        wm = WorkingMemory()
        wm.make("a", k=1)
        wm.make("b", k=1)
        prog = parse_program("(p r (a ^k <k>) (b ^k <k>) --> (halt))")
        m = ReteMatcher(prog.rules, wm)
        assert len(m.instantiations()) == 1

    def test_detach_stops_updates(self):
        wm, m = build("(p r (a ^k <k>) --> (halt))")
        wm.make("a", k=1)
        m.detach()
        wm.make("a", k=2)
        assert len(m.instantiations()) == 1  # stale by design after detach


class TestStatsAttribution:
    def test_per_rule_counters(self):
        wm, m = build(
            "(p busy (a ^k <k>) (b ^k <k>) --> (halt))"
            "(p idle (never ^x 1) --> (halt))"
        )
        for i in range(5):
            wm.make("a", k=i)
            wm.make("b", k=i)
        assert m.stats.per_rule["busy"]["instantiations"] == 5
        assert m.stats.rule_total("idle") == 0
        assert m.stats.totals["instantiations"] == 5

    def test_retraction_counted(self):
        wm, m = build("(p r (a ^k <k>) --> (halt))")
        w = wm.make("a", k=1)
        wm.remove(w)
        assert m.stats.totals["retractions"] >= 1
