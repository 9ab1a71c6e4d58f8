"""Direct unit tests for the seedable join enumerator (repro.match.join) —
the shared semantic core under the naive and TREAT engines."""

import pytest

from repro.lang.parser import parse_program
from repro.match.compile import compile_rule
from repro.match.join import enumerate_matches, join_tests_pass
from repro.match.stats import MatchStats
from repro.wm.memory import WorkingMemory

RULE = compile_rule(
    parse_program("(p r (a ^k <k>) (b ^k <k> ^v <v>) -(c ^k <k>) --> (halt))").rules[0]
)


@pytest.fixture
def wm():
    wm = WorkingMemory()
    wm.make("a", k=1)
    wm.make("a", k=2)
    wm.make("b", k=1, v="x")
    wm.make("b", k=2, v="y")
    wm.make("b", k=2, v="z")
    return wm


class TestFullEnumeration:
    def test_all_matches(self, wm):
        insts = list(enumerate_matches(RULE, wm))
        assert len(insts) == 3
        envs = sorted((i.env["k"], i.env["v"]) for i in insts)
        assert envs == [(1, "x"), (2, "y"), (2, "z")]

    def test_negation_respected(self, wm):
        wm.make("c", k=2)
        insts = list(enumerate_matches(RULE, wm))
        assert sorted(i.env["k"] for i in insts) == [1]

    def test_wme_tuple_alignment(self, wm):
        inst = next(enumerate_matches(RULE, wm))
        assert inst.wmes[0].class_name == "a"
        assert inst.wmes[1].class_name == "b"
        assert inst.wmes[2] is None  # negated slot

    def test_stats_counted(self, wm):
        stats = MatchStats()
        list(enumerate_matches(RULE, wm, stats))
        assert stats.totals["instantiations"] == 3
        assert stats.totals["join_probes"] > 0
        assert stats.per_rule["r"]["tokens"] > 0


class TestFixedSeeding:
    def test_pinned_positive_ce(self, wm):
        target = wm.find("a", k=2)[0]
        insts = list(enumerate_matches(RULE, wm, fixed=(0, (target,))))
        assert len(insts) == 2
        assert all(i.wmes[0] == target for i in insts)

    def test_pinned_wme_must_pass_alpha(self, wm):
        wrong_class = wm.find("b", k=1)[0]
        assert list(enumerate_matches(RULE, wm, fixed=(0, (wrong_class,)))) == []

    def test_pinned_second_ce(self, wm):
        target = wm.find("b", v="y")[0]
        insts = list(enumerate_matches(RULE, wm, fixed=(1, (target,))))
        assert len(insts) == 1
        assert insts[0].env == {"k": 2, "v": "y"}


class TestSeedEnv:
    def test_seed_constrains_bindings(self, wm):
        insts = list(enumerate_matches(RULE, wm, seed_env={"k": 2}))
        assert sorted(i.env["v"] for i in insts) == ["y", "z"]

    def test_seed_with_impossible_value(self, wm):
        assert list(enumerate_matches(RULE, wm, seed_env={"k": 99})) == []

    def test_seed_env_is_not_mutated(self, wm):
        seed = {"k": 1}
        list(enumerate_matches(RULE, wm, seed_env=seed))
        assert seed == {"k": 1}


class TestJoinTests:
    def test_join_tests_pass_helper(self, wm):
        ce = RULE.ces[1]  # (b ^k <k> ^v <v>) — join test on k
        b1 = wm.find("b", k=1)[0]
        assert join_tests_pass(ce, b1, {"k": 1})
        assert not join_tests_pass(ce, b1, {"k": 2})
