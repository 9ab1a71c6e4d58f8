"""``repro._record``: the records that replaced dataclasses keep their
semantics — constructor, equality with the same class only, hash, repr,
immutability where frozen, and pickling."""

import pickle

import pytest

from repro.core import EngineConfig
from repro.core.actions import InstantiationDelta
from repro.core.delta import CycleDelta, InterferencePolicy
from repro.lang import parse_program
from repro.lang.ast import (
    ConditionElement,
    ConstantTest,
    HaltAction,
    MetaRule,
    PredicateTest,
    Program,
    Rule,
    VariableTest,
)
from repro.match.compile import compile_rule
from repro.match.stats import MatchStats

SOURCE = """
(literalize a k v)
(literalize b k)
(p r (a ^k <k> ^v { <v> > 1 }) -(b ^k <k>) (b ^k 2) --> (make b ^k <v>) (halt))
(mp m (instantiation ^rule r ^id <i>) --> (redact <i>))
"""


def _rule(cls=Rule):
    ce = ConditionElement("a", (("k", VariableTest("x")),))
    return cls("r", (ce,), (HaltAction(),), salience=2)


def test_equality_is_by_field_and_class():
    assert _rule() == _rule()
    assert hash(_rule()) == hash(_rule())
    assert _rule(MetaRule) != _rule()  # same fields, other class
    assert _rule() != ("r", _rule().conditions, (HaltAction(),), 2)
    assert HaltAction() == HaltAction()
    assert hash(HaltAction()) == hash(())


def test_repr_names_every_field():
    assert repr(PredicateTest(">", ConstantTest(1))) == (
        "PredicateTest(predicate='>', operand=ConstantTest(value=1))"
    )
    assert repr(HaltAction()) == "HaltAction()"
    assert repr(Program()) == "Program(literalizes=(), rules=(), meta_rules=())"


def test_frozen_records_reject_assignment():
    rule = _rule()
    with pytest.raises(AttributeError):
        rule.name = "s"
    with pytest.raises(AttributeError):
        del rule.salience
    with pytest.raises(AttributeError):
        rule.extra = 1
    with pytest.raises(AttributeError):
        EngineConfig().matcher = "naive"


def test_constructor_checks_and_defaults_hold():
    with pytest.raises(ValueError):
        PredicateTest("~", ConstantTest(1))
    with pytest.raises(ValueError):
        EngineConfig(wm_backend="nope")
    config = EngineConfig(interference="merge")
    assert config.interference is InterferencePolicy.MERGE
    assert config == EngineConfig(interference=InterferencePolicy.MERGE)
    assert _rule().salience == 2 and Rule("r", (), ()).salience == 0


def test_records_pickle_to_equal_records():
    program = parse_program(SOURCE)
    compiled = compile_rule(program.rules[0])
    for value in (program, compiled, EngineConfig(matcher="naive"), MatchStats()):
        again = pickle.loads(pickle.dumps(value))
        assert again == value and type(again) is type(value)
    assert type(pickle.loads(pickle.dumps(program.meta_rules[0]))) is MetaRule
    assert pickle.loads(pickle.dumps(compiled)).seeded_plans == compiled.seeded_plans


def test_compiled_rules_compare_without_their_join_plans():
    rule = parse_program(SOURCE).rules[0]
    planned, plain = compile_rule(rule), compile_rule(rule, plan=False)
    assert planned.seeded_plans != plain.seeded_plans
    assert planned == plain and hash(planned) == hash(plain)
    assert "plan" not in repr(planned)


def test_mutable_records_are_unhashable_and_compare_by_field():
    assert CycleDelta() == CycleDelta()
    first, second = CycleDelta(), CycleDelta()
    first.writes.append("x")
    assert first != second and second.writes == []  # no shared default
    with pytest.raises(TypeError):
        hash(CycleDelta())
    delta = InstantiationDelta(inst=None)
    delta.halt = True
    assert delta == InstantiationDelta(None, halt=True)
