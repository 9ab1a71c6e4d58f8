"""Pretty-printer round-trip: parse(format(ast)) == ast.

Includes a hypothesis property over randomly generated programs — the
printer and the parser must be exact inverses on the AST domain.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.lang.ast import (
    BindAction,
    CallAction,
    ComputeExpr,
    ConditionElement,
    ConjunctiveTest,
    ConstantExpr,
    ConstantTest,
    DisjunctionTest,
    GenatomExpr,
    HaltAction,
    Literalize,
    MakeAction,
    MetaRule,
    ModifyAction,
    PredicateTest,
    Program,
    RedactAction,
    RemoveAction,
    Rule,
    VariableExpr,
    VariableTest,
    WriteAction,
)
from repro.lang.parser import parse_program
from repro.lang.pretty import format_program, format_rule


class TestHandWrittenRoundTrips:
    CASES = [
        "(literalize block name size)",
        "(p r (c ^a 1) --> (halt))",
        "(p r (c ^a <x> ^b { <y> > 4 <> <x> }) --> (make d ^e <y>))",
        "(p r (c ^a << red green 3 >>) -(d ^a 1) --> (remove 1))",
        "(p r (salience 7) (c ^a <x>) --> (modify 1 ^a (compute <x> + 1 * 2)))",
        "(p r (c ^a <x>) --> (bind <y> (compute <x> mod 3)) (write x is <y>))",
        "(p r (c ^a |two words|) --> (call notify |hello there| 5))",
        "(p r (c ^a <x>) --> (make d ^id (genatom) ^tag (genatom tkt)))",
        "(mp m (instantiation ^rule r ^id <i>) --> (redact <i>))",
    ]

    @pytest.mark.parametrize("src", CASES)
    def test_round_trip(self, src):
        once = parse_program(src)
        twice = parse_program(format_program(once))
        assert once == twice

    def test_format_is_idempotent(self):
        src = "".join(self.CASES)
        first = format_program(parse_program(src))
        second = format_program(parse_program(first))
        assert first == second


# ---------------------------------------------------------------------------
# Hypothesis: generated ASTs survive print -> parse
# ---------------------------------------------------------------------------

# Symbols that cannot collide with syntax: lowercase alpha with hyphens.
symbols = st.from_regex(r"[a-z][a-z0-9]{0,5}(-[a-z0-9]{1,4})?", fullmatch=True)
var_names = st.from_regex(r"[a-z][a-z0-9]{0,5}", fullmatch=True)
numbers = st.one_of(
    st.integers(min_value=-10_000, max_value=10_000),
    st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
    ).map(lambda f: round(f, 3)),
)
# Strings exercise the bar-quoting path, including delimiter characters.
quoted_strings = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Nd", "Zs"), max_codepoint=127),
    max_size=10,
).filter(lambda s: "|" not in s)
constants = st.one_of(symbols, numbers, quoted_strings)

predicates = st.sampled_from(["=", "<>", "<", "<=", ">", ">=", "<=>"])


def _pred_test(draw_operand):
    return st.builds(PredicateTest, predicates, draw_operand)


atomic_tests = st.one_of(
    st.builds(ConstantTest, constants),
    st.builds(VariableTest, var_names),
    _pred_test(
        st.one_of(st.builds(ConstantTest, constants), st.builds(VariableTest, var_names))
    ),
    st.builds(
        DisjunctionTest,
        st.lists(constants, min_size=1, max_size=3).map(tuple),
    ),
)

tests = st.one_of(
    atomic_tests,
    st.builds(
        ConjunctiveTest, st.lists(atomic_tests, min_size=1, max_size=3).map(tuple)
    ),
)

condition_elements = st.builds(
    ConditionElement,
    class_name=symbols,
    tests=st.lists(st.tuples(symbols, tests), min_size=0, max_size=3).map(tuple),
    negated=st.booleans(),
)


def _valid_first_positive(ces):
    ces = list(ces)
    if ces and ces[0].negated:
        ces[0] = ConditionElement(ces[0].class_name, ces[0].tests, negated=False)
    return tuple(ces)


exprs = st.recursive(
    st.one_of(
        st.builds(ConstantExpr, constants),
        st.builds(VariableExpr, var_names),
        st.builds(GenatomExpr, var_names),
        st.just(GenatomExpr()),
    ),
    lambda children: st.builds(
        ComputeExpr,
        st.lists(children, min_size=2, max_size=3).flatmap(
            lambda ops: st.lists(
                st.sampled_from(["+", "-", "*", "//", "mod"]),
                min_size=len(ops) - 1,
                max_size=len(ops) - 1,
            ).map(
                lambda operators: tuple(
                    x
                    for pair in zip(ops, operators + [None])
                    for x in pair
                    if x is not None
                )
            )
        ),
    ),
    max_leaves=4,
)

assignments = st.lists(st.tuples(symbols, exprs), min_size=0, max_size=3).map(tuple)

actions = st.one_of(
    st.builds(MakeAction, symbols, assignments),
    st.builds(
        ModifyAction, st.integers(min_value=1, max_value=3), assignments
    ),
    st.builds(
        RemoveAction,
        st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=2).map(
            tuple
        ),
    ),
    st.builds(WriteAction, st.lists(exprs, min_size=0, max_size=3).map(tuple)),
    st.builds(BindAction, var_names, exprs),
    st.just(HaltAction()),
    st.builds(CallAction, symbols, st.lists(exprs, min_size=0, max_size=2).map(tuple)),
)

rules = st.builds(
    Rule,
    name=symbols,
    conditions=st.lists(condition_elements, min_size=1, max_size=3)
    .map(tuple)
    .map(_valid_first_positive),
    actions=st.lists(actions, min_size=0, max_size=3).map(tuple),
    salience=st.integers(min_value=-5, max_value=5),
)

meta_actions = st.one_of(
    st.builds(RedactAction, exprs),
    st.builds(WriteAction, st.lists(exprs, min_size=0, max_size=2).map(tuple)),
    st.just(HaltAction()),
)

meta_rules = st.builds(
    MetaRule,
    name=symbols,
    conditions=st.lists(condition_elements, min_size=1, max_size=2)
    .map(tuple)
    .map(_valid_first_positive),
    actions=st.lists(meta_actions, min_size=0, max_size=2).map(tuple),
    salience=st.integers(min_value=-5, max_value=5),
)

literalizes = st.builds(
    Literalize,
    class_name=symbols,
    attributes=st.lists(symbols, min_size=0, max_size=4, unique=True).map(tuple),
)

programs = st.builds(
    Program,
    literalizes=st.lists(literalizes, min_size=0, max_size=2).map(tuple),
    rules=st.lists(rules, min_size=0, max_size=3).map(tuple),
    meta_rules=st.lists(meta_rules, min_size=0, max_size=2).map(tuple),
)


class TestPropertyRoundTrip:
    # Atoms Python's float()/int() read as numbers but the language does not
    # (found by this property; pinned so the result does not depend on the
    # local example database), and names that need the bar-quoting values get.
    @example(Program(literalizes=(Literalize(class_name="inf", attributes=()),)))
    @example(Program(literalizes=(Literalize(class_name="nan", attributes=("x",)),)))
    @example(Program(literalizes=(Literalize("c", attributes=("Infinity", "1_0")),)))
    @example(
        Program(
            literalizes=(Literalize(class_name="10", attributes=("a b", "=")),),
            rules=(
                Rule(
                    name="-1",
                    conditions=(
                        ConditionElement("10", (("a b", ConstantTest("nan")),)),
                    ),
                    actions=(
                        MakeAction("10", (("=", ConstantExpr("1_0")),)),
                        ModifyAction(1, (("a b", ConstantExpr("inf")),)),
                    ),
                ),
            ),
        )
    )
    @settings(max_examples=200, deadline=None)
    @given(programs)
    def test_program_round_trips(self, program):
        assert parse_program(format_program(program)) == program

    @settings(max_examples=100, deadline=None)
    @given(rules)
    def test_single_rule_round_trips(self, rule):
        parsed = parse_program(format_rule(rule))
        assert parsed.rules == (rule,)
