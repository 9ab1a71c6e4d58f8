"""Unit tests for RHS evaluation (expressions, actions, host calls)."""

import pytest

from repro.errors import ExecutionError
from repro.core.actions import ActionEvaluator, evaluate_expr
from repro.lang.ast import ComputeExpr, ConstantExpr, ModifyAction, Rule, VariableExpr
from repro.lang.parser import parse_program
from repro.match.instantiation import Instantiation
from repro.wm.wme import WME


def make_inst(src, wmes, env):
    rule = parse_program(src).rules[0] if "(p " in src else parse_program(src).meta_rules[0]
    return Instantiation(rule, wmes, env)


class TestEvaluateExpr:
    def test_constant(self):
        assert evaluate_expr(ConstantExpr(42), {}) == 42

    def test_variable(self):
        assert evaluate_expr(VariableExpr("x"), {"x": "val"}) == "val"

    def test_unbound_variable_raises(self):
        with pytest.raises(ExecutionError, match="unbound"):
            evaluate_expr(VariableExpr("x"), {})

    def test_compute_left_to_right_no_precedence(self):
        # 2 + 3 * 4 evaluates as (2+3)*4 = 20, OPS5 style.
        expr = ComputeExpr(
            (ConstantExpr(2), "+", ConstantExpr(3), "*", ConstantExpr(4))
        )
        assert evaluate_expr(expr, {}) == 20

    @pytest.mark.parametrize(
        "op,a,b,expected",
        [
            ("+", 2, 3, 5),
            ("-", 2, 3, -1),
            ("*", 2, 3, 6),
            ("/", 6, 3, 2),
            ("/", 7, 2, 3.5),
            ("//", 7, 2, 3),
            ("mod", 7, 2, 1),
        ],
    )
    def test_operators(self, op, a, b, expected):
        expr = ComputeExpr((ConstantExpr(a), op, ConstantExpr(b)))
        result = evaluate_expr(expr, {})
        assert result == expected
        assert type(result) is type(expected)

    def test_exact_int_division_stays_int(self):
        expr = ComputeExpr((ConstantExpr(6), "/", ConstantExpr(3)))
        assert type(evaluate_expr(expr, {})) is int

    @pytest.mark.parametrize("op", ["/", "//", "mod"])
    def test_division_by_zero_raises(self, op):
        expr = ComputeExpr((ConstantExpr(1), op, ConstantExpr(0)))
        with pytest.raises(ExecutionError, match="zero"):
            evaluate_expr(expr, {})

    @pytest.mark.parametrize(
        "a,op,b",
        [
            (1e308, "*", 10.0),  # overflows to inf
            (1e308, "+", 1e308),
            (10**400, "/", 3),  # int quotient too large for a float
            (10**400, "*", 1.5),
        ],
    )
    def test_a_non_finite_result_raises(self, a, op, b):
        expr = ComputeExpr((ConstantExpr(a), op, ConstantExpr(b)))
        with pytest.raises(ExecutionError, match="not a finite number"):
            evaluate_expr(expr, {})

    def test_arith_on_symbols_raises(self):
        expr = ComputeExpr((ConstantExpr("a"), "+", ConstantExpr(1)))
        with pytest.raises(ExecutionError, match="non-numbers"):
            evaluate_expr(expr, {})


class TestActionEvaluation:
    def test_make_collects_attrs(self):
        inst = make_inst(
            "(p r (c ^a <x>) --> (make d ^b <x> ^c (compute <x> + 1)))",
            (WME("c", {"a": 5}, 1),),
            {"x": 5},
        )
        delta = ActionEvaluator().evaluate(inst)
        assert delta.makes == [("d", {"b": 5, "c": 6})]
        assert delta.touches_wm

    def test_modify_pairs_wme_and_updates(self):
        w = WME("c", {"a": 5}, 1)
        inst = make_inst(
            "(p r (c ^a <x>) --> (modify 1 ^a 9))", (w,), {"x": 5}
        )
        delta = ActionEvaluator().evaluate(inst)
        assert delta.modifies == [(w, {"a": 9})]

    def test_remove_lists_targets(self):
        w1 = WME("c", {"a": 1}, 1)
        w2 = WME("d", {"a": 1}, 2)
        inst = make_inst(
            "(p r (c ^a <x>) (d ^a <x>) --> (remove 1 2))", (w1, w2), {"x": 1}
        )
        delta = ActionEvaluator().evaluate(inst)
        assert delta.removes == [w1, w2]

    def test_write_renders_values(self):
        inst = make_inst(
            "(p r (c ^a <x>) --> (write value is <x>))",
            (WME("c", {"a": 7}, 1),),
            {"x": 7},
        )
        delta = ActionEvaluator().evaluate(inst)
        assert delta.writes == ["value is 7"]

    def test_bind_scopes_to_later_actions(self):
        inst = make_inst(
            "(p r (c ^a <x>) --> (bind <y> (compute <x> * 2)) (make d ^b <y>))",
            (WME("c", {"a": 3}, 1),),
            {"x": 3},
        )
        delta = ActionEvaluator().evaluate(inst)
        assert delta.makes == [("d", {"b": 6})]

    def test_bind_does_not_leak_into_inst_env(self):
        inst = make_inst(
            "(p r (c ^a <x>) --> (bind <y> 1))",
            (WME("c", {"a": 3}, 1),),
            {"x": 3},
        )
        ActionEvaluator().evaluate(inst)
        assert "y" not in inst.env

    def test_halt_flag(self):
        inst = make_inst("(p r (c ^a 1) --> (halt))", (WME("c", {"a": 1}, 1),), {})
        assert ActionEvaluator().evaluate(inst).halt

    def test_modify_of_negated_ce_raises_at_runtime(self):
        # Analysis would reject this, but the evaluator double-checks.
        rule = parse_program(
            "(p r (c ^a <x>) -(d ^a <x>) --> (halt))"
        ).rules[0]
        bad = ModifyAction(ce_index=2, assignments=(("a", ConstantExpr(1)),))
        rule = Rule(rule.name, rule.conditions, (bad,))
        inst = Instantiation(rule, (WME("c", {"a": 1}, 1), None), {"x": 1})
        with pytest.raises(ExecutionError, match="bad condition-element index"):
            ActionEvaluator().evaluate(inst)


class TestHostCalls:
    def test_call_collected_then_run(self):
        seen = []
        ev = ActionEvaluator({"notify": lambda *a: seen.append(a)})
        inst = make_inst(
            "(p r (c ^a <x>) --> (call notify <x> done))",
            (WME("c", {"a": 7}, 1),),
            {"x": 7},
        )
        delta = ev.evaluate(inst)
        assert delta.calls == [("notify", (7, "done"))]
        assert seen == []  # evaluation does not invoke
        ev.run_calls(delta)
        assert seen == [(7, "done")]

    def test_unregistered_function_raises_at_apply(self):
        ev = ActionEvaluator()
        inst = make_inst(
            "(p r (c ^a 1) --> (call ghost))", (WME("c", {"a": 1}, 1),), {}
        )
        delta = ev.evaluate(inst)
        with pytest.raises(ExecutionError, match="unregistered"):
            ev.run_calls(delta)

    def test_register_after_construction(self):
        ev = ActionEvaluator()
        ev.register("f", lambda: None)
        assert "f" in ev.host_functions
