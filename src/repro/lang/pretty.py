"""Pretty-printer for PARULEL ASTs.

The printer produces canonical surface syntax that **round-trips**: for any
program ``p``, ``parse_program(format_program(p)) == p``. This property is
exercised by hypothesis tests in ``tests/lang/test_roundtrip.py`` and makes
the printer safe to use for program transformations (e.g.
:func:`repro.lab.partition.copy_and_constrain` prints transformed rules
into traces).
"""

from __future__ import annotations

from repro.lang.ast import (
    Action,
    BindAction,
    CallAction,
    ComputeExpr,
    ConditionElement,
    ConstantExpr,
    Expr,
    GenatomExpr,
    HaltAction,
    Literalize,
    MakeAction,
    MetaRule,
    ModifyAction,
    Program,
    RedactAction,
    RemoveAction,
    Rule,
    VariableExpr,
    WriteAction,
    _format_symbol,
    _format_value,
)

__all__ = ["format_program", "format_rule", "format_action", "format_expr"]


def format_expr(expr: Expr) -> str:
    """Render an RHS expression."""
    if isinstance(expr, ConstantExpr):
        return _format_value(expr.value)
    if isinstance(expr, VariableExpr):
        return f"<{expr.name}>"
    if isinstance(expr, ComputeExpr):
        parts = [
            item if isinstance(item, str) else format_expr(item)
            for item in expr.items
        ]
        return f"(compute {' '.join(parts)})"
    if isinstance(expr, GenatomExpr):
        return str(expr)
    raise TypeError(f"not an expression: {expr!r}")


def format_action(action: Action) -> str:
    """Render one RHS action."""
    if isinstance(action, MakeAction):
        parts = [f"make {_format_symbol(action.class_name)}"]
        parts += [
            f"^{_format_symbol(a)} {format_expr(e)}" for a, e in action.assignments
        ]
        return f"({' '.join(parts)})"
    if isinstance(action, ModifyAction):
        parts = [f"modify {action.ce_index}"]
        parts += [
            f"^{_format_symbol(a)} {format_expr(e)}" for a, e in action.assignments
        ]
        return f"({' '.join(parts)})"
    if isinstance(action, RemoveAction):
        return f"(remove {' '.join(str(i) for i in action.ce_indices)})"
    if isinstance(action, WriteAction):
        inner = " ".join(format_expr(e) for e in action.arguments)
        return f"(write {inner})" if inner else "(write)"
    if isinstance(action, BindAction):
        return f"(bind <{action.name}> {format_expr(action.expr)})"
    if isinstance(action, HaltAction):
        return "(halt)"
    if isinstance(action, CallAction):
        inner = " ".join(format_expr(e) for e in action.arguments)
        sep = " " if inner else ""
        return f"(call {action.function}{sep}{inner})"
    if isinstance(action, RedactAction):
        return f"(redact {format_expr(action.expr)})"
    raise TypeError(f"not an action: {action!r}")


def format_condition(ce: ConditionElement) -> str:
    """Render one condition element (with its negation marker)."""
    return str(ce)


def format_rule(rule: Rule) -> str:
    """Render a rule or meta-rule as an indented ``(p ...)`` / ``(mp ...)``."""
    head = "mp" if isinstance(rule, MetaRule) else "p"
    lines = [f"({head} {_format_symbol(rule.name)}"]
    if rule.salience:
        lines.append(f"    (salience {rule.salience})")
    for ce in rule.conditions:
        lines.append(f"    {format_condition(ce)}")
    lines.append("    -->")
    for action in rule.actions:
        lines.append(f"    {format_action(action)}")
    return "\n".join(lines) + ")"


def format_literalize(lit: Literalize) -> str:
    return str(lit)


def format_program(program: Program) -> str:
    """Render a whole program; output re-parses to an equal AST."""
    chunks = []
    for lit in program.literalizes:
        chunks.append(format_literalize(lit))
    for rule in program.rules:
        chunks.append(format_rule(rule))
    for mrule in program.meta_rules:
        chunks.append(format_rule(mrule))
    return "\n\n".join(chunks) + ("\n" if chunks else "")
