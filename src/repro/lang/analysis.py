"""Semantic analysis for PARULEL programs.

:func:`analyze_program` validates a parsed :class:`~repro.lang.ast.Program`
and returns a :class:`ProgramInfo` summary. Checks performed:

**Structural**
  - duplicate rule / meta-rule / class names,
  - duplicate attributes within a ``literalize``,
  - first condition element of a rule must be positive (OPS5 rule; a rule
    whose first CE is negated cannot anchor a match).

**Class / attribute discipline** (only when ``literalize`` declarations are
present — programs may also run untyped):
  - every CE references a declared class and only declared attributes,
  - every ``make`` / ``modify`` assigns only declared attributes.
  - the ``instantiation`` class used by meta-rules is implicitly declared.

**Variable discipline**
  - every variable used in a predicate operand, a negated CE, or an RHS
    expression must be *bound*: i.e. appear as a plain
    :class:`~repro.lang.ast.VariableTest` (or the first atom of a
    conjunctive test) in some positive CE, or be introduced by a preceding
    ``bind`` on the RHS,
  - ``modify``/``remove`` CE indices must be in range and must not refer to
    negated CEs.

**Meta-rule discipline**
  - meta-rules may only use ``redact``, ``write``, ``bind``, ``halt`` and
    ``call`` actions (they must not change object working memory — redaction
    is their sole means of influence, per PARULEL's design),
  - object-level rules must not use ``redact``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple

from repro._record import FrozenRecord
from repro.errors import SemanticError
from repro.lang.ast import (
    Action,
    BindAction,
    CallAction,
    ComputeExpr,
    ConditionElement,
    ConjunctiveTest,
    ConstantExpr,
    ConstantTest,
    DisjunctionTest,
    Expr,
    HaltAction,
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

__all__ = ["analyze_program", "ProgramInfo", "RuleInfo", "INSTANTIATION_CLASS"]

#: Reserved WME class name used to reify conflict-set instantiations for the
#: meta level (see :mod:`repro.core.redaction`).
INSTANTIATION_CLASS = "instantiation"

#: Attributes every reified instantiation carries, besides one per rule
#: variable. Meta-rules may match on these without declaration.
INSTANTIATION_BUILTIN_ATTRS = (
    "rule",
    "id",
    "salience",
    "specificity",
    "recency",
)


class RuleInfo(FrozenRecord):
    """Per-rule analysis results."""

    __slots__ = ("name", "bound_variables", "classes_read", "classes_written", "is_meta")

    def __init__(
        self,
        name: str,
        bound_variables: Tuple[str, ...],
        classes_read: FrozenSet[str],
        classes_written: FrozenSet[str],
        is_meta: bool,
    ) -> None:
        self._set(name, bound_variables, classes_read, classes_written, is_meta)


class ProgramInfo(FrozenRecord):
    """Whole-program analysis results returned by :func:`analyze_program`."""

    __slots__ = ("rule_infos", "declared_classes")

    def __init__(
        self, rule_infos: Tuple[RuleInfo, ...], declared_classes: FrozenSet[str]
    ) -> None:
        self._set(rule_infos, declared_classes)

    def info(self, rule_name: str) -> RuleInfo:
        for ri in self.rule_infos:
            if ri.name == rule_name:
                return ri
        raise KeyError(rule_name)


def _bound_variables(rule: Rule) -> List[str]:
    """Variables bound by plain VariableTests in positive CEs, in order.

    A variable inside a conjunctive test counts as binding only if it occurs
    as a plain :class:`VariableTest` atom (OPS5 semantics: ``{<x> > 3}``
    binds ``<x>`` and also constrains it).
    """
    bound: List[str] = []

    def visit(test, binding_position: bool) -> None:
        if isinstance(test, VariableTest):
            if binding_position and test.name not in bound:
                bound.append(test.name)
        elif isinstance(test, ConjunctiveTest):
            for atom in test.tests:
                visit(atom, binding_position)
        # PredicateTest operands are *uses*, not bindings.

    for ce in rule.conditions:
        if ce.negated:
            continue
        for _attr, test in ce.tests:
            visit(test, True)
    return bound


def _used_variables_in_test(test) -> List[str]:
    out: List[str] = []
    if isinstance(test, PredicateTest):
        if isinstance(test.operand, VariableTest):
            out.append(test.operand.name)
    elif isinstance(test, ConjunctiveTest):
        for atom in test.tests:
            out.extend(_used_variables_in_test(atom))
    return out


def _expr_variables(expr: Expr) -> List[str]:
    if isinstance(expr, VariableExpr):
        return [expr.name]
    if isinstance(expr, ComputeExpr):
        out: List[str] = []
        for item in expr.items:
            if not isinstance(item, str):
                out.extend(_expr_variables(item))
        return out
    return []


def _check_ce_against_templates(
    rule: Rule, ce: ConditionElement, templates: Dict[str, FrozenSet[str]]
) -> None:
    if ce.class_name == INSTANTIATION_CLASS:
        return  # checked separately (attrs depend on the object rule)
    if ce.class_name not in templates:
        raise SemanticError(
            f"rule {rule.name!r}: condition element references undeclared class "
            f"{ce.class_name!r}"
        )
    allowed = templates[ce.class_name]
    for attr, _test in ce.tests:
        if attr not in allowed:
            raise SemanticError(
                f"rule {rule.name!r}: class {ce.class_name!r} has no attribute "
                f"{attr!r} (declared: {sorted(allowed)})"
            )


def _check_rule(
    rule: Rule,
    templates: Dict[str, FrozenSet[str]],
    enforce_templates: bool,
) -> RuleInfo:
    is_meta = isinstance(rule, MetaRule)
    kind = "meta-rule" if is_meta else "rule"

    if not rule.conditions:
        raise SemanticError(f"{kind} {rule.name!r} has no condition elements")
    if rule.conditions[0].negated:
        raise SemanticError(
            f"{kind} {rule.name!r}: the first condition element must be positive"
        )

    classes_read: Set[str] = set()
    classes_written: Set[str] = set()

    bound = _bound_variables(rule)
    bound_set = set(bound)

    # LHS checks.
    for ce in rule.conditions:
        classes_read.add(ce.class_name)
        if enforce_templates:
            _check_ce_against_templates(rule, ce, templates)
        for _attr, test in ce.tests:
            for var in _used_variables_in_test(test):
                if var not in bound_set:
                    raise SemanticError(
                        f"{kind} {rule.name!r}: variable <{var}> is used in a "
                        f"predicate but never bound by a positive condition"
                    )
        if ce.negated:
            for var in ce.variables:
                if var not in bound_set:
                    raise SemanticError(
                        f"{kind} {rule.name!r}: variable <{var}> appears only "
                        f"inside a negated condition element"
                    )

    # RHS checks. `bind` extends the environment as we walk.
    env = set(bound_set)
    positive_indices = {
        i + 1 for i, ce in enumerate(rule.conditions) if not ce.negated
    }
    n_ces = len(rule.conditions)
    for action in rule.actions:
        if is_meta and not isinstance(
            action, (RedactAction, WriteAction, BindAction, HaltAction, CallAction)
        ):
            raise SemanticError(
                f"meta-rule {rule.name!r}: action {action} is not allowed at the "
                f"meta level (only redact/write/bind/halt/call)"
            )
        if not is_meta and isinstance(action, RedactAction):
            raise SemanticError(
                f"rule {rule.name!r}: (redact ...) is only legal in meta-rules"
            )
        exprs: List[Expr] = []
        if isinstance(action, (MakeAction, ModifyAction)):
            exprs.extend(e for _a, e in action.assignments)
            if isinstance(action, MakeAction):
                classes_written.add(action.class_name)
                if enforce_templates and action.class_name != INSTANTIATION_CLASS:
                    if action.class_name not in templates:
                        raise SemanticError(
                            f"{kind} {rule.name!r}: make of undeclared class "
                            f"{action.class_name!r}"
                        )
                    allowed = templates[action.class_name]
                    for attr, _e in action.assignments:
                        if attr not in allowed:
                            raise SemanticError(
                                f"{kind} {rule.name!r}: make {action.class_name!r} "
                                f"assigns undeclared attribute {attr!r}"
                            )
            else:
                if action.ce_index > n_ces:
                    raise SemanticError(
                        f"{kind} {rule.name!r}: modify index {action.ce_index} out "
                        f"of range (rule has {n_ces} condition elements)"
                    )
                if action.ce_index not in positive_indices:
                    raise SemanticError(
                        f"{kind} {rule.name!r}: modify {action.ce_index} refers to "
                        f"a negated condition element"
                    )
                ce = rule.conditions[action.ce_index - 1]
                classes_written.add(ce.class_name)
                if enforce_templates and ce.class_name in templates:
                    allowed = templates[ce.class_name]
                    for attr, _e in action.assignments:
                        if attr not in allowed:
                            raise SemanticError(
                                f"{kind} {rule.name!r}: modify of {ce.class_name!r} "
                                f"assigns undeclared attribute {attr!r}"
                            )
        elif isinstance(action, RemoveAction):
            for idx in action.ce_indices:
                if idx > n_ces:
                    raise SemanticError(
                        f"{kind} {rule.name!r}: remove index {idx} out of range"
                    )
                if idx not in positive_indices:
                    raise SemanticError(
                        f"{kind} {rule.name!r}: remove {idx} refers to a negated "
                        f"condition element"
                    )
                classes_written.add(rule.conditions[idx - 1].class_name)
        elif isinstance(action, WriteAction):
            exprs.extend(action.arguments)
        elif isinstance(action, CallAction):
            exprs.extend(action.arguments)
        elif isinstance(action, BindAction):
            exprs.append(action.expr)
        elif isinstance(action, RedactAction):
            exprs.append(action.expr)
        elif isinstance(action, HaltAction):
            pass
        for expr in exprs:
            for var in _expr_variables(expr):
                if var not in env:
                    raise SemanticError(
                        f"{kind} {rule.name!r}: RHS uses unbound variable <{var}>"
                    )
        if isinstance(action, BindAction):
            env.add(action.name)

    return RuleInfo(
        name=rule.name,
        bound_variables=tuple(bound),
        classes_read=frozenset(classes_read),
        classes_written=frozenset(classes_written),
        is_meta=is_meta,
    )


def analyze_program(program: Program, enforce_templates: bool = True) -> ProgramInfo:
    """Validate ``program`` and return a :class:`ProgramInfo`.

    ``enforce_templates=True`` (the default) requires that every class used
    is declared with ``literalize`` and every attribute is declared — unless
    the program declares *no* classes at all, in which case it is treated as
    untyped and class/attribute checks are skipped (this mirrors how small
    OPS5 programs were often written).

    Raises :class:`~repro.errors.SemanticError` on the first violation.
    """
    templates: Dict[str, FrozenSet[str]] = {}
    for lit in program.literalizes:
        if lit.class_name in templates:
            raise SemanticError(f"duplicate literalize for class {lit.class_name!r}")
        if lit.class_name == INSTANTIATION_CLASS:
            raise SemanticError(
                f"class name {INSTANTIATION_CLASS!r} is reserved for the meta level"
            )
        if len(set(lit.attributes)) != len(lit.attributes):
            raise SemanticError(
                f"literalize {lit.class_name!r} declares duplicate attributes"
            )
        templates[lit.class_name] = frozenset(lit.attributes)

    names: Set[str] = set()
    for rule in (*program.rules, *program.meta_rules):
        if rule.name in names:
            raise SemanticError(f"duplicate rule name {rule.name!r}")
        names.add(rule.name)

    enforce = enforce_templates and bool(templates)
    infos = tuple(
        _check_rule(rule, templates, enforce)
        for rule in (*program.rules, *program.meta_rules)
    )
    return ProgramInfo(rule_infos=infos, declared_classes=frozenset(templates))
