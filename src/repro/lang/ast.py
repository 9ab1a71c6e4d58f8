"""Abstract syntax tree for PARULEL programs.

The AST is built by :mod:`repro.lang.parser` (or programmatically via
:mod:`repro.lang.builder`), checked by :mod:`repro.lang.analysis`, compiled
into match networks by :mod:`repro.match`, and executed by
:mod:`repro.core` / :mod:`repro.baseline`.

Node taxonomy
=============

A :class:`Program` holds :class:`Literalize` declarations, object-level
:class:`Rule` definitions (``p``) and meta-level :class:`MetaRule`
definitions (``mp``).

A rule's LHS is a sequence of :class:`ConditionElement`; each condition
element constrains one working-memory element of a given class via per
attribute :class:`Test` s:

- :class:`ConstantTest` — attribute equals a literal,
- :class:`VariableTest` — bind or check a match variable,
- :class:`PredicateTest` — compare with ``= <> < <= > >= <=>`` against a
  constant or a variable,
- :class:`DisjunctionTest` — ``<< a b c >>`` membership in a constant set,
- :class:`ConjunctiveTest` — ``{ ... }`` conjunction of the above.

The RHS is a sequence of :class:`Action` s: ``make``, ``modify``, ``remove``,
``write``, ``bind``, ``halt``, ``call`` and (meta-rules only) ``redact``.
Action argument expressions are constants, variables or ``(compute ...)``
arithmetic, represented by :class:`ConstantExpr` / :class:`VariableExpr` /
:class:`ComputeExpr`.

All nodes are frozen records (:class:`repro._record.FrozenRecord`): the AST
is immutable after construction, which lets match-network compilation and
the engines share it freely across (simulated or real) parallel sites
without copying. A node equals a node of the same class with equal fields
(a :class:`MetaRule` never equals a :class:`Rule`), hashes and pickles by
its fields, and reprs as ``Class(field=value, ...)``.
"""

from __future__ import annotations

import functools
import math
from typing import Optional, Tuple, Union

from repro._record import FrozenRecord
from repro.lang.lexer import is_number_literal

__all__ = [
    "Value",
    "Program",
    "Literalize",
    "Rule",
    "MetaRule",
    "ConditionElement",
    "TestAtom",
    "Test",
    "ConstantTest",
    "VariableTest",
    "PredicateTest",
    "DisjunctionTest",
    "ConjunctiveTest",
    "Expr",
    "ConstantExpr",
    "VariableExpr",
    "ComputeExpr",
    "GenatomExpr",
    "Action",
    "MakeAction",
    "ModifyAction",
    "RemoveAction",
    "WriteAction",
    "BindAction",
    "HaltAction",
    "CallAction",
    "RedactAction",
    "PREDICATES",
]

#: Runtime values flowing through working memory: symbols (str), ints, floats.
Value = Union[str, int, float]

#: The comparison predicates of the language. ``<=>`` is OPS5's "same type"
#: predicate (both numbers, or both symbols).
PREDICATES = ("=", "<>", "<", "<=", ">", ">=", "<=>")


# ---------------------------------------------------------------------------
# LHS tests
# ---------------------------------------------------------------------------


class ConstantTest(FrozenRecord):
    """``^attr value`` — the attribute must equal ``value`` exactly."""

    __slots__ = ("value",)

    def __init__(self, value: Value) -> None:
        self._set(value)

    def __str__(self) -> str:
        return _format_value(self.value)


class VariableTest(FrozenRecord):
    """``^attr <x>`` — bind ``<x>`` on first occurrence, test equality after."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self._set(name)

    def __str__(self) -> str:
        return f"<{self.name}>"


class PredicateTest(FrozenRecord):
    """``^attr > 4`` or ``^attr <> <x>`` — compare via a predicate.

    ``operand`` is a :class:`ConstantTest` or :class:`VariableTest` naming
    what to compare the attribute value against.
    """

    __slots__ = ("predicate", "operand")

    def __init__(
        self, predicate: str, operand: Union[ConstantTest, VariableTest]
    ) -> None:
        self._set(predicate, operand)
        if predicate not in PREDICATES:
            raise ValueError(f"unknown predicate {predicate!r}")

    def __str__(self) -> str:
        return f"{self.predicate} {self.operand}"


class DisjunctionTest(FrozenRecord):
    """``^attr << red green blue >>`` — membership in a constant set."""

    __slots__ = ("alternatives",)

    def __init__(self, alternatives: Tuple[Value, ...]) -> None:
        self._set(alternatives)

    def __str__(self) -> str:
        inner = " ".join(_format_value(v) for v in self.alternatives)
        return f"<< {inner} >>"


class ConjunctiveTest(FrozenRecord):
    """``^attr { <x> > 4 <> <y> }`` — all component tests must hold."""

    __slots__ = ("tests",)

    def __init__(self, tests: Tuple["TestAtom", ...]) -> None:
        self._set(tests)

    def __str__(self) -> str:
        inner = " ".join(str(t) for t in self.tests)
        return f"{{ {inner} }}"


#: A test that may appear inside a conjunctive ``{ ... }`` group.
TestAtom = Union[ConstantTest, VariableTest, PredicateTest, DisjunctionTest]

#: Any attribute test.
Test = Union[ConstantTest, VariableTest, PredicateTest, DisjunctionTest, ConjunctiveTest]


class ConditionElement(FrozenRecord):
    """One LHS pattern: ``(class ^attr test ...)``, optionally negated.

    ``tests`` maps attribute name to its test, in source order (Python dicts
    preserve insertion order, but we store a tuple of pairs to stay hashable
    and explicit about ordering).
    """

    __slots__ = ("class_name", "tests", "negated")

    def __init__(
        self, class_name: str, tests: Tuple[Tuple[str, Test], ...], negated: bool = False
    ) -> None:
        self._set(class_name, tests, negated)

    @property
    def variables(self) -> Tuple[str, ...]:
        """All variable names mentioned by this CE, in first-occurrence order."""
        seen = []
        for _attr, test in self.tests:
            for name in _test_variables(test):
                if name not in seen:
                    seen.append(name)
        return tuple(seen)

    def __str__(self) -> str:
        parts = [_format_symbol(self.class_name)]
        for attr, test in self.tests:
            parts.append(f"^{_format_symbol(attr)} {test}")
        body = f"({' '.join(parts)})"
        return f"-{body}" if self.negated else body


def _test_variables(test: Test) -> Tuple[str, ...]:
    if isinstance(test, VariableTest):
        return (test.name,)
    if isinstance(test, PredicateTest):
        return _test_variables(test.operand)
    if isinstance(test, ConjunctiveTest):
        out = []
        for t in test.tests:
            out.extend(_test_variables(t))
        return tuple(out)
    return ()


# ---------------------------------------------------------------------------
# RHS expressions
# ---------------------------------------------------------------------------


class ConstantExpr(FrozenRecord):
    """A literal value in an action argument position."""

    __slots__ = ("value",)

    def __init__(self, value: Value) -> None:
        self._set(value)

    def __str__(self) -> str:
        return _format_value(self.value)


class VariableExpr(FrozenRecord):
    """A variable reference in an action argument position."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self._set(name)

    def __str__(self) -> str:
        return f"<{self.name}>"


class ComputeExpr(FrozenRecord):
    """``(compute <x> + 1 ...)`` — left-to-right arithmetic, OPS5 style.

    ``items`` alternates operands and operator symbols, e.g.
    ``(operand, '+', operand, '*', operand)``. Evaluation is strictly left to
    right with no precedence, matching OPS5's ``compute``.
    """

    __slots__ = ("items",)

    def __init__(self, items: Tuple[Union["Expr", str], ...]) -> None:
        self._set(items)

    def __str__(self) -> str:
        inner = " ".join(str(i) for i in self.items)
        return f"(compute {inner})"


class GenatomExpr(FrozenRecord):
    """``(genatom)`` / ``(genatom prefix)`` — a fresh unique symbol.

    OPS5's ``genatom``: each evaluation yields a symbol no other evaluation
    has produced in this engine (``prefix1``, ``prefix2``, ...). The counter
    lives on the :class:`~repro.core.actions.ActionEvaluator`, so runs stay
    deterministic.
    """

    __slots__ = ("prefix",)

    def __init__(self, prefix: str = "g") -> None:
        self._set(prefix)

    def __str__(self) -> str:
        if self.prefix == "g":
            return "(genatom)"
        return f"(genatom {self.prefix})"


Expr = Union[ConstantExpr, VariableExpr, ComputeExpr, GenatomExpr]


# ---------------------------------------------------------------------------
# RHS actions
# ---------------------------------------------------------------------------


class MakeAction(FrozenRecord):
    """``(make class ^attr expr ...)`` — assert a new WME."""

    __slots__ = ("class_name", "assignments")

    def __init__(self, class_name: str, assignments: Tuple[Tuple[str, Expr], ...]) -> None:
        self._set(class_name, assignments)

    def __str__(self) -> str:
        parts = [f"make {_format_symbol(self.class_name)}"]
        for attr, expr in self.assignments:
            parts.append(f"^{_format_symbol(attr)} {expr}")
        return f"({' '.join(parts)})"


class ModifyAction(FrozenRecord):
    """``(modify k ^attr expr ...)`` — re-assert CE number ``k`` (1-based)
    with the given attributes changed."""

    __slots__ = ("ce_index", "assignments")

    def __init__(self, ce_index: int, assignments: Tuple[Tuple[str, Expr], ...]) -> None:
        self._set(ce_index, assignments)

    def __str__(self) -> str:
        parts = [f"modify {self.ce_index}"]
        for attr, expr in self.assignments:
            parts.append(f"^{_format_symbol(attr)} {expr}")
        return f"({' '.join(parts)})"


class RemoveAction(FrozenRecord):
    """``(remove k ...)`` — retract the WMEs matched by the listed CEs."""

    __slots__ = ("ce_indices",)

    def __init__(self, ce_indices: Tuple[int, ...]) -> None:
        self._set(ce_indices)

    def __str__(self) -> str:
        inner = " ".join(str(i) for i in self.ce_indices)
        return f"(remove {inner})"


class WriteAction(FrozenRecord):
    """``(write expr ...)`` — append a line to the engine's output stream."""

    __slots__ = ("arguments",)

    def __init__(self, arguments: Tuple[Expr, ...]) -> None:
        self._set(arguments)

    def __str__(self) -> str:
        inner = " ".join(str(a) for a in self.arguments)
        return f"(write {inner})"


class BindAction(FrozenRecord):
    """``(bind <x> expr)`` — introduce an RHS-local binding."""

    __slots__ = ("name", "expr")

    def __init__(self, name: str, expr: Expr) -> None:
        self._set(name, expr)

    def __str__(self) -> str:
        return f"(bind <{self.name}> {self.expr})"


class HaltAction(FrozenRecord):
    """``(halt)`` — stop the recognize-act cycle after this firing phase."""

    __slots__ = ()

    def __str__(self) -> str:
        return "(halt)"


class CallAction(FrozenRecord):
    """``(call fn expr ...)`` — invoke a host callback registered with the
    engine. The escape hatch the paper's external-routine interface needs."""

    __slots__ = ("function", "arguments")

    def __init__(self, function: str, arguments: Tuple[Expr, ...]) -> None:
        self._set(function, arguments)

    def __str__(self) -> str:
        inner = " ".join(str(a) for a in self.arguments)
        sep = " " if inner else ""
        return f"(call {self.function}{sep}{inner})"


class RedactAction(FrozenRecord):
    """``(redact <i>)`` — meta-rules only: delete the instantiation whose
    ``id`` is the value of the expression from the conflict set."""

    __slots__ = ("expr",)

    def __init__(self, expr: Expr) -> None:
        self._set(expr)

    def __str__(self) -> str:
        return f"(redact {self.expr})"


Action = Union[
    MakeAction,
    ModifyAction,
    RemoveAction,
    WriteAction,
    BindAction,
    HaltAction,
    CallAction,
    RedactAction,
]


# ---------------------------------------------------------------------------
# Top-level declarations
# ---------------------------------------------------------------------------


class Literalize(FrozenRecord):
    """``(literalize class attr ...)`` — declare a WME class and attributes."""

    __slots__ = ("class_name", "attributes")

    def __init__(self, class_name: str, attributes: Tuple[str, ...]) -> None:
        self._set(class_name, attributes)

    def __str__(self) -> str:
        names = (self.class_name, *self.attributes)
        return f"(literalize {' '.join(map(_format_symbol, names))})"


class Rule(FrozenRecord):
    """An object-level production ``(p name LHS --> RHS)``.

    ``salience`` is an extension over OPS5 (default 0): it is exposed to the
    meta level as an attribute of reified instantiations so that meta-rules
    can implement priority schemes, and is used as a tie-breaker by the
    baseline engine's strategies.
    """

    __slots__ = ("name", "conditions", "actions", "salience")

    def __init__(
        self,
        name: str,
        conditions: Tuple[ConditionElement, ...],
        actions: Tuple[Action, ...],
        salience: int = 0,
    ) -> None:
        self._set(name, conditions, actions, salience)

    @property
    def specificity(self) -> int:
        """OPS5-style specificity: total number of attribute tests."""
        count = 0
        for ce in self.conditions:
            for _attr, test in ce.tests:
                count += len(test.tests) if isinstance(test, ConjunctiveTest) else 1
        return count

    @property
    def positive_conditions(self) -> Tuple[ConditionElement, ...]:
        return tuple(ce for ce in self.conditions if not ce.negated)

    @property
    def variables(self) -> Tuple[str, ...]:
        """Variables bound by positive CEs, in first-occurrence order."""
        seen = []
        for ce in self.conditions:
            if ce.negated:
                continue
            for name in ce.variables:
                if name not in seen:
                    seen.append(name)
        return tuple(seen)


class MetaRule(Rule):
    """A meta-level production ``(mp name LHS --> RHS)``.

    Meta-rules match over the reified conflict set (WME class
    ``instantiation``) and any ordinary working-memory classes, and their
    actions are restricted by analysis to ``redact``/``write``/``bind``/
    ``halt``/``call``.
    """

    __slots__ = ()


class Program(FrozenRecord):
    """A complete PARULEL program: declarations, rules and meta-rules."""

    __slots__ = ("literalizes", "rules", "meta_rules")

    def __init__(
        self,
        literalizes: Tuple[Literalize, ...] = (),
        rules: Tuple[Rule, ...] = (),
        meta_rules: Tuple[MetaRule, ...] = (),
    ) -> None:
        self._set(literalizes, rules, meta_rules)

    def rule(self, name: str) -> Rule:
        """Look up a rule or meta-rule by name (raises ``KeyError``)."""
        for r in self.rules:
            if r.name == name:
                return r
        for r in self.meta_rules:
            if r.name == name:
                return r
        raise KeyError(name)

    @property
    def class_names(self) -> Tuple[str, ...]:
        return tuple(l.class_name for l in self.literalizes)

    def template(self, class_name: str) -> Literalize:
        for l in self.literalizes:
            if l.class_name == class_name:
                return l
        raise KeyError(class_name)


@functools.lru_cache(maxsize=4096)
def _format_symbol(text: str) -> str:
    """A symbol — a string value, or a class, attribute, rule or function
    name — in surface syntax: bare when the lexer reads it back as that one
    SYMBOL token, bar-quoted otherwise (empty, containing a delimiter,
    spelling a number literal, ``=``, or ``-``-leading). Cached: a dump
    prints the same few names and symbols over and over."""
    if (
        text == ""
        or any(c in text for c in " \t\r\n(){}^;|<>")
        or is_number_literal(text)
        or text == "="
        or text.startswith("-")
    ):
        return f"|{text}|"
    return text


def _format_value(value: Value) -> str:
    """Render a runtime value in surface syntax (bar-quote when needed) —
    what makes the pretty-printer → parser and dump → load round trips
    exact. A NaN or an infinity has no surface form: the lexer's number
    grammar cannot spell one and ``compute`` refuses to produce one, so one
    can only have come in through the Python API, and printing it as the
    symbol it would reload as would change its type silently."""
    if isinstance(value, str):
        return _format_symbol(value)
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{value!r} has no surface form (non-finite float)")
    return repr(value)
