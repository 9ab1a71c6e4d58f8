"""RHS evaluation: from an instantiation to its proposed WM delta.

Evaluation is **pure with respect to working memory**: an
:class:`ActionEvaluator` reads the instantiation's environment and the
matched WMEs, and produces an :class:`InstantiationDelta` describing what the
firing *wants* — makes, modifies, removes, output lines, host calls, halt.
Nothing touches the store here; PARULEL's set-oriented semantics requires
all firings of a cycle to be evaluated against the same snapshot before any
delta is applied, and this split is what guarantees it. The sequential OPS5
baseline reuses the same evaluator and simply applies each delta
immediately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ExecutionError
from repro.lang.ast import (
    Action,
    BindAction,
    CallAction,
    ComputeExpr,
    ConstantExpr,
    Expr,
    GenatomExpr,
    HaltAction,
    MakeAction,
    ModifyAction,
    RedactAction,
    RemoveAction,
    Value,
    VariableExpr,
    WriteAction,
    _format_value,
)
from repro.match.instantiation import Instantiation
from repro.wm.wme import WME

__all__ = ["ActionEvaluator", "InstantiationDelta", "HostFunction", "evaluate_expr"]

#: Signature of host callbacks reachable via ``(call fn ...)``.
HostFunction = Callable[..., None]


@dataclass
class InstantiationDelta:
    """Everything one firing proposes to do.

    ``modifies`` pairs the *old* WME with its attribute updates; the engine
    turns each into remove+make when applying, but keeps the pairing for
    interference analysis. ``redacts`` only ever comes from meta-rules.
    """

    inst: Instantiation
    makes: List[Tuple[str, Dict[str, Value]]] = field(default_factory=list)
    removes: List[WME] = field(default_factory=list)
    modifies: List[Tuple[WME, Dict[str, Value]]] = field(default_factory=list)
    writes: List[str] = field(default_factory=list)
    calls: List[Tuple[str, Tuple[Value, ...]]] = field(default_factory=list)
    redacts: List[Value] = field(default_factory=list)
    halt: bool = False

    @property
    def touches_wm(self) -> bool:
        return bool(self.makes or self.removes or self.modifies)


def _arith(op: str, a: Value, b: Value) -> Value:
    if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
        raise ExecutionError(
            f"compute: arithmetic on non-numbers ({a!r} {op} {b!r})"
        )
    if op in ("/", "//", "mod") and b == 0:
        what = "modulo" if op == "mod" else "division"
        raise ExecutionError(f"compute: {what} by zero")
    try:
        if op == "+":
            result = a + b
        elif op == "-":
            result = a - b
        elif op == "*":
            result = a * b
        elif op == "/":
            # OPS5 arithmetic stays integral when both operands are
            # integers and the division is exact.
            if isinstance(a, int) and isinstance(b, int) and a % b == 0:
                result = a // b
            else:
                result = a / b
        elif op == "//":
            result = a // b
        elif op == "mod":
            result = a % b
        else:
            raise ExecutionError(f"compute: unknown operator {op!r}")
    except OverflowError:
        result = math.inf
    # A NaN or an infinity is not a value of the language (no literal
    # spells one either): 1e308 * 10, or an int quotient too large for a
    # float, is an error, not a WME attribute that equals nothing.
    if isinstance(result, float) and not math.isfinite(result):
        raise ExecutionError(
            f"compute: {a!r} {op} {b!r} is not a finite number"
        )
    return result


#: Signature of the fresh-symbol source ``(genatom prefix)`` evaluates via.
Gensym = Callable[[str], str]


def evaluate_expr(
    expr: Expr, env: Mapping[str, Value], gensym: Optional[Gensym] = None
) -> Value:
    """Evaluate an RHS expression in an environment.

    ``gensym`` supplies fresh symbols for ``(genatom ...)``; contexts that
    never see genatom (tests, meta-rule ids) may omit it.
    """
    if isinstance(expr, ConstantExpr):
        return expr.value
    if isinstance(expr, VariableExpr):
        try:
            return env[expr.name]
        except KeyError:
            raise ExecutionError(f"unbound variable <{expr.name}> on RHS") from None
    if isinstance(expr, ComputeExpr):
        items = expr.items
        acc = evaluate_expr(items[0], env, gensym)  # type: ignore[arg-type]
        i = 1
        while i < len(items):
            op = items[i]
            operand = evaluate_expr(items[i + 1], env, gensym)  # type: ignore[arg-type]
            acc = _arith(op, acc, operand)  # type: ignore[arg-type]
            i += 2
        return acc
    if isinstance(expr, GenatomExpr):
        if gensym is None:
            raise ExecutionError("(genatom) used outside an action evaluator")
        return gensym(expr.prefix)
    raise ExecutionError(f"cannot evaluate {expr!r}")


class ActionEvaluator:
    """Evaluates instantiations' RHS action lists into deltas."""

    def __init__(self, host_functions: Optional[Mapping[str, HostFunction]] = None) -> None:
        self.host_functions: Dict[str, HostFunction] = dict(host_functions or {})
        self._genatom_counts: Dict[str, int] = {}

    def register(self, name: str, fn: HostFunction) -> None:
        """Expose a Python callable to rules as ``(call name ...)``."""
        self.host_functions[name] = fn

    def gensym(self, prefix: str) -> str:
        """The fresh-symbol source behind ``(genatom prefix)``: ``prefix1``,
        ``prefix2``, ... — deterministic per evaluator (hence per engine)."""
        n = self._genatom_counts.get(prefix, 0) + 1
        self._genatom_counts[prefix] = n
        return f"{prefix}{n}"

    def evaluate(self, inst: Instantiation) -> InstantiationDelta:
        """Run the RHS of ``inst`` and collect its proposed effects.

        ``bind`` extends a local copy of the environment, visible to later
        actions of the same firing only — exactly OPS5's scoping.
        """
        env: Dict[str, Value] = dict(inst.env)
        delta = InstantiationDelta(inst=inst)
        for action in inst.rule.actions:
            self._one(action, inst, env, delta)
        return delta

    def _one(
        self,
        action: Action,
        inst: Instantiation,
        env: Dict[str, Value],
        delta: InstantiationDelta,
    ) -> None:
        if isinstance(action, MakeAction):
            attrs = {a: evaluate_expr(e, env, self.gensym) for a, e in action.assignments}
            delta.makes.append((action.class_name, attrs))
        elif isinstance(action, ModifyAction):
            wme = self._target(inst, action.ce_index)
            updates = {a: evaluate_expr(e, env, self.gensym) for a, e in action.assignments}
            delta.modifies.append((wme, updates))
        elif isinstance(action, RemoveAction):
            for idx in action.ce_indices:
                delta.removes.append(self._target(inst, idx))
        elif isinstance(action, WriteAction):
            parts = [
                _render(evaluate_expr(e, env, self.gensym)) for e in action.arguments
            ]
            delta.writes.append(" ".join(parts))
        elif isinstance(action, BindAction):
            env[action.name] = evaluate_expr(action.expr, env, self.gensym)
        elif isinstance(action, HaltAction):
            delta.halt = True
        elif isinstance(action, CallAction):
            args = tuple(evaluate_expr(e, env, self.gensym) for e in action.arguments)
            delta.calls.append((action.function, args))
        elif isinstance(action, RedactAction):
            delta.redacts.append(evaluate_expr(action.expr, env, self.gensym))
        else:  # pragma: no cover - parser prevents this
            raise ExecutionError(f"unknown action {action!r}")

    def run_calls(self, delta: InstantiationDelta) -> None:
        """Invoke the host callbacks a delta collected (at apply time)."""
        for name, args in delta.calls:
            fn = self.host_functions.get(name)
            if fn is None:
                raise ExecutionError(
                    f"rule {delta.inst.rule.name!r} calls unregistered host "
                    f"function {name!r}"
                )
            fn(*args)

    @staticmethod
    def _target(inst: Instantiation, ce_index: int) -> WME:
        try:
            return inst.wme_for_ce(ce_index)
        except (IndexError, LookupError) as exc:
            raise ExecutionError(
                f"rule {inst.rule.name!r}: bad condition-element index "
                f"{ce_index} in RHS ({exc})"
            ) from None


def _render(value: Value) -> str:
    """How ``write`` prints values: symbols bare, numbers as Python."""
    if isinstance(value, str):
        return value
    return str(value)
