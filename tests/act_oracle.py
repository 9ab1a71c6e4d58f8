"""The per-instantiation act phase, as the reference.

:class:`OracleEvaluator` walks each firing's RHS action list over the AST,
one instantiation at a time, and :func:`oracle_merge` folds the per-firing
deltas into a :class:`~repro.core.delta.CycleDelta` one firing after
another. The engine compiles each rule's actions into a closure over a
batch of its firings and merges batches
(:mod:`repro.core.actions`, :func:`repro.core.delta.merge_deltas`); the
differential tests hold it to this reference: the same cycle delta, the
same error text.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.core.delta import CycleDelta, InterferencePolicy
from repro.errors import ExecutionError, InterferenceError
from repro.lang.ast import (
    BindAction,
    CallAction,
    ComputeExpr,
    ConstantExpr,
    GenatomExpr,
    HaltAction,
    MakeAction,
    ModifyAction,
    RedactAction,
    RemoveAction,
    VariableExpr,
    WriteAction,
)
from repro.match.instantiation import Instantiation
from repro.wm.wme import WME

__all__ = [
    "OracleDelta", "OracleEvaluator", "oracle_cycle", "oracle_merge", "outcome",
]


class OracleDelta:
    """What one firing proposes."""

    def __init__(self, inst: Instantiation) -> None:
        self.inst = inst
        self.makes: List[Tuple[str, Dict]] = []
        self.removes: List[WME] = []
        self.modifies: List[Tuple[WME, Dict]] = []
        self.writes: List[str] = []
        self.calls: List[Tuple[str, Tuple]] = []
        self.redacts: List = []
        self.halt = False


def _arith(op, a, b):
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
    if isinstance(result, float) and not math.isfinite(result):
        raise ExecutionError(
            f"compute: {a!r} {op} {b!r} is not a finite number"
        )
    return result


class OracleEvaluator:
    """One firing at a time, by walking the action AST."""

    def __init__(self) -> None:
        self._genatom_counts: Dict[str, int] = {}

    def gensym(self, prefix: str) -> str:
        n = self._genatom_counts.get(prefix, 0) + 1
        self._genatom_counts[prefix] = n
        return f"{prefix}{n}"

    def expr(self, expr, env: Mapping):
        if isinstance(expr, ConstantExpr):
            return expr.value
        if isinstance(expr, VariableExpr):
            try:
                return env[expr.name]
            except KeyError:
                raise ExecutionError(
                    f"unbound variable <{expr.name}> on RHS"
                ) from None
        if isinstance(expr, ComputeExpr):
            items = expr.items
            acc = self.expr(items[0], env)
            for i in range(1, len(items), 2):
                acc = _arith(items[i], acc, self.expr(items[i + 1], env))
            return acc
        if isinstance(expr, GenatomExpr):
            return self.gensym(expr.prefix)
        raise ExecutionError(f"cannot evaluate {expr!r}")

    def evaluate(self, inst: Instantiation) -> OracleDelta:
        env = dict(inst.env)
        delta = OracleDelta(inst)
        for action in inst.rule.actions:
            self._one(action, inst, env, delta)
        return delta

    def _one(self, action, inst, env, delta) -> None:
        if isinstance(action, MakeAction):
            attrs = {a: self.expr(e, env) for a, e in action.assignments}
            delta.makes.append((action.class_name, attrs))
        elif isinstance(action, ModifyAction):
            wme = self._target(inst, action.ce_index)
            updates = {a: self.expr(e, env) for a, e in action.assignments}
            delta.modifies.append((wme, updates))
        elif isinstance(action, RemoveAction):
            for idx in action.ce_indices:
                delta.removes.append(self._target(inst, idx))
        elif isinstance(action, WriteAction):
            parts = [self.expr(e, env) for e in action.arguments]
            delta.writes.append(
                " ".join(p if isinstance(p, str) else str(p) for p in parts)
            )
        elif isinstance(action, BindAction):
            env[action.name] = self.expr(action.expr, env)
        elif isinstance(action, HaltAction):
            delta.halt = True
        elif isinstance(action, CallAction):
            args = tuple(self.expr(e, env) for e in action.arguments)
            delta.calls.append((action.function, args))
        elif isinstance(action, RedactAction):
            delta.redacts.append(self.expr(action.expr, env))
        else:
            raise ExecutionError(f"unknown action {action!r}")

    @staticmethod
    def _target(inst: Instantiation, ce_index: int) -> WME:
        try:
            return inst.wme_for_ce(ce_index)
        except (IndexError, LookupError) as exc:
            raise ExecutionError(
                f"rule {inst.rule.name!r}: bad condition-element index "
                f"{ce_index} in RHS ({exc})"
            ) from None


def oracle_merge(
    deltas: Sequence[OracleDelta],
    policy: InterferencePolicy = InterferencePolicy.ERROR,
    dedupe_makes: bool = True,
) -> CycleDelta:
    """Per-firing deltas, one after another, into one cycle delta (make
    origins always built)."""
    out = CycleDelta()
    removed: Dict[WME, str] = {}
    modified: Dict[WME, Tuple[Instantiation, Dict]] = {}
    seen_makes: Dict[Tuple, None] = {}
    for delta in deltas:
        rule_name = delta.inst.rule.name
        out.writes.extend(delta.writes)
        if delta.halt:
            out.halt = True
        for wme in delta.removes:
            prior_mod = modified.get(wme)
            if prior_mod is not None:
                if policy is InterferencePolicy.ERROR:
                    raise InterferenceError(
                        f"interference on {wme!r}: modified by rule "
                        f"{prior_mod[0].rule.name!r} and removed by rule "
                        f"{rule_name!r} in the same cycle (add a meta-rule "
                        f"to redact one)",
                        wme=wme,
                        rules=(prior_mod[0].rule.name, rule_name),
                    )
                if policy is InterferencePolicy.FIRST:
                    out.conflicts_resolved += 1
                    continue
                del modified[wme]
                out.conflicts_resolved += 1
            removed.setdefault(wme, rule_name)
        for wme, updates in delta.modifies:
            if wme in removed:
                if policy is InterferencePolicy.ERROR:
                    raise InterferenceError(
                        f"interference on {wme!r}: removed by rule "
                        f"{removed[wme]!r} and modified by rule {rule_name!r} "
                        f"in the same cycle (add a meta-rule to redact one)",
                        wme=wme,
                        rules=(removed[wme], rule_name),
                    )
                out.conflicts_resolved += 1
                continue
            prior = modified.get(wme)
            if prior is None:
                modified[wme] = (delta.inst, dict(updates))
                continue
            prior_inst, acc = prior
            prior_rule = prior_inst.rule.name
            clash = {a for a, v in updates.items() if a in acc and acc[a] != v}
            if clash:
                if policy is InterferencePolicy.ERROR:
                    attrs = ", ".join(sorted(clash))
                    raise InterferenceError(
                        f"interference on {wme!r}: rules {prior_rule!r} and "
                        f"{rule_name!r} both modify attribute(s) {attrs} with "
                        f"different values (add a meta-rule to redact one)",
                        wme=wme,
                        rules=(prior_rule, rule_name),
                    )
                out.conflicts_resolved += 1
                if policy is InterferencePolicy.FIRST:
                    for a, v in updates.items():
                        acc.setdefault(a, v)
                    continue
            if policy is InterferencePolicy.FIRST:
                for a, v in updates.items():
                    acc.setdefault(a, v)
            else:
                acc.update(updates)
        for class_name, attrs in delta.makes:
            if dedupe_makes:
                key = (class_name, tuple(sorted(attrs.items())))
                if key in seen_makes:
                    out.makes_deduped += 1
                    continue
                seen_makes[key] = None
            out.makes.append((class_name, dict(attrs)))
            out.make_origins.append((delta.inst, "make", None))
    out.removes.extend(removed)
    for wme, (inst, updates) in modified.items():
        out.removes.append(wme)
        merged = wme.attributes
        merged.update(updates)
        out.makes.append((wme.class_name, merged))
        out.make_origins.append((inst, "modify", wme))
    return out


def oracle_cycle(
    evaluator: OracleEvaluator,
    insts: Sequence[Instantiation],
    policy: InterferencePolicy = InterferencePolicy.ERROR,
    dedupe_makes: bool = True,
) -> Tuple[CycleDelta, List[OracleDelta]]:
    """A firing set's cycle delta and per-firing deltas, the reference way."""
    deltas = [evaluator.evaluate(inst) for inst in insts]
    return oracle_merge(deltas, policy, dedupe_makes), deltas


def outcome(fn, *args, **kwargs):
    """``("ok", result)`` or ``("error", exception type name, text)``:
    what a call did, comparable across the two implementations."""
    try:
        return ("ok", fn(*args, **kwargs))
    except (ExecutionError, InterferenceError) as exc:
        return ("error", type(exc).__name__, str(exc))

