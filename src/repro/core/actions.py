"""RHS evaluation: from a batch of one rule's instantiations to its
proposed WM delta.

Evaluation is **pure with respect to working memory**: an
:class:`ActionEvaluator` reads each instantiation's environment and matched
WMEs, and produces a :class:`FiringDelta` describing what the firings
*want* — makes, modifies, removes, output lines, host calls, halt.
Nothing touches the store here; PARULEL's set-oriented semantics requires
all firings of a cycle to be evaluated against the same snapshot before any
delta is applied, and this split is what guarantees it.

The engine hands over each rule's survivors as one batch
(:meth:`ActionEvaluator.evaluate_batch`); the sequential OPS5 baseline and
the meta level fire one instantiation at a time, a batch of one
(:meth:`ActionEvaluator.evaluate`). Either way a rule's action list is
compiled once, at its first firing, into closures over the batch — no
``exec``, no AST walk per firing.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro._record import Record
from repro.errors import ExecutionError
from repro.lang.ast import (
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
    Rule,
    Value,
    VariableExpr,
    WriteAction,
)
from repro.match.instantiation import Instantiation
from repro.wm.wme import WME

__all__ = [
    "ActionEvaluator",
    "FiringDelta",
    "HostFunction",
    "evaluate_expr",
    "make_key",
]

#: Signature of host callbacks reachable via ``(call fn ...)``.
HostFunction = Callable[..., None]

#: What a ``make`` is deduplicated on: the class and the attribute items
#: in sorted-name order.
MakeKey = Tuple[str, Tuple[Tuple[str, Value], ...]]


def make_key(class_name: str, attrs: Mapping[str, Value]) -> MakeKey:
    """The dedupe key of a proposed make (:func:`~repro.core.delta.merge_deltas`)."""
    return (class_name, tuple(sorted(attrs.items())))


class FiringDelta(Record):
    """Everything a batch of firings of one rule proposes.

    ``insts`` are the firings, in firing order; the effect lists hold every
    firing's effects, concatenated in that order. An RHS is straight-line,
    so each firing of a batch contributes the same number of removes,
    modifies and makes: firing ``i``'s share of ``removes`` is the slice
    ``[i * k, (i + 1) * k)`` with ``k = len(removes) // len(insts)``, and
    so on. A delta of one firing is a batch of one.

    ``modifies`` pairs the *old* WME with its attribute updates; the engine
    turns each into remove+make when applying, but keeps the pairing for
    interference analysis. ``make_keys``, when not ``None``, is parallel to
    ``makes`` and holds each make's :func:`make_key` (the evaluator builds
    it from attribute names sorted once, at compile time). ``redacts`` only
    ever comes from meta-rules.
    """

    __slots__ = (
        "insts", "makes", "make_keys", "removes", "modifies", "writes",
        "calls", "redacts", "halt",
    )

    def __init__(
        self,
        insts: Sequence[Instantiation],
        makes: Optional[List[Tuple[str, Dict[str, Value]]]] = None,
        make_keys: Optional[List[MakeKey]] = None,
        removes: Optional[List[WME]] = None,
        modifies: Optional[List[Tuple[WME, Dict[str, Value]]]] = None,
        writes: Optional[List[str]] = None,
        calls: Optional[List[Tuple[str, Tuple[Value, ...]]]] = None,
        redacts: Optional[List[Value]] = None,
        halt: bool = False,
    ) -> None:
        self.insts = insts
        self.makes = [] if makes is None else makes
        self.make_keys = make_keys
        self.removes = [] if removes is None else removes
        self.modifies = [] if modifies is None else modifies
        self.writes = [] if writes is None else writes
        self.calls = [] if calls is None else calls
        self.redacts = [] if redacts is None else redacts
        self.halt = halt

    @property
    def inst(self) -> Instantiation:
        """The first (for a batch of one, the only) firing."""
        return self.insts[0]

    @property
    def rule(self) -> Rule:
        return self.insts[0].rule

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

#: A compiled expression: environment -> value.
ExprFn = Callable[[Mapping[str, Value]], Value]


def _unbound(name: str) -> ExecutionError:
    return ExecutionError(f"unbound variable <{name}> on RHS")


def _no_gensym(prefix: str) -> str:
    raise ExecutionError("(genatom) used outside an action evaluator")


def compile_expr(expr: Expr, gensym: Optional[Gensym] = None) -> ExprFn:
    """Compile an RHS expression into a function of the environment.

    ``gensym`` supplies fresh symbols for ``(genatom ...)``; contexts that
    never see genatom (tests, meta-rule ids) may omit it. Every error —
    an unbound variable, bad arithmetic — is raised when the function is
    called, with the same text whatever the expression's position.
    """
    if isinstance(expr, ConstantExpr):
        value = expr.value
        return lambda env: value
    if isinstance(expr, VariableExpr):
        name = expr.name

        def variable(env: Mapping[str, Value]) -> Value:
            try:
                return env[name]
            except KeyError:
                raise _unbound(name) from None

        return variable
    if isinstance(expr, ComputeExpr):
        items = expr.items
        first = compile_expr(items[0], gensym)  # type: ignore[arg-type]
        rest = [
            (items[i], compile_expr(items[i + 1], gensym))  # type: ignore[arg-type]
            for i in range(1, len(items), 2)
        ]

        def compute(env: Mapping[str, Value]) -> Value:
            acc = first(env)
            for op, operand in rest:
                acc = _arith(op, acc, operand(env))  # type: ignore[arg-type]
            return acc

        return compute
    if isinstance(expr, GenatomExpr):
        fresh = gensym if gensym is not None else _no_gensym
        prefix = expr.prefix
        return lambda env: fresh(prefix)

    def unknown(env: Mapping[str, Value]) -> Value:
        raise ExecutionError(f"cannot evaluate {expr!r}")

    return unknown


def evaluate_expr(
    expr: Expr, env: Mapping[str, Value], gensym: Optional[Gensym] = None
) -> Value:
    """Evaluate an RHS expression in an environment (compiled, then
    called once: tooling and tests, not the firing path)."""
    return compile_expr(expr, gensym)(env)


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


#: A compiled action: ``(instantiation, environment, delta)`` -> None,
#: appending the action's effect to the delta.
ActionFn = Callable[[Instantiation, Dict[str, Value], FiringDelta], None]

#: A compiled rule: a batch of its instantiations -> their delta.
BatchFn = Callable[[Sequence[Instantiation]], FiringDelta]


def _compile_make(
    action: MakeAction, gensym: Gensym
) -> Callable[[Mapping[str, Value]], Tuple[Tuple[str, Dict[str, Value]], MakeKey]]:
    """A make as ``env -> ((class, attrs), dedupe key)``. Expressions run in
    source order (genatom numbering and the first error depend on it); the
    key's attribute order is fixed here, once."""
    class_name = action.class_name
    names = [attr for attr, _expr in action.assignments]
    exprs = [expr for _attr, expr in action.assignments]
    sorted_names = tuple(sorted(set(names)))
    if len(sorted_names) == len(names) and all(
        isinstance(e, VariableExpr) for e in exprs
    ):
        # All variables: one C-level fetch in sorted-name order. A miss
        # names the first unbound variable in source order, as the
        # expressions themselves would.
        variables = [e.name for e in exprs]  # type: ignore[union-attr]
        by_name = dict(zip(names, variables))
        fetch = itemgetter(*[by_name[n] for n in sorted_names])
        single = len(sorted_names) == 1

        def make_vars(env: Mapping[str, Value]):
            try:
                values = fetch(env)
            except KeyError:
                missing = next(v for v in variables if v not in env)
                raise _unbound(missing) from None
            items = tuple(zip(sorted_names, (values,) if single else values))
            return (class_name, dict(items)), (class_name, items)

        return make_vars
    fns = [compile_expr(e, gensym) for e in exprs]

    def make_any(env: Mapping[str, Value]):
        attrs = dict(zip(names, [fn(env) for fn in fns]))
        items = tuple([(n, attrs[n]) for n in sorted_names])
        return (class_name, attrs), (class_name, items)

    return make_any


def _compile_action(action, gensym: Gensym) -> ActionFn:
    if isinstance(action, MakeAction):
        build = _compile_make(action, gensym)

        def make(inst, env, out):
            made, key = build(env)
            out.makes.append(made)
            out.make_keys.append(key)

        return make
    if isinstance(action, ModifyAction):
        ce_index = action.ce_index
        updates = [(a, compile_expr(e, gensym)) for a, e in action.assignments]

        def modify(inst, env, out):
            wme = _target(inst, ce_index)
            out.modifies.append((wme, {a: fn(env) for a, fn in updates}))

        return modify
    if isinstance(action, RemoveAction):
        ce_indices = action.ce_indices

        def remove(inst, env, out):
            for idx in ce_indices:
                out.removes.append(_target(inst, idx))

        return remove
    if isinstance(action, WriteAction):
        parts = [compile_expr(e, gensym) for e in action.arguments]

        def write(inst, env, out):
            out.writes.append(" ".join([_render(fn(env)) for fn in parts]))

        return write
    if isinstance(action, BindAction):
        name, value = action.name, compile_expr(action.expr, gensym)

        def bind(inst, env, out):
            env[name] = value(env)

        return bind
    if isinstance(action, HaltAction):

        def halt(inst, env, out):
            out.halt = True

        return halt
    if isinstance(action, CallAction):
        function = action.function
        args = [compile_expr(e, gensym) for e in action.arguments]

        def call(inst, env, out):
            out.calls.append((function, tuple([fn(env) for fn in args])))

        return call
    if isinstance(action, RedactAction):
        redacted = compile_expr(action.expr, gensym)

        def redact(inst, env, out):
            out.redacts.append(redacted(env))

        return redact

    def unknown(inst, env, out):  # pragma: no cover - parser prevents this
        raise ExecutionError(f"unknown action {action!r}")

    return unknown


def _compile_rule(rule: Rule, gensym: Gensym) -> BatchFn:
    """One rule's actions as a function of a batch of its instantiations.

    ``bind`` extends a per-firing copy of the environment, visible to later
    actions of the same firing only — exactly OPS5's scoping; rules with no
    ``bind`` read each instantiation's environment in place. A rule whose
    actions are all makes runs a tighter loop: no per-action dispatch.
    """
    actions = rule.actions
    if actions and all(isinstance(a, MakeAction) for a in actions):
        builds = [_compile_make(a, gensym) for a in actions]

        def run_makes(insts: Sequence[Instantiation]) -> FiringDelta:
            makes: List[Tuple[str, Dict[str, Value]]] = []
            keys: List[MakeKey] = []
            add_make, add_key = makes.append, keys.append
            for inst in insts:
                env = inst.env
                for build in builds:
                    made, key = build(env)
                    add_make(made)
                    add_key(key)
            return FiringDelta(insts, makes=makes, make_keys=keys)

        return run_makes
    fns = [_compile_action(a, gensym) for a in actions]
    copies_env = any(isinstance(a, BindAction) for a in actions)

    def run(insts: Sequence[Instantiation]) -> FiringDelta:
        out = FiringDelta(insts, make_keys=[])
        for inst in insts:
            env = dict(inst.env) if copies_env else inst.env
            for fn in fns:
                fn(inst, env, out)
        return out

    return run


class ActionEvaluator:
    """Evaluates batches of one rule's instantiations into deltas."""

    def __init__(self, host_functions: Optional[Mapping[str, HostFunction]] = None) -> None:
        self.host_functions: Dict[str, HostFunction] = dict(host_functions or {})
        self._genatom_counts: Dict[str, int] = {}
        #: id(rule) -> (rule, its compiled batch function), built at the
        #: rule's first firing.
        self._compiled: Dict[int, Tuple[Rule, BatchFn]] = {}

    def register(self, name: str, fn: HostFunction) -> None:
        """Expose a Python callable to rules as ``(call name ...)``."""
        self.host_functions[name] = fn

    def gensym(self, prefix: str) -> str:
        """The fresh-symbol source behind ``(genatom prefix)``: ``prefix1``,
        ``prefix2``, ... — deterministic per evaluator (hence per engine)."""
        n = self._genatom_counts.get(prefix, 0) + 1
        self._genatom_counts[prefix] = n
        return f"{prefix}{n}"

    def evaluate_batch(self, insts: Sequence[Instantiation]) -> FiringDelta:
        """Run the RHS of every instantiation of ``insts`` — all of one
        rule, in firing order — and collect their proposed effects."""
        rule = insts[0].rule
        entry = self._compiled.get(id(rule))
        if entry is None or entry[0] is not rule:
            entry = self._compiled[id(rule)] = (rule, _compile_rule(rule, self.gensym))
        return entry[1](insts)

    def evaluate(self, inst: Instantiation) -> FiringDelta:
        """Run the RHS of one instantiation: a batch of one."""
        return self.evaluate_batch((inst,))

    def run_calls(self, delta: FiringDelta) -> None:
        """Invoke the host callbacks a delta collected (at apply time)."""
        for name, args in delta.calls:
            fn = self.host_functions.get(name)
            if fn is None:
                raise ExecutionError(
                    f"rule {delta.rule.name!r} calls unregistered host "
                    f"function {name!r}"
                )
            fn(*args)
