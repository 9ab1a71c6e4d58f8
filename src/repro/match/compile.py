"""Compilation of rule LHSs into a matcher-neutral form.

Every attribute test of a condition element falls into one of three buckets,
decided statically:

**Alpha tests** (WME-local, environment-free)
  constant equality, predicates against constants, disjunctions, and
  *intra-CE* variable consistency (the same variable used twice in one CE
  compiles to an attribute-vs-attribute comparison). Alpha tests form a
  hashable :class:`AlphaKey`, so identical patterns share one alpha memory
  across condition elements and rules in RETE/TREAT. A fourth kind comes
  from no source text: the *site* condition ``compile_rules(rules,
  site=(k, s))`` puts on every CE that shares the rule's split variable —
  copy-and-constrain at the alpha layer, for the process pool's workers
  (see :func:`split_keys` and :func:`value_residue`).

**Bindings**
  the first plain occurrence of each variable in a positive CE records
  ``(attr, var)``: matching extracts ``wme[attr]`` into the environment.

**Join tests** (environment-dependent)
  a variable occurrence whose binder is an *earlier* CE compiles to
  ``(attr, op, var)``: the candidate WME's attribute is compared against the
  token environment. Equality join tests additionally drive the hash
  indexes of RETE's join nodes and TREAT's seeded joins.

Compilation is strictly left-to-right over the CE list, mirroring OPS5:
a variable referenced by a predicate or a negated CE must already be bound
by an earlier (or textually earlier within the same) positive CE, otherwise
:class:`~repro.errors.MatchError` is raised.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import MatchError
from repro.lang.ast import (
    ConditionElement,
    ConjunctiveTest,
    ConstantTest,
    DisjunctionTest,
    PredicateTest,
    Rule,
    Value,
    VariableTest,
)
from repro.wm.wme import WME

__all__ = [
    "AlphaKey",
    "CompiledCE",
    "CompiledRule",
    "JoinPlan",
    "compile_rule",
    "compile_rules",
    "split_keys",
    "alpha_test_passes",
    "value_hash",
    "value_residue",
    "value_predicate",
]


# ---------------------------------------------------------------------------
# Predicate evaluation
# ---------------------------------------------------------------------------


def _is_number(x: Value) -> bool:
    return isinstance(x, (int, float))


def value_predicate(op: str, a: Value, b: Value) -> bool:
    """Evaluate ``a op b`` with OPS5 semantics.

    Equality and inequality are exact (no numeric coercion across type
    except int/float, which Python already treats as equal when equal-valued).
    Ordering predicates require two numbers or two symbols (symbols compare
    lexicographically); mixed comparisons are simply false rather than an
    error, matching the forgiving behaviour rule programs rely on.
    ``<=>`` is the same-type predicate.
    """
    if op == "=":
        return a == b
    if op == "<>":
        return a != b
    if op == "<=>":
        return _is_number(a) == _is_number(b)
    # Ordering predicates.
    if _is_number(a) != _is_number(b):
        return False
    if op == "<":
        return a < b  # type: ignore[operator]
    if op == "<=":
        return a <= b  # type: ignore[operator]
    if op == ">":
        return a > b  # type: ignore[operator]
    if op == ">=":
        return a >= b  # type: ignore[operator]
    raise MatchError(f"unknown predicate {op!r}")


# ---------------------------------------------------------------------------
# Compiled condition elements
# ---------------------------------------------------------------------------

#: One WME-local test: ``('const', attr, op, value)``,
#: ``('in', attr, alternatives)``, ``('intra', attr, op, other_attr)`` or
#: ``('site', attr, k, s)`` — ``value_residue(wme.get(attr), k) == s``,
#: with ``attr`` ``None`` meaning the WME's timestamp.
AlphaCond = Tuple

#: Hashable identity of an alpha pattern: class name + sorted alpha conds.
AlphaKey = Tuple[str, Tuple[AlphaCond, ...]]


@dataclass(frozen=True)
class CompiledCE:
    """One compiled condition element."""

    class_name: str
    negated: bool
    #: WME-local conditions, sorted — part of the alpha key.
    alpha_conds: Tuple[AlphaCond, ...]
    #: ``(attr, var)`` pairs that extract new bindings (positive CEs only).
    bindings: Tuple[Tuple[str, str], ...]
    #: ``(attr, op, var)`` comparisons against earlier bindings; the ``=``
    #: subset drives hash joins.
    join_tests: Tuple[Tuple[str, str, str], ...]
    #: Position of this CE in the rule (0-based, counting negated CEs).
    index: int
    #: Extra WME-local conditions produced when the CE was re-classified for
    #: a :class:`JoinPlan` visit order (e.g. a join test that became an
    #: intra-CE comparison because its binder moved later). They are *not*
    #: part of :attr:`alpha_key` — the alpha memory is shared with the
    #: identity classification — and are applied as post-probe filters.
    local_conds: Tuple[AlphaCond, ...] = ()

    @property
    def alpha_key(self) -> AlphaKey:
        return (self.class_name, self.alpha_conds)

    @property
    def eq_join_tests(self) -> Tuple[Tuple[str, str], ...]:
        """``(attr, var)`` pairs from equality join tests — hash-join keys."""
        return tuple((a, v) for (a, op, v) in self.join_tests if op == "=")

    @property
    def other_join_tests(self) -> Tuple[Tuple[str, str, str], ...]:
        """Join tests that are not plain equality (filtered post-hash-probe)."""
        return tuple(t for t in self.join_tests if t[1] != "=")


def value_hash(value: Value) -> int:
    """A 32-bit hash of an attribute value that every process agrees on and
    that is equal for equal values — the key :func:`value_residue` reduces.

    The contract is ``a == b`` ⇒ ``value_hash(a) == value_hash(b)``, in any
    process, whatever ``PYTHONHASHSEED`` or start method. Numbers take
    ``hash()``, which Python defines by value and seeds for no numeric type,
    so ``1``, ``1.0`` and ``True`` agree, ``0`` and ``-0.0`` agree, and an
    integral float agrees with the big int it equals. Symbols (``nil``
    included, which is also what an absent attribute reads as) take the CRC-32
    of their UTF-8 bytes: ``hash()`` of a string is seeded per process. NaN
    equals nothing, and its ``hash()`` is its address, so it gets a fixed
    hash. The result is finished with MurmurHash3's 32-bit finalizer:
    keys arrive in arithmetic progressions (consecutive ints, the
    timestamps a cycle allocates), and a residue of the raw key would deal
    every other one to the same site, where an avalanching mix has no bad
    stride worth naming. For an int in ``[0, 2**32)`` — every timestamp —
    the key is the int itself.
    """
    if isinstance(value, str):
        h = zlib.crc32(value.encode("utf-8", "surrogatepass"))
    elif value == value:
        h = hash(value)
        h = (h ^ h >> 32) & 0xFFFFFFFF
    else:  # NaN
        h = 0
    h ^= h >> 16
    h = h * 0x85EBCA6B & 0xFFFFFFFF
    h ^= h >> 13
    h = h * 0xC2B2AE35 & 0xFFFFFFFF
    return h ^ h >> 16


def value_residue(value: Value, k: int) -> int:
    """Which of ``k`` sites owns ``value``: :func:`value_hash` mod ``k``.
    Equal values — and so the values one join variable binds across the
    CEs that share it — always land on the same site."""
    return value_hash(value) % k


def alpha_test_passes(conds: Sequence[AlphaCond], wme: WME) -> bool:
    """Evaluate a CE's WME-local conditions against one WME."""
    for cond in conds:
        kind = cond[0]
        if kind == "const":
            _k, attr, op, value = cond
            if not value_predicate(op, wme.get(attr), value):
                return False
        elif kind == "in":
            _k, attr, alternatives = cond
            if wme.get(attr) not in alternatives:
                return False
        elif kind == "site":
            _k, attr, k, s = cond
            key = wme.timestamp if attr is None else wme.get(attr)
            if value_residue(key, k) != s:
                return False
        else:  # 'intra'
            _k, attr, op, other = cond
            if not value_predicate(op, wme.get(attr), wme.get(other)):
                return False
    return True


@dataclass(frozen=True)
class JoinPlan:
    """A deterministic CE visit order for the join enumerator.

    ``order[p]`` is the *original* index of the CE visited at position ``p``;
    ``ces[p]`` is that CE re-classified for this visit order (bindings and
    join tests flip to match what is bound when it is reached). The alpha
    conds of each re-classified CE are pinned to the identity classification
    so alpha memories stay shared; order-induced extras live in
    :attr:`CompiledCE.local_conds`.

    Plans never change semantics: the enumerator restores the original CE
    positions in each instantiation and sorts results into the order the
    identity (left-to-right) enumeration would have produced.
    """

    #: Original CE indexes in visit order (a permutation of ``range(n)``).
    order: Tuple[int, ...]
    #: The re-classified CEs, one per visit position.
    ces: Tuple[CompiledCE, ...]


@dataclass(frozen=True)
class CompiledRule:
    """A rule plus its compiled condition elements.

    :attr:`ces` is always the identity (left-to-right) classification —
    matchers that key alpha memories or beta networks off it see exactly
    what they always did. :attr:`plan` and :attr:`seeded_plans` are
    optional join-order improvements the enumerator may use; they are
    derived data and excluded from equality.
    """

    rule: Rule
    ces: Tuple[CompiledCE, ...]
    #: Most-bound-first visit order for full enumeration (``None`` when the
    #: identity order is already the planned order).
    plan: Optional[JoinPlan] = field(default=None, compare=False, repr=False)
    #: Per-positive-CE plans that visit that CE first (or as early as its
    #: bindings allow) — used when the enumerator pins a CE to one WME
    #: (TREAT's delta seeding). Indexed by original CE index; ``None`` for
    #: negated CEs and where identity is already optimal.
    seeded_plans: Tuple[Optional[JoinPlan], ...] = field(
        default=(), compare=False, repr=False
    )

    @property
    def name(self) -> str:
        return self.rule.name

    def seeded_plan(self, index: int) -> Optional[JoinPlan]:
        """Plan for enumeration pinned at original CE ``index`` (or None)."""
        if 0 <= index < len(self.seeded_plans):
            return self.seeded_plans[index]
        return None

    @property
    def positive_ces(self) -> Tuple[CompiledCE, ...]:
        return tuple(ce for ce in self.ces if not ce.negated)

    @property
    def negative_ces(self) -> Tuple[CompiledCE, ...]:
        return tuple(ce for ce in self.ces if ce.negated)

    @property
    def variables(self) -> Tuple[str, ...]:
        """All bound variables, in binding order."""
        out: List[str] = []
        for ce in self.ces:
            for _attr, var in ce.bindings:
                if var not in out:
                    out.append(var)
        return tuple(out)

    def binder_map(self) -> Dict[str, Tuple[int, str]]:
        """var -> (0-based CE index, attribute) of its binding occurrence.

        The identity classification binds each variable exactly once (at
        its first plain occurrence in a positive CE); join tests elsewhere
        only *compare* against the binding. Symbolic analyses (the commute
        detector) use this to translate an action's variable reference back
        to the CE attribute it reads.
        """
        out: Dict[str, Tuple[int, str]] = {}
        for ce in self.ces:
            for attr, var in ce.bindings:
                if var not in out:
                    out[var] = (ce.index, attr)
        return out


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


def _flatten_test(test) -> List:
    if isinstance(test, ConjunctiveTest):
        return list(test.tests)
    return [test]


def _classify_ce(
    rule: Rule,
    idx: int,
    bound: Dict[str, Tuple[int, str]],
    pinned_alpha: Optional[Tuple[AlphaCond, ...]] = None,
) -> CompiledCE:
    """Classify condition element ``idx`` given the variables already bound.

    Mutates ``bound`` with this CE's new bindings (only on success — a
    :class:`~repro.errors.MatchError` leaves it untouched, so planners can
    probe eligibility with a throwaway copy).

    With ``pinned_alpha`` (the identity classification's alpha conds for
    this CE), the produced :attr:`~CompiledCE.alpha_conds` are pinned to it
    — keeping the alpha key, and thus the shared alpha memory, stable under
    re-ordering — and any order-induced extra conds are routed to
    :attr:`~CompiledCE.local_conds`. Identity conds the re-classification
    did not reproduce are implied by alpha-memory membership, so nothing is
    lost.
    """
    ce = rule.conditions[idx]
    alpha: List[AlphaCond] = []
    bindings: List[Tuple[str, str]] = []
    join_tests: List[Tuple[str, str, str]] = []
    bound_here: Dict[str, str] = {}  # var -> attr bound within this CE

    def resolve_var_test(attr: str, op: str, var: str) -> None:
        """Classify a variable occurrence with predicate ``op``."""
        if var in bound_here:
            if op == "=" and bound_here[var] == attr:
                return  # redundant self-comparison
            alpha.append(("intra", attr, op, bound_here[var]))
        elif var in bound:
            join_tests.append((attr, op, var))
        elif op == "=" and not ce.negated:
            bindings.append((attr, var))
            bound_here[var] = attr
        else:
            where = "negated condition" if ce.negated else "predicate"
            raise MatchError(
                f"rule {rule.name!r}, condition {idx + 1}: variable <{var}> "
                f"used in a {where} before being bound by an earlier "
                f"positive condition"
            )

    for attr, test in ce.tests:
        for atom in _flatten_test(test):
            if isinstance(atom, ConstantTest):
                alpha.append(("const", attr, "=", atom.value))
            elif isinstance(atom, DisjunctionTest):
                alpha.append(("in", attr, atom.alternatives))
            elif isinstance(atom, VariableTest):
                resolve_var_test(attr, "=", atom.name)
            elif isinstance(atom, PredicateTest):
                if isinstance(atom.operand, ConstantTest):
                    alpha.append(("const", attr, atom.predicate, atom.operand.value))
                else:
                    resolve_var_test(attr, atom.predicate, atom.operand.name)
            else:  # pragma: no cover - parser prevents this
                raise MatchError(f"unsupported test {atom!r}")

    for var, attr in bound_here.items():
        bound[var] = (idx, attr)

    if pinned_alpha is None:
        alpha_conds = tuple(sorted(alpha, key=repr))
        local_conds: Tuple[AlphaCond, ...] = ()
    else:
        alpha_conds = pinned_alpha
        known = set(pinned_alpha)
        local_conds = tuple(sorted((c for c in alpha if c not in known), key=repr))

    return CompiledCE(
        class_name=ce.class_name,
        negated=ce.negated,
        alpha_conds=alpha_conds,
        bindings=tuple(bindings),
        join_tests=tuple(join_tests),
        index=idx,
        local_conds=local_conds,
    )


# ---------------------------------------------------------------------------
# Join planning
# ---------------------------------------------------------------------------


def _tightness(identity_ce: CompiledCE, bound: Dict[str, Tuple[int, str]]) -> int:
    """How many of this CE's variable occurrences reference already-planned
    bindings — the 'most-bound-first' half of the planner's score."""
    t = sum(1 for _attr, var in identity_ce.bindings if var in bound)
    t += sum(1 for _attr, _op, var in identity_ce.join_tests if var in bound)
    return t


def _plan_rule(
    rule: Rule,
    identity: Tuple[CompiledCE, ...],
    pinned: Optional[int],
) -> Optional[JoinPlan]:
    """Greedy join plan: positive CEs most-bound-first (ties: more alpha
    conds as a selectivity proxy, then lowest original index), negated CEs
    floated to the earliest point all their variables are bound. With
    ``pinned``, that CE is visited first (or as early as its own variable
    uses allow) — the shape delta-seeded enumeration wants.

    Returns ``None`` when the chosen order is the identity order (no plan
    needed). Deterministic: a pure function of the rule.
    """
    n = len(identity)
    if n <= 1:
        return None
    by_idx = {ce.index: ce for ce in identity}
    remaining_pos = [ce.index for ce in identity if not ce.negated]
    remaining_neg = [ce.index for ce in identity if ce.negated]
    bound: Dict[str, Tuple[int, str]] = {}
    order: List[int] = []
    ces: List[CompiledCE] = []

    def try_place(idx: int) -> bool:
        trial = dict(bound)
        try:
            cce = _classify_ce(rule, idx, trial, pinned_alpha=by_idx[idx].alpha_conds)
        except MatchError:
            return False  # references a variable not yet bound in this order
        bound.clear()
        bound.update(trial)
        order.append(idx)
        ces.append(cce)
        return True

    def flush_negatives() -> None:
        progress = True
        while progress:
            progress = False
            for idx in list(remaining_neg):
                if try_place(idx):
                    remaining_neg.remove(idx)
                    progress = True

    if pinned is not None and try_place(pinned):
        remaining_pos.remove(pinned)
    flush_negatives()
    while remaining_pos:
        scored = sorted(
            remaining_pos,
            key=lambda idx: (
                _tightness(by_idx[idx], bound),
                len(by_idx[idx].alpha_conds),
                -idx,
            ),
            reverse=True,
        )
        if pinned is not None and pinned in remaining_pos:
            # Keep trying to front-load the pinned CE until it fits.
            scored.remove(pinned)
            scored.insert(0, pinned)
        for idx in scored:
            if try_place(idx):
                remaining_pos.remove(idx)
                break
        else:  # pragma: no cover - the lowest unplaced index always fits
            return None
        flush_negatives()

    if len(order) != n:  # pragma: no cover - negated CEs always place last
        return None
    if order == sorted(order):
        return None  # identity order: the plain classification suffices
    return JoinPlan(order=tuple(order), ces=tuple(ces))


def split_keys(ces: Sequence[CompiledCE]) -> Dict[int, Optional[str]]:
    """Where a rule's site conditions go: ``{CE index: attribute}``, the
    attribute ``None`` standing for the WME's timestamp. A pure function of
    the identity classification, so every process that compiles the rule
    picks the same split.

    The split variable is the one that occurs with ``=`` (as a binding or
    an equality join test) in the most negated CEs, then in the most CEs
    of either kind, the earliest bound on ties: every CE that carries it
    is keyed on the attribute it occurs at. Negated CEs count first
    because an unsplit one must be judged against its whole memory at
    every site, and every site probes every new WME of it. All CEs of one
    match see one value there, so each match lands on exactly one site,
    and a WME that could block it is at that site too.

    When no variable occurs in two CEs there is nothing to share a value
    with, and the rule is split on the timestamp of one positive CE: the
    one with the fewest alpha conditions (the widest memory, so the most
    to divide), leftmost on ties. Each match has exactly one WME there.
    """
    #: var -> {CE index: attribute}, in binding order (a variable's first
    #: occurrence is its binding, and CEs are visited left to right).
    occurs: Dict[str, Dict[int, str]] = {}
    for ce in ces:
        for attr, var in ce.bindings + ce.eq_join_tests:
            occurs.setdefault(var, {}).setdefault(ce.index, attr)
    best: Optional[Dict[int, str]] = None
    best_score = (0, 1)
    for at in occurs.values():
        score = (sum(ces[i].negated for i in at), len(at))
        if score > best_score:
            best, best_score = at, score
    if best is not None:
        return dict(best)
    widest = min(
        (ce for ce in ces if not ce.negated),
        key=lambda ce: (len(ce.alpha_conds), ce.index),
    )
    return {widest.index: None}


def compile_rule(
    rule: Rule, plan: bool = True, site: Optional[Tuple[int, int]] = None
) -> CompiledRule:
    """Compile one rule's LHS; raises :class:`~repro.errors.MatchError` on
    binding-order violations (forward references, binding inside negation).

    With ``plan`` (the default), also derives the join plans the indexed
    enumerator uses; ``plan=False`` skips them (identity classification
    only, byte-identical to the historical compiler output).

    ``site=(k, s)`` with ``k > 1`` compiles site ``s``'s share of the rule:
    each CE :func:`split_keys` names also requires ``('site', attr, k,
    s)``, in :attr:`~CompiledRule.ces` and in every plan alike (plans pin
    their alpha conditions to the identity classification's). The
    condition is part of those CEs' alpha keys, so each gets a memory of
    its own — the site's residue of the pattern — while the other CEs keep
    the complete, shared ones. The ``k`` shares of a rule are pairwise
    disjoint and their union is the unconstrained rule's matches: the
    split variable has one value per match, and that value one residue;
    a WME that blocks a match at a keyed negated CE equals it there, so it
    has the same residue and is in that site's memory.
    """
    bound: Dict[str, Tuple[int, str]] = {}  # var -> (ce index, attr) of binder
    compiled: List[CompiledCE] = []
    for idx in range(len(rule.conditions)):
        compiled.append(_classify_ce(rule, idx, bound))

    if compiled and compiled[0].negated:
        raise MatchError(f"rule {rule.name!r}: first condition element is negated")
    if site is not None and site[0] > 1 and compiled:
        k, s = site
        if not 0 <= s < k:
            raise ValueError(f"site {s} is not one of {k}")
        for idx, attr in split_keys(compiled).items():
            compiled[idx] = replace(
                compiled[idx],
                alpha_conds=compiled[idx].alpha_conds + (("site", attr, k, s),),
            )
    ces = tuple(compiled)
    join_plan: Optional[JoinPlan] = None
    seeded: Tuple[Optional[JoinPlan], ...] = ()
    if plan:
        join_plan = _plan_rule(rule, ces, None)
        seeded = tuple(
            _plan_rule(rule, ces, ce.index) if not ce.negated else None
            for ce in ces
        )
    return CompiledRule(rule=rule, ces=ces, plan=join_plan, seeded_plans=seeded)


def compile_rules(
    rules: Sequence[Rule], site: Optional[Tuple[int, int]] = None
) -> Tuple[CompiledRule, ...]:
    """Compile a sequence of rules, preserving order; with ``site=(k, s)``
    each rule's share for site ``s`` of ``k`` (see :func:`compile_rule`)."""
    return tuple(compile_rule(r, site=site) for r in rules)
