"""Critical-pair commutativity analysis over rule pairs.

PR 3's footprints answer "may these rules touch the same WMEs?" — a
question almost every pair answers *yes* to, because it ignores the
test-level semantics that make most overlaps impossible or harmless.
This module asks the sharper CHR-confluence-style question: **do the two
firings commute?** For each unordered rule pair (including self-pairs —
two distinct instantiations of one rule) it produces one of three
verdicts:

``COMMUTES``
    proven for *all* working memories: either no interference channel
    between the pair is satisfiable (constant/membership/range tests
    make every overlap contradictory under unification), or every
    feasible channel falls to a symbolic discharge (below).
``RACES``
    refuted by a **concrete witness**: a constructed working memory on
    which both instantiations exist (verified by running the real naive
    matcher) and whose two firing orders produce different net WM
    effects under the sequential replay of
    :mod:`repro.core.sanitize`. Rendered as PA007/PA008 diagnostics.
``UNKNOWN``
    neither — the analysis is honest about its limits (PA009).

Interference channels
---------------------

Under sequential-replay semantics every interaction between two firings
reduces to two ordered channel kinds:

- **retract → positive CE**: one firing retracts (``remove`` target or
  ``modify`` target) a WME that may alias a positive CE of the other,
  invalidating its match. This subsumes all write/write conflicts:
  modify/modify, modify/remove and remove/remove on one WME all begin
  with a retraction of it.
- **assert → negated CE**: one firing's ``make`` image (or ``modify``
  post-image) may alias a negated CE of the other, disabling it.

Asserts cannot invalidate a positive match and retracts cannot newly
match a negation, so there is no third kind. Feasibility of a channel
is decided by unification: every attribute constraint of both rules'
condition elements (constants, membership domains, numeric ranges,
bound-variable equalities across CEs) is loaded into a union-find
solver, the channel's aliasing is asserted, and an unsatisfiable store
proves the channel impossible.

Symbolic discharges
-------------------

Three pair shapes commute for *all* valuations even with feasible
channels; each constrains the rules' entire WM effect, so they never
mix on one pair:

- **identical-make (D1)** — both rules are single-``make``-only, each
  make is *self-guarded* (it provably matches the rule's own negated
  CE, so the rule never re-derives an existing fact), and each feasible
  assert channel's unification forces the two makes content-identical.
  Then either order nets exactly one new WME with one skip — with or
  without make-dedup. This is the transitive-closure pattern.
- **pure-remove (D2)** — both rules are single-``remove``-only and
  every feasible retract channel lands on the *other rule's removal
  target*: both orders net the removal of the same WME set.
- **identical-modify (D3)** — both rules are single-``modify``-only
  with equal all-constant update maps, and every feasible retract
  channel links the two modify *targets*: both orders rewrite the
  shared WME to the same content.

Rules whose RHS uses ``(genatom)`` or ``(call ...)`` are never
classified COMMUTES or RACES — fresh symbols and host effects are
outside the WM-only verdict. Verdicts feed four consumers: PA007–PA009
diagnostics in ``parulel analyze``, ``races`` edges in the dependency
graph, the PA001 filter (below), and the test-side audit that replays
every fired pair of a run (``tests/core/commute_audit.py``).

:func:`write_conflicts` lists the retract channels whose reader CE is
one of the reader's own ``modify``/``remove`` targets — two firings that
may write one WME: the dependency graph's ``conflicts`` edges and, on
pairs not proven COMMUTES, PA001.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import product
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import Diagnostic, diag
from repro.analysis.footprint import constraints_satisfiable
from repro.core.sanitize import PairReplayer, evaluate_delta_pure
from repro.lang.ast import (
    BindAction,
    CallAction,
    ConstantExpr,
    GenatomExpr,
    MakeAction,
    MetaRule,
    ModifyAction,
    Program,
    RedactAction,
    RemoveAction,
    Rule,
    Value,
    VariableExpr,
    _format_value,
)
from repro.match.compile import CompiledCE, CompiledRule, compile_rule, value_predicate
from repro.match.interface import create_matcher
from repro.match.instantiation import Instantiation
from repro.wm.memory import WorkingMemory
from repro.wm.wme import NIL, WME

__all__ = [
    "Verdict",
    "PairVerdict",
    "CommuteSummary",
    "InterferenceCandidate",
    "classify_rule_pair",
    "commute_matrix",
    "write_conflicts",
]


class Verdict(enum.Enum):
    COMMUTES = "commutes"
    RACES = "races"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class PairVerdict:
    """The classification of one unordered rule pair."""

    rule_a: str
    rule_b: str
    verdict: Verdict
    #: Human explanation: the discharge that proved it, the channel the
    #: witness exercised, or why the analysis gave up.
    reason: str
    #: Diagnostic code for the renderers (PA007/PA008 races, PA009 unknown).
    code: Optional[str] = None
    #: Witness working memory, one ``(class ^attr value ...)`` line per WME
    #: (RACES only).
    witness: Tuple[str, ...] = ()

    @property
    def key(self) -> str:
        return f"{self.rule_a}|{self.rule_b}"


# ---------------------------------------------------------------------------
# Union-find constraint solver
# ---------------------------------------------------------------------------

#: Symbolic value terms: ``('const', v)``, ``('var', ns, name)`` (an LHS
#: variable of the a- or b-instantiation), ``('wmeattr', ns, ce, attr)``
#: (an attribute of the WME matched at a CE) or ``('any', ns, n)`` (a
#: statically-opaque RHS value, e.g. a compute result).
Term = Tuple


def _term_key(term: Term):
    """Solver node key for a non-constant term."""
    if term[0] == "var":
        return ("var", term[1], term[2])
    if term[0] == "wmeattr":
        return ("wme", term[1], term[2], term[3])
    return ("any", term[1], term[2])


class _Solver:
    """Union-find over value nodes with per-class constant/membership/range
    constraints; every mutation reports satisfiability so callers can stop
    at the first contradiction."""

    def __init__(self) -> None:
        self.parent: Dict[object, object] = {}
        self.const: Dict[object, Value] = {}
        self.domain: Dict[object, FrozenSet[Value]] = {}
        self.preds: Dict[object, List[Tuple[str, Value]]] = {}
        #: Best-effort disequalities: (key, other-key-or-('const', v)).
        self.neqs: List[Tuple[object, object]] = []

    def find(self, key):
        self.parent.setdefault(key, key)
        root = key
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[key] != root:
            self.parent[key], key = root, self.parent[key]
        return root

    def _ok(self, root) -> bool:
        conds: List[Tuple] = []
        if root in self.const:
            conds.append(("eq", self.const[root]))
        if root in self.domain:
            if not self.domain[root]:
                return False
            conds.append(("in", tuple(self.domain[root])))
        conds.extend(("pred", op, v) for op, v in self.preds.get(root, ()))
        return constraints_satisfiable(conds)

    def set_const(self, key, value: Value) -> bool:
        root = self.find(key)
        if root in self.const:
            return self.const[root] == value
        self.const[root] = value
        return self._ok(root)

    def restrict(self, key, alternatives: Sequence[Value]) -> bool:
        root = self.find(key)
        alts = frozenset(alternatives)
        self.domain[root] = (
            self.domain[root] & alts if root in self.domain else alts
        )
        return self._ok(root)

    def add_pred(self, key, op: str, value: Value) -> bool:
        root = self.find(key)
        self.preds.setdefault(root, []).append((op, value))
        return self._ok(root)

    def union(self, k1, k2) -> bool:
        r1, r2 = self.find(k1), self.find(k2)
        if r1 == r2:
            return True
        self.parent[r2] = r1
        if r2 in self.const:
            c2 = self.const.pop(r2)
            if r1 in self.const:
                if self.const[r1] != c2:
                    return False
            else:
                self.const[r1] = c2
        if r2 in self.domain:
            d2 = self.domain.pop(r2)
            self.domain[r1] = (
                self.domain[r1] & d2 if r1 in self.domain else d2
            )
        if r2 in self.preds:
            self.preds.setdefault(r1, []).extend(self.preds.pop(r2))
        return self._ok(r1)

    def unify_term(self, key, term: Term) -> bool:
        """Equate a node with a term (constant or another node)."""
        if term[0] == "const":
            return self.set_const(key, term[1])
        return self.union(key, _term_key(term))

    def canonical(self, term: Term):
        """Identity of a term under the store: a forced constant, or its
        union-find root. Equal canonicals == provably equal values."""
        if term[0] == "const":
            return ("const", term[1])
        root = self.find(_term_key(term))
        if root in self.const:
            return ("const", self.const[root])
        return ("root", root)


# ---------------------------------------------------------------------------
# Symbolic rule effects
# ---------------------------------------------------------------------------


@dataclass
class _SymbolicRule:
    """One rule's LHS/RHS lifted to terms, role-tagged with namespace
    ``'a'`` or ``'b'`` so a self-pair's two instantiations stay distinct."""

    rule: Rule
    compiled: CompiledRule
    ns: str
    #: (class, attr -> term) per make, in action order.
    makes: List[Tuple[str, Dict[str, Term]]] = field(default_factory=list)
    #: (0-based target CE, attr -> term updates) per modify.
    modifies: List[Tuple[int, Dict[str, Term]]] = field(default_factory=list)
    #: 0-based CE indices removed.
    removes: List[int] = field(default_factory=list)
    blocked: Optional[str] = None

    @property
    def retract_ces(self) -> List[Tuple[int, str]]:
        """(0-based CE, 'remove'|'modify') per retraction the RHS issues."""
        out = [(idx, "remove") for idx in self.removes]
        out.extend((idx, "modify") for idx, _u in self.modifies)
        return out

    @property
    def make_only(self) -> bool:
        return len(self.makes) == 1 and not self.modifies and not self.removes

    @property
    def remove_only(self) -> bool:
        return len(self.removes) == 1 and not self.makes and not self.modifies

    @property
    def modify_only(self) -> bool:
        return len(self.modifies) == 1 and not self.makes and not self.removes


def _lift_rule(rule: Rule, ns: str) -> _SymbolicRule:
    compiled = compile_rule(rule, plan=False)
    sym = _SymbolicRule(rule=rule, compiled=compiled, ns=ns)
    if isinstance(rule, MetaRule):
        sym.blocked = "meta-rules fire at the meta level, not in parallel"
        return sym
    local_env: Dict[str, Term] = {}
    any_n = 0

    def expr_term(expr) -> Optional[Term]:
        nonlocal any_n
        if isinstance(expr, ConstantExpr):
            return ("const", expr.value)
        if isinstance(expr, VariableExpr):
            if expr.name in local_env:
                return local_env[expr.name]
            return ("var", ns, expr.name)
        if isinstance(expr, GenatomExpr):
            return None
        any_n += 1
        return ("any", ns, any_n)

    for action in rule.actions:
        if isinstance(action, CallAction):
            sym.blocked = "RHS calls a host function (order-observable effects)"
            return sym
        if isinstance(action, RedactAction):
            sym.blocked = "RHS redacts (meta-level action)"
            return sym
        if isinstance(action, BindAction):
            term = expr_term(action.expr)
            if term is None:
                sym.blocked = "RHS uses (genatom) — fresh symbols defeat analysis"
                return sym
            local_env[action.name] = term
        elif isinstance(action, MakeAction):
            attrs: Dict[str, Term] = {}
            for attr, expr in action.assignments:
                term = expr_term(expr)
                if term is None:
                    sym.blocked = "RHS uses (genatom) — fresh symbols defeat analysis"
                    return sym
                attrs[attr] = term
            sym.makes.append((action.class_name, attrs))
        elif isinstance(action, ModifyAction):
            updates: Dict[str, Term] = {}
            for attr, expr in action.assignments:
                term = expr_term(expr)
                if term is None:
                    sym.blocked = "RHS uses (genatom) — fresh symbols defeat analysis"
                    return sym
                updates[attr] = term
            sym.modifies.append((action.ce_index - 1, updates))
        elif isinstance(action, RemoveAction):
            sym.removes.extend(idx - 1 for idx in action.ce_indices)
        # write/halt: WM-only verdicts ignore them; bind handled above.
    return sym


def _tested_attrs(ce: CompiledCE) -> Set[str]:
    """Attributes a CE constrains or binds (what a shared WME must carry)."""
    out: Set[str] = set()
    for cond in ce.alpha_conds:
        if cond[0] == "intra":
            out.add(cond[1])
            out.add(cond[3])
        else:
            out.add(cond[1])
    out.update(attr for attr, _v in ce.bindings)
    out.update(attr for attr, _op, _v in ce.join_tests)
    return out


def _assert_images(sym: _SymbolicRule) -> List[Tuple[str, Dict[str, Term], bool, str]]:
    """(class, attr->term, closed, kind) per assertion the RHS issues.

    Make images are closed (unassigned attributes are provably ``nil``);
    modify post-images carry the update terms plus, for every attribute
    the target CE constrains, the matched WME's attribute node — open
    elsewhere.
    """
    out: List[Tuple[str, Dict[str, Term], bool, str]] = []
    for class_name, attrs in sym.makes:
        out.append((class_name, dict(attrs), True, "make"))
    for target, updates in sym.modifies:
        ce = sym.compiled.ces[target]
        image: Dict[str, Term] = {
            attr: ("wmeattr", sym.ns, target, attr)
            for attr in _tested_attrs(ce)
        }
        image.update(updates)
        out.append((ce.class_name, image, False, "modify"))
    return out


# ---------------------------------------------------------------------------
# Channels
# ---------------------------------------------------------------------------


@dataclass
class _Channel:
    """One feasible ordered interference channel, with its solver."""

    kind: str  # 'retract' | 'assert'
    writer: _SymbolicRule
    reader: _SymbolicRule
    reader_ce: int  # 0-based
    solver: _Solver
    writer_ce: int = -1  # retract channels: the retracted CE (0-based)
    writer_kind: str = ""  # 'remove' | 'modify' | 'make'
    image: Optional[Tuple[str, Dict[str, Term], bool]] = None  # assert channels

    def describe(self) -> str:
        if self.kind == "retract":
            return (
                f"{self.writer_kind} of CE {self.writer_ce + 1} of "
                f"{self.writer.rule.name!r} may invalidate CE "
                f"{self.reader_ce + 1} of {self.reader.rule.name!r}"
            )
        return (
            f"{self.writer_kind}-asserted {self.image[0]!r} WME of "
            f"{self.writer.rule.name!r} may disable negated CE "
            f"{self.reader_ce + 1} of {self.reader.rule.name!r}"
        )


def _load_positive_ces(solver: _Solver, sym: _SymbolicRule) -> bool:
    """Assert every positive CE's attribute constraints into the store."""
    for ce in sym.compiled.ces:
        if ce.negated:
            continue
        for cond in ce.alpha_conds:
            if cond[0] == "const":
                _k, attr, op, value = cond
                node = ("wme", sym.ns, ce.index, attr)
                if op == "=":
                    if not solver.set_const(node, value):
                        return False
                elif op == "<>":
                    solver.neqs.append((node, ("const", value)))
                else:
                    if not solver.add_pred(node, op, value):
                        return False
            elif cond[0] == "in":
                _k, attr, alts = cond
                if not solver.restrict(("wme", sym.ns, ce.index, attr), alts):
                    return False
            else:  # intra
                _k, attr, op, other = cond
                if op == "=":
                    if not solver.union(
                        ("wme", sym.ns, ce.index, attr),
                        ("wme", sym.ns, ce.index, other),
                    ):
                        return False
                elif op == "<>":
                    solver.neqs.append(
                        (
                            ("wme", sym.ns, ce.index, attr),
                            ("wme", sym.ns, ce.index, other),
                        )
                    )
        for attr, var in ce.bindings:
            if not solver.union(("wme", sym.ns, ce.index, attr), ("var", sym.ns, var)):
                return False
        for attr, op, var in ce.join_tests:
            node = ("wme", sym.ns, ce.index, attr)
            if op == "=":
                if not solver.union(node, ("var", sym.ns, var)):
                    return False
            elif op == "<>":
                solver.neqs.append((node, ("var", sym.ns, var)))
            # other predicates: left unconstrained (the matcher verification
            # of the witness rejects any valuation that violates them).
    return True


def _base_solver(a: _SymbolicRule, b: _SymbolicRule) -> Optional[_Solver]:
    solver = _Solver()
    if not _load_positive_ces(solver, a):
        return None
    if not _load_positive_ces(solver, b):
        return None
    return solver


def _apply_retract_channel(
    solver: _Solver, writer: _SymbolicRule, w_ce: int, reader: _SymbolicRule, r_ce: int
) -> bool:
    """Alias the writer's retracted WME with the reader's positive CE."""
    attrs = _tested_attrs(writer.compiled.ces[w_ce]) | _tested_attrs(
        reader.compiled.ces[r_ce]
    )
    for attr in sorted(attrs):
        if not solver.union(
            ("wme", writer.ns, w_ce, attr), ("wme", reader.ns, r_ce, attr)
        ):
            return False
    return True


def _apply_assert_channel(
    solver: _Solver,
    writer: _SymbolicRule,
    image: Tuple[str, Dict[str, Term], bool],
    reader: _SymbolicRule,
    r_ce: int,
    img_id: int,
) -> bool:
    """Constrain the asserted image to match the reader's negated CE."""
    _class, attrs, closed = image
    ce = reader.compiled.ces[r_ce]

    def img_node(attr: str):
        node = ("img", writer.ns, img_id, attr)
        term = attrs.get(attr)
        if term is None:
            if closed:
                return node if solver.set_const(node, NIL) else None
            return node  # open image: unconstrained attribute
        return node if solver.unify_term(node, term) else None

    for cond in ce.alpha_conds:
        if cond[0] == "const":
            _k, attr, op, value = cond
            node = img_node(attr)
            if node is None:
                return False
            if op == "=":
                if not solver.set_const(node, value):
                    return False
            elif op == "<>":
                solver.neqs.append((node, ("const", value)))
            else:
                if not solver.add_pred(node, op, value):
                    return False
        elif cond[0] == "in":
            _k, attr, alts = cond
            node = img_node(attr)
            if node is None or not solver.restrict(node, alts):
                return False
        else:  # intra
            _k, attr, op, other = cond
            n1, n2 = img_node(attr), img_node(other)
            if n1 is None or n2 is None:
                return False
            if op == "=" and not solver.union(n1, n2):
                return False
    for attr, op, var in ce.join_tests:
        node = img_node(attr)
        if node is None:
            return False
        if op == "=":
            if not solver.union(node, ("var", reader.ns, var)):
                return False
        elif op == "<>":
            solver.neqs.append((node, ("var", reader.ns, var)))
    return True


def _enumerate_channels(a: _SymbolicRule, b: _SymbolicRule) -> List[_Channel]:
    """All feasible ordered channels between the pair, each with a fresh
    solver holding both instantiations' constraints plus the aliasing."""
    channels: List[_Channel] = []
    for writer, reader in ((a, b), (b, a)):
        for w_ce, w_kind in writer.retract_ces:
            w_class = writer.compiled.ces[w_ce].class_name
            for ce in reader.compiled.ces:
                if ce.negated or ce.class_name != w_class:
                    continue
                solver = _base_solver(a, b)
                if solver is None:
                    return []  # a CE is self-contradictory; PA004's business
                if _apply_retract_channel(solver, writer, w_ce, reader, ce.index):
                    channels.append(
                        _Channel(
                            kind="retract",
                            writer=writer,
                            reader=reader,
                            reader_ce=ce.index,
                            solver=solver,
                            writer_ce=w_ce,
                            writer_kind=w_kind,
                        )
                    )
        for img_id, (i_class, i_attrs, i_closed, i_kind) in enumerate(
            _assert_images(writer)
        ):
            for ce in reader.compiled.ces:
                if not ce.negated or ce.class_name != i_class:
                    continue
                solver = _base_solver(a, b)
                if solver is None:
                    return []
                if _apply_assert_channel(
                    solver, writer, (i_class, i_attrs, i_closed), reader, ce.index, img_id
                ):
                    channels.append(
                        _Channel(
                            kind="assert",
                            writer=writer,
                            reader=reader,
                            reader_ce=ce.index,
                            solver=solver,
                            writer_kind=i_kind,
                            image=(i_class, i_attrs, i_closed),
                        )
                    )
    return channels


# ---------------------------------------------------------------------------
# Symbolic discharges
# ---------------------------------------------------------------------------


def _self_guarded(sym: _SymbolicRule) -> bool:
    """Does the rule's (single) make provably match one of its own negated
    CEs in every firing? The guard pattern of closure rules: the rule
    never re-derives a fact that already exists."""
    class_name, attrs = sym.makes[0]
    for ce in sym.compiled.ces:
        if not ce.negated or ce.class_name != class_name:
            continue
        ok = True
        for cond in ce.alpha_conds:
            if cond[0] != "const" or cond[2] != "=":
                ok = False
                break
            _k, attr, _op, value = cond
            term = attrs.get(attr, ("const", NIL))
            if term != ("const", value):
                ok = False
                break
        if not ok:
            continue
        for attr, op, var in ce.join_tests:
            if op != "=" or attrs.get(attr, ("const", NIL)) != ("var", sym.ns, var):
                ok = False
                break
        if ok:
            return True
    return False


def _discharge(a: _SymbolicRule, b: _SymbolicRule, channels: List[_Channel]) -> Optional[str]:
    """Try to prove every feasible channel harmless for all valuations.
    Returns the discharge name, or ``None`` when any channel resists."""
    if a.make_only and b.make_only:
        # D1: identical-make. All channels are assert→negCE (make-only rules
        # retract nothing); each must force the two makes content-identical,
        # and both makes must be self-guarded so the second order skips too.
        if not (_self_guarded(a) and _self_guarded(b)):
            return None
        ca, aa = a.makes[0]
        cb, ab = b.makes[0]
        if ca != cb or sorted(aa) != sorted(ab):
            return None
        for ch in channels:
            solver = ch.solver
            if any(
                solver.canonical(aa[attr]) != solver.canonical(ab[attr])
                for attr in aa
            ):
                return None
        return "identical-make discharge (self-guarded single makes unify)"
    if a.remove_only and b.remove_only:
        # D2: pure-remove. Every feasible retract channel must land on the
        # other rule's own removal target, so both orders net the same
        # removal set whether or not the targets alias.
        if all(
            ch.kind == "retract" and ch.reader_ce == ch.reader.removes[0]
            for ch in channels
        ):
            return "pure-remove discharge (removals target the aliased WME)"
        return None
    if a.modify_only and b.modify_only:
        # D3: identical-modify. Equal all-constant updates on the aliased
        # target: both orders rewrite it to the same content.
        ta, ua = a.modifies[0]
        tb, ub = b.modifies[0]
        if ua != ub or any(t[0] != "const" for t in ua.values()):
            return None
        if all(
            ch.kind == "retract"
            and ch.reader_ce == ch.reader.modifies[0][0]
            and ch.writer_ce == ch.writer.modifies[0][0]
            for ch in channels
        ):
            return "identical-modify discharge (equal constant updates)"
        return None
    return None


# ---------------------------------------------------------------------------
# Witness construction
# ---------------------------------------------------------------------------


class _WitnessFailure(Exception):
    """Internal: this channel admits no constructible witness."""


class _Valuation:
    """Assign concrete values to solver roots, preferring globally-distinct
    ones so unconstrained nodes do not alias by accident."""

    def __init__(self, solver: _Solver) -> None:
        self.solver = solver
        self.values: Dict[object, Value] = {}
        self.used: Set[Value] = set()
        self._fresh = 0

    def _avoid(self, root) -> Set[Value]:
        out: Set[Value] = set()
        for k1, k2 in self.solver.neqs:
            for mine, other in ((k1, k2), (k2, k1)):
                if mine[0] == "const":
                    continue
                if self.solver.find(mine) != root:
                    continue
                if other[0] == "const":
                    out.add(other[1])
                else:
                    o_root = self.solver.find(other)
                    if o_root in self.values:
                        out.add(self.values[o_root])
                    elif o_root in self.solver.const:
                        out.add(self.solver.const[o_root])
        return out

    def value_of(self, key) -> Value:
        root = self.solver.find(key)
        if root in self.values:
            return self.values[root]
        value = self._choose(root)
        self.values[root] = value
        self.used.add(value)
        return value

    def _choose(self, root) -> Value:
        solver = self.solver
        if root in solver.const:
            return solver.const[root]
        preds = solver.preds.get(root, [])
        avoid = self._avoid(root)
        if root in solver.domain:
            members = sorted(solver.domain[root], key=repr)
            ok = [
                v
                for v in members
                if all(value_predicate(op, v, c) for op, c in preds)
                and v not in avoid
            ]
            for v in ok:
                if v not in self.used:
                    return v
            if ok:
                return ok[0]
            raise _WitnessFailure(f"empty value domain at {root!r}")
        if preds:
            anchors = [c for _op, c in preds if isinstance(c, (int, float))]
            if len(anchors) != len(preds):
                raise _WitnessFailure(f"non-numeric range at {root!r}")
            candidates = sorted(
                {x for c in anchors for x in (c - 1, c, c + 1)} | {0}
            )
            for v in candidates:
                if v in avoid:
                    continue
                if all(value_predicate(op, v, c) for op, c in preds):
                    if v not in self.used:
                        return v
            for v in candidates:
                if v not in avoid and all(
                    value_predicate(op, v, c) for op, c in preds
                ):
                    return v
            raise _WitnessFailure(f"unsatisfiable numeric range at {root!r}")
        while True:
            self._fresh += 1
            v = f"w{self._fresh}"
            if v not in self.used and v not in avoid:
                return v


def _witness_wm(
    a: _SymbolicRule, b: _SymbolicRule, channel: _Channel
) -> Tuple[WorkingMemory, Dict[Tuple[str, int], WME]]:
    """Build a concrete WM realizing this channel's aliasing: one WME per
    positive CE of each instantiation, the aliased pair sharing one."""
    shared: Dict[Tuple[str, int], Tuple[str, int]] = {}
    if channel.kind == "retract":
        shared[(channel.reader.ns, channel.reader_ce)] = (
            channel.writer.ns,
            channel.writer_ce,
        )
    valuation = _Valuation(channel.solver)
    wm = WorkingMemory()
    by_slot: Dict[Tuple[str, int], WME] = {}
    for sym in (a, b):
        for ce in sym.compiled.ces:
            if ce.negated:
                continue
            slot = (sym.ns, ce.index)
            target = shared.get(slot)
            if target is not None and target in by_slot:
                by_slot[slot] = by_slot[target]
                continue
            attr_keys: Dict[str, object] = {
                attr: ("wme", sym.ns, ce.index, attr)
                for attr in _tested_attrs(ce)
            }
            if target is not None:
                # The shared WME must satisfy both CEs' constraints; the
                # solver already unified common attributes.
                other = channel.writer if sym.ns == channel.reader.ns else channel.reader
                for attr in _tested_attrs(other.compiled.ces[target[1]]):
                    attr_keys.setdefault(attr, ("wme", target[0], target[1], attr))
            attrs = {
                attr: valuation.value_of(key)
                for attr, key in sorted(attr_keys.items())
            }
            wme = wm.make(ce.class_name, attrs)
            by_slot[slot] = wme
            if target is not None:
                by_slot[target] = wme
    return wm, by_slot


def _expected_wmes(
    sym: _SymbolicRule, by_slot: Dict[Tuple[str, int], WME]
) -> Tuple[Optional[WME], ...]:
    return tuple(
        None if ce.negated else by_slot[(sym.ns, ce.index)]
        for ce in sym.compiled.ces
    )


def _find_instantiation(
    insts: Sequence[Instantiation], rule_name: str, wmes: Tuple[Optional[WME], ...]
) -> Optional[Instantiation]:
    for inst in insts:
        if inst.rule.name == rule_name and inst.wmes == wmes:
            return inst
    return None


def _render_wm(wm: WorkingMemory) -> Tuple[str, ...]:
    lines = []
    for wme in sorted(wm, key=lambda w: w.timestamp):
        attrs = " ".join(
            f"^{attr} {_format_value(value)}"
            for attr, value in sorted(wme.attributes.items())
        )
        lines.append(f"({wme.class_name} {attrs})" if attrs else f"({wme.class_name})")
    return tuple(lines)


def _try_witness(
    a: _SymbolicRule, b: _SymbolicRule, channel: _Channel
) -> Tuple[Optional[PairVerdict], str]:
    """Attempt to refute commutation on this channel. Returns (verdict,
    reason): a RACES verdict, or ``None`` with why this channel failed to
    produce one."""
    try:
        wm, by_slot = _witness_wm(a, b, channel)
    except _WitnessFailure as exc:
        return None, f"could not construct a witness ({exc})"
    rules = [a.rule] if a.rule is b.rule else [a.rule, b.rule]
    matcher = create_matcher("naive", rules, wm)
    try:
        insts = matcher.instantiations()
    finally:
        matcher.detach()
    exp_a = _expected_wmes(a, by_slot)
    exp_b = _expected_wmes(b, by_slot)
    if a.rule is b.rule and exp_a == exp_b:
        return None, "witness collapses the self-pair to one instantiation"
    inst_a = _find_instantiation(insts, a.rule.name, exp_a)
    inst_b = _find_instantiation(insts, b.rule.name, exp_b)
    if inst_a is None or inst_b is None:
        return None, "could not construct a witness (valuation fails the matcher)"
    da = evaluate_delta_pure(inst_a)
    db = evaluate_delta_pure(inst_b)
    if da is None or db is None:
        return None, "witness RHS not evaluable without engine state"
    replayer = PairReplayer(dedupe_makes=True)
    if replayer.replay((da, db)) == replayer.replay((db, da)):
        return None, "witness commutes; no proof for all valuations"
    writes_back = channel.kind == "retract" and any(
        ce_idx == channel.reader_ce for ce_idx, _kind in channel.reader.retract_ces
    )
    code = "PA007" if writes_back else "PA008"
    return (
        PairVerdict(
            rule_a=a.rule.name,
            rule_b=b.rule.name,
            verdict=Verdict.RACES,
            reason=f"firing orders diverge: {channel.describe()}",
            code=code,
            witness=_render_wm(wm),
        ),
        "",
    )


# ---------------------------------------------------------------------------
# Pair classification
# ---------------------------------------------------------------------------


def classify_rule_pair(rule_a: Rule, rule_b: Rule) -> PairVerdict:
    """Classify one unordered rule pair (pass the same rule twice for the
    self-pair: two distinct simultaneous instantiations of it)."""
    a = _lift_rule(rule_a, "a")
    b = _lift_rule(rule_b, "b")
    for sym in (a, b):
        if sym.blocked:
            return PairVerdict(
                rule_a=rule_a.name,
                rule_b=rule_b.name,
                verdict=Verdict.UNKNOWN,
                reason=f"{sym.rule.name!r}: {sym.blocked}",
                code="PA009",
            )
    channels = _enumerate_channels(a, b)
    if not channels:
        return PairVerdict(
            rule_a=rule_a.name,
            rule_b=rule_b.name,
            verdict=Verdict.COMMUTES,
            reason="no feasible interference channel",
        )
    discharged = _discharge(a, b, channels)
    if discharged is not None:
        return PairVerdict(
            rule_a=rule_a.name,
            rule_b=rule_b.name,
            verdict=Verdict.COMMUTES,
            reason=discharged,
        )
    failure = "undischarged channel"
    for channel in channels:
        verdict, why = _try_witness(a, b, channel)
        if verdict is not None:
            return verdict
        failure = why
    return PairVerdict(
        rule_a=rule_a.name,
        rule_b=rule_b.name,
        verdict=Verdict.UNKNOWN,
        reason=f"{channels[0].describe()}; {failure}",
        code="PA009",
    )


# ---------------------------------------------------------------------------
# Whole-program matrix
# ---------------------------------------------------------------------------


@dataclass
class CommuteSummary:
    """Verdicts for every unordered object-rule pair of one program."""

    name: str
    pairs: List[PairVerdict]

    @property
    def counts(self) -> Dict[str, int]:
        out = {v.value: 0 for v in Verdict}
        for pair in self.pairs:
            out[pair.verdict.value] += 1
        return out

    def of_verdict(self, verdict: Verdict) -> List[PairVerdict]:
        return [p for p in self.pairs if p.verdict == verdict]

    def commuting_names(self) -> Set[FrozenSet[str]]:
        """Unordered name pairs proven COMMUTES."""
        return {
            frozenset((p.rule_a, p.rule_b))
            for p in self.pairs
            if p.verdict == Verdict.COMMUTES
        }

    def verdict_map(self) -> Dict[str, str]:
        """``"a|b" -> "commutes"/"races"/"unknown"`` — the golden-file shape."""
        return {p.key: p.verdict.value for p in self.pairs}

    def diagnostics(self) -> List[Diagnostic]:
        out: List[Diagnostic] = []
        for pair in self.pairs:
            if pair.verdict == Verdict.RACES:
                hint = None
                if pair.witness:
                    hint = "witness working memory:\n" + "\n".join(
                        f"  {line}" for line in pair.witness
                    )
                out.append(
                    diag(
                        pair.code or "PA007",
                        f"rules {pair.rule_a!r} and {pair.rule_b!r} do not "
                        f"commute: {pair.reason}",
                        rule=pair.rule_a,
                        hint=hint,
                    )
                )
            elif pair.verdict == Verdict.UNKNOWN:
                out.append(
                    diag(
                        "PA009",
                        f"cannot classify rules {pair.rule_a!r} and "
                        f"{pair.rule_b!r}: {pair.reason}",
                        rule=pair.rule_a,
                    )
                )
        return out

    def as_properties(self) -> Dict[str, object]:
        return {
            "pairs": len(self.pairs),
            **{k: v for k, v in sorted(self.counts.items())},
        }


def commute_matrix(program: Program, name: str = "<program>") -> CommuteSummary:
    """Classify every unordered pair of the program's object rules
    (self-pairs included)."""
    rules = program.rules
    pairs: List[PairVerdict] = []
    for i, rule_a in enumerate(rules):
        for rule_b in rules[i:]:
            pairs.append(classify_rule_pair(rule_a, rule_b))
    return CommuteSummary(name=name, pairs=pairs)


# ---------------------------------------------------------------------------
# Write/write conflicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InterferenceCandidate:
    """Two rules that may issue conflicting writes to one WME."""

    rule_a: str
    rule_b: str  # == rule_a for self-interference
    class_name: str
    #: 1-based CE indices of the written condition elements.
    ce_a: int
    ce_b: int
    #: 'modify/modify', 'modify/remove' or 'remove/remove'.
    kind: str

    @property
    def names(self) -> FrozenSet[str]:
        """The unordered rule pair, as :meth:`CommuteSummary.commuting_names`
        keys it."""
        return frozenset((self.rule_a, self.rule_b))

    def describe(self) -> str:
        who = (
            f"two instantiations of {self.rule_a!r}"
            if self.rule_a == self.rule_b
            else f"{self.rule_a!r} and {self.rule_b!r}"
        )
        return (
            f"{who} may {self.kind} the same {self.class_name!r} WME "
            f"(CE {self.ce_a} vs CE {self.ce_b})"
        )


def _write_targets(rule: Rule) -> List[Tuple[int, str]]:
    """(0-based CE, 'modify'|'remove') per written CE, in action order.

    Not :attr:`_SymbolicRule.retract_ces`: that lists removes first, and
    a blocked rule's (a ``call``, say) stops at the blocking action.
    """
    out: List[Tuple[int, str]] = []
    for action in rule.actions:
        if isinstance(action, ModifyAction):
            out.append((action.ce_index - 1, "modify"))
        elif isinstance(action, RemoveAction):
            out.extend((idx - 1, "remove") for idx in action.ce_indices)
    return out


def _only_positive_ce(compiled: CompiledRule, index: int) -> bool:
    return [ce.index for ce in compiled.ces if not ce.negated] == [index]


def write_conflicts(program: Program) -> List[InterferenceCandidate]:
    """One candidate per feasible retract channel between two write
    targets, ordered by rule pair, then by the first rule's action order.

    Feasibility is the commute analysis's own: both rules' positive CEs
    plus the two targets' aliasing, unified. A self-pair from CE *i* to
    CE *i* is left out when *i* is the rule's only positive CE: two
    distinct instantiations matched two different WMEs there.
    """
    rules = [
        (rule, _write_targets(rule), compile_rule(rule, plan=False))
        for rule in program.rules
    ]
    out: List[InterferenceCandidate] = []
    for i, (rule_a, targets_a, compiled_a) in enumerate(rules):
        a = _SymbolicRule(rule=rule_a, compiled=compiled_a, ns="a")
        for rule_b, targets_b, compiled_b in rules[i:]:
            b = _SymbolicRule(rule=rule_b, compiled=compiled_b, ns="b")
            for (ce_a, kind_a), (ce_b, kind_b) in product(targets_a, targets_b):
                class_name = compiled_a.ces[ce_a].class_name
                if compiled_b.ces[ce_b].class_name != class_name:
                    continue
                if rule_a is rule_b and (
                    ce_b < ce_a  # unordered within one rule
                    or (ce_b == ce_a and _only_positive_ce(compiled_a, ce_a))
                ):
                    continue
                solver = _base_solver(a, b)
                if solver is None or not _apply_retract_channel(
                    solver, a, ce_a, b, ce_b
                ):
                    continue
                kind = "/".join(sorted((kind_a, kind_b)))
                cand = InterferenceCandidate(
                    rule_a.name, rule_b.name, class_name, ce_a + 1, ce_b + 1, kind
                )
                if cand not in out:  # a CE written twice by one RHS
                    out.append(cand)
    return out


# ---------------------------------------------------------------------------
# Golden-verdict gate (python -m repro.analysis.commute)
# ---------------------------------------------------------------------------


def _golden_path():
    import pathlib

    return (
        pathlib.Path(__file__).resolve().parents[3]
        / "benchmarks"
        / "results"
        / "COMMUTE_verdicts.json"
    )


def _registry_document() -> Dict[str, Dict[str, object]]:
    from repro.programs import REGISTRY

    doc: Dict[str, Dict[str, object]] = {}
    for workload_name in sorted(REGISTRY):
        workload = REGISTRY[workload_name]()
        summary = commute_matrix(workload.program, name=workload_name)
        doc[workload_name] = {
            "counts": summary.counts,
            "pairs": summary.verdict_map(),
        }
    return doc


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.commute",
        description="race-detector verdicts for every bundled workload, "
        "gated against the checked-in golden file",
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--check",
        action="store_true",
        help="recompute verdicts and fail on any drift from the golden file",
    )
    mode.add_argument(
        "--write",
        action="store_true",
        help="rewrite the golden file from the current analysis",
    )
    args = parser.parse_args(argv)

    path = _golden_path()
    doc = _registry_document()
    if args.write:
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
        return 0

    if not path.exists():
        print(f"golden verdict file missing: {path}")
        print("generate it with: python -m repro.analysis.commute --write")
        return 1
    golden = json.loads(path.read_text())
    failed = False
    for workload_name in sorted(set(doc) | set(golden)):
        want = golden.get(workload_name, {}).get("pairs", {})
        got = doc.get(workload_name, {}).get("pairs", {})
        drift = {
            key: (want.get(key, "<absent>"), got.get(key, "<absent>"))
            for key in set(want) | set(got)
            if want.get(key) != got.get(key)
        }
        if drift:
            failed = True
            print(f"commute {workload_name}: {len(drift)} verdict(s) drifted:")
            for key in sorted(drift):
                old, new = drift[key]
                print(f"  {key}: {old} -> {new}")
        else:
            counts = doc[workload_name]["counts"]
            print(
                f"commute {workload_name}: {counts['commutes']} commute, "
                f"{counts['races']} race, {counts['unknown']} unknown — OK"
            )
    if failed:
        print(
            "verdicts drifted; if intentional, refresh with: "
            "python -m repro.analysis.commute --write"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
