"""The meta level: programmable conflict resolution by redaction.

PARULEL replaces OPS5's built-in conflict-resolution strategies with
*meta-rules*: productions, written in the same language, that match over a
reified image of the conflict set and delete ("redact") instantiations that
must not fire. This module implements that level:

1. :func:`reify_instantiation` turns each candidate instantiation into the
   attributes of a WME of the reserved class ``instantiation`` carrying

   - ``rule`` — the rule name,
   - ``id`` — a small integer naming the instantiation within this cycle
     (what ``(redact <i>)`` consumes),
   - ``salience`` / ``specificity`` / ``recency`` — the orderings OPS5's
     strategies were built from, so meta-rules can express LEX/MEA-style
     preferences declaratively,
   - one attribute per LHS variable of the object rule, holding its bound
     value — so meta-rules can compare *what* two instantiations are about.

2. :class:`MetaLevel` runs the meta-program over those WMEs set-oriented
   to fixpoint and returns the surviving instantiations. The reified
   conflict set exists for one redaction phase only, so nothing about it
   is retained: the reifications are plain :class:`~repro.wm.wme.WME`
   objects held in phase-local alpha memories — they never enter the
   working memory, and no listener (object-level matcher, process-pool
   delta recorder, columnar store, checkpoint log) ever sees one — and
   each meta-cycle is one join-kernel call per meta-rule over the current
   memories: the full enumeration, or — for a meta-rule that only redacts
   ids bound by ``^id`` of one ``instantiation`` CE, which needs the set of
   that CE's matched WMEs and not the ⟨i, j⟩ pairs — the kernel's existence
   mode (:func:`~repro.match.join.project_matches`). A redact-only rule
   that drops the greater (or lesser) of two instantiations agreeing on
   some attributes — ``=`` pairs, one strict ``<`` or ``>``, at most an
   ``^id <>`` — skips the kernel: one scan of the partner memory keeps the
   least (or greatest) ordered value per equality group, then each
   candidate costs one lookup and one comparison (:class:`_Extremum`).
   Redacting a candidate removes its WME from the memories when a rule
   that tests for an absent instantiation is left to re-read them in a
   later meta-cycle, so it sees the shrunken conflict set; without one,
   the memories are never read again and keep it. Meta-rules may also
   consult ordinary WMEs; those come from one
   :class:`~repro.match.alphaindex.AlphaCache` attached to the working
   memory for the engine's lifetime.

   Every candidate still takes one working-memory timestamp, exactly as
   if it had been asserted, so ``recency`` values and every later
   timestamp are what they always were.

Fixpoint subtleties:

- meta-rule firings use per-phase refraction, so a meta-instantiation fires
  once per redaction phase even if its matched WMEs survive; a redact-only
  meta-rule fires once per instantiation it is the first to redact in a
  meta-cycle and keeps no refraction key — what it matched is gone before
  the next one;
- within a meta-cycle the ready meta-instantiations fire in compiled
  meta-rule order, then ascending per-CE timestamp tuple (the join
  enumerator's order) — the order ``write`` lines and ``call``s appear in;
- only removals from the reified set happen between meta-cycles, so after
  the first one a meta-rule without a negated ``instantiation`` CE has
  nothing new to offer (all its instantiations fired, and a removal
  enables none) and is not enumerated again;
- redacting id *i* twice (or redacting an id already gone) is idempotent;
- a symmetric meta-rule that redacts both members of a tie (e.g. matching
  ⟨i, j⟩ and ⟨j, i⟩) empties the pair — exactly as in PARULEL, the
  programmer must break ties (``^id < <j>``-style tests).
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import ExecutionError
from repro.core.actions import ActionEvaluator
from repro.lang.analysis import INSTANTIATION_CLASS
from repro.lang.ast import MetaRule, RedactAction, Rule, Value, VariableExpr
from repro.match.alphaindex import AlphaCache, IndexedMemory
from repro.match.compile import (
    AlphaKey,
    CompiledCE,
    CompiledRule,
    alpha_test_passes,
    compile_rules,
)
from repro.match.instantiation import InstKey, Instantiation
from repro.match.join import enumerate_matches, project_matches
from repro.match.stats import MatchStats
from repro.wm.memory import WorkingMemory
from repro.wm.wme import WME

__all__ = ["MetaLevel", "reify_instantiation", "RedactionReport"]

#: Attributes every reification carries (kept in sync with
#: :data:`repro.lang.analysis.INSTANTIATION_BUILTIN_ATTRS`).
_BUILTINS = ("rule", "id", "salience", "specificity", "recency")


def _reify_template(rule: Rule, variables: Iterable[str]) -> Dict[str, Value]:
    """What every reification of ``rule`` shares: the built-in attributes
    (``id`` and ``recency`` as placeholders), once ``variables`` — the names
    its instantiations bind — are known not to collide with them."""
    for var in variables:
        if var in _BUILTINS:
            raise ExecutionError(
                f"rule {rule.name!r}: variable <{var}> collides with the "
                f"built-in instantiation attribute {var!r}; rename it"
            )
    return {
        "rule": rule.name,
        "id": 0,
        "salience": rule.salience,
        "specificity": rule.specificity,
        "recency": 0,
    }


def reify_instantiation(inst: Instantiation, inst_id: int) -> Dict[str, Value]:
    """Attribute dict for the ``instantiation`` WME describing ``inst``.

    Raises :class:`~repro.errors.ExecutionError` if a rule variable collides
    with a built-in attribute name (rename the variable).
    """
    return _reify(_reify_template(inst.rule, inst.env), inst, inst_id)


def _reify(
    template: Dict[str, Value], inst: Instantiation, inst_id: int
) -> Dict[str, Value]:
    attrs = dict(template)
    attrs["id"] = inst_id
    attrs["recency"] = inst.recency
    attrs.update(inst.env)
    return attrs


def _projected_ce(compiled: CompiledRule) -> Optional[int]:
    """Index of the CE a redact-only meta-rule is projected on, else ``None``.

    Redact-only: at least one action, every one ``(redact <v>)`` with
    ``<v>`` a plain variable, all bound by ``^id`` of one and the same
    positive ``instantiation`` CE. Such a rule needs the set of that CE's
    matched WMEs, not its instantiations.
    """
    binders = compiled.binder_map()
    projected: Set[int] = set()
    for action in compiled.rule.actions:
        if not (
            isinstance(action, RedactAction)
            and isinstance(action.expr, VariableExpr)
        ):
            return None
        index, attr = binders.get(action.expr.name, (-1, ""))
        if (
            attr != "id"
            or compiled.ces[index].class_name != INSTANTIATION_CLASS
        ):
            return None
        projected.add(index)
    return projected.pop() if len(projected) == 1 else None


class _Extremum:
    """A redact-only meta-rule answered from one per-group extremum.

    The shape: two positive ``instantiation`` CEs; the second one, the
    *candidate*, is the one redacted, and its join tests against the first,
    the *partner*, are ``=`` pairs, exactly one strict ``<`` or ``>``, and
    at most one ``^id <> <i>`` on the partner's ``^id``. A candidate is then
    a witness iff some partner in its equality group is ordered below
    (``>``) or above (``<``) it — iff the group's least (``>``) or greatest
    (``<``) partner value is. So one scan of the partner memory keeps that
    extremum per equality-key tuple, and each candidate costs one lookup
    and one comparison.

    The id test needs no check when both sides of the order read the same
    attribute: a strict order already makes the two WMEs distinct, and
    reified ids are unique. Ordered on two different attributes, a WME can
    be its own partner, which the ``<>`` forbids: that shape qualifies only
    without it.
    """

    __slots__ = (
        "name",
        "partner_key",
        "candidate_key",
        "partner_attrs",
        "candidate_attrs",
        "partner_attr",
        "candidate_attr",
        "keep",
    )

    def __init__(
        self,
        name: str,
        partner_key: AlphaKey,
        candidate_key: AlphaKey,
        partner_attrs: Tuple[str, ...],
        candidate_attrs: Tuple[str, ...],
        partner_attr: str,
        candidate_attr: str,
        keep: Callable[[Value, Value], bool],
    ) -> None:
        self.name = name
        #: The phase memories the two CEs read.
        self.partner_key = partner_key
        self.candidate_key = candidate_key
        #: The equality keys, as the partner and the candidate read them.
        self.partner_attrs = partner_attrs
        self.candidate_attrs = candidate_attrs
        #: The ordered attribute, on each side.
        self.partner_attr = partner_attr
        self.candidate_attr = candidate_attr
        #: ``keep(a, b)``: ``a`` is the better bound, so a candidate value
        #: ``v`` is witnessed by its group's bound iff ``keep(bound, v)``.
        self.keep = keep

    @classmethod
    def classify(cls, compiled: CompiledRule, project: int) -> Optional["_Extremum"]:
        """The shape of ``compiled`` (projected on CE ``project``), or
        ``None`` when it must walk the join kernel."""
        ces = compiled.ces
        # The projected CE is a positive ``instantiation`` one, and the
        # first CE binds every variable the second one's join tests read.
        if (
            len(ces) != 2
            or project != 1
            or ces[0].negated
            or ces[0].class_name != INSTANTIATION_CLASS
        ):
            return None
        binders = compiled.binder_map()
        keys: List[Tuple[str, str]] = []
        order: Optional[Tuple[str, str, str]] = None
        id_distinct = False
        for attr, op, var in ces[1].join_tests:
            bound = binders[var][1]
            if op == "=":
                keys.append((bound, attr))
            elif op in ("<", ">") and order is None:
                order = (bound, op, attr)
            elif op == "<>" and attr == bound == "id" and not id_distinct:
                id_distinct = True
            else:
                return None
        if order is None or (id_distinct and order[0] != order[2]):
            return None
        partner_attr, op, candidate_attr = order
        return cls(
            compiled.name,
            ces[0].alpha_key,
            ces[1].alpha_key,
            tuple(p for p, _c in keys),
            tuple(c for _p, c in keys),
            partner_attr,
            candidate_attr,
            operator.lt if op == ">" else operator.gt,
        )

    def witnesses(
        self,
        reified: Dict[AlphaKey, IndexedMemory],
        witnessed: Set[int],
        stats: MatchStats,
    ) -> List[WME]:
        """The candidates not yet in ``witnessed`` that some partner
        witnesses, in timestamp order; they are added to ``witnessed``.
        Counters as the join kernel's existence mode: every WME read under
        ``join_probes``, each candidate lookup under ``hash_probes``, the
        witnesses under ``instantiations``."""
        keep = self.keep
        attrs = self.partner_attrs
        attr = self.partner_attr
        # key -> [symbol bound, number bound]: ordering predicates are false
        # across kinds, so a symbol never witnesses a number.
        bounds: Dict[Tuple, List[Optional[Value]]] = {}
        partners = reified[self.partner_key]
        for wme in partners:
            get = wme.get
            value = get(attr)
            if value != value:  # NaN is ordered against nothing
                continue
            kinds = bounds.setdefault(tuple(map(get, attrs)), [None, None])
            kind = isinstance(value, (int, float))
            bound = kinds[kind]
            if bound is None or keep(value, bound):
                kinds[kind] = value
        attrs = self.candidate_attrs
        attr = self.candidate_attr
        out: List[WME] = []
        tested = 0
        # Alpha memories hold their WMEs in timestamp order.
        for wme in reified[self.candidate_key]:
            if wme.timestamp in witnessed:
                continue
            tested += 1
            get = wme.get
            kinds = bounds.get(tuple(map(get, attrs)))
            if kinds is None:
                continue
            value = get(attr)
            bound = kinds[isinstance(value, (int, float))]
            if bound is not None and keep(bound, value):
                witnessed.add(wme.timestamp)
                out.append(wme)
        for counter, n in (
            ("join_probes", len(partners) + tested),
            ("hash_probes", tested),
            ("instantiations", len(out)),
        ):
            if n:
                stats.bump(counter, self.name, n)
        return out


class RedactionReport:
    """What one redaction phase did (feeds Table 3)."""

    __slots__ = ("candidates", "redacted", "meta_cycles", "meta_firings")

    def __init__(
        self,
        candidates: int,
        redacted: int,
        meta_cycles: int,
        meta_firings: int,
    ) -> None:
        self.candidates = candidates
        self.redacted = redacted
        self.meta_cycles = meta_cycles
        self.meta_firings = meta_firings

    @property
    def rule_tries(self) -> int:
        """Rule tries per step (Frühwirth & Gall): every candidate is
        offered to the meta-rules once per meta-cycle."""
        return self.candidates * self.meta_cycles

    def __repr__(self) -> str:
        return (
            f"RedactionReport(candidates={self.candidates}, "
            f"redacted={self.redacted}, meta_cycles={self.meta_cycles}, "
            f"meta_firings={self.meta_firings})"
        )


class _PhaseSource:
    """The join enumerator's alpha source for one redaction phase:
    ``instantiation`` CEs read the phase's reifications, every other class
    the cache attached to the working memory."""

    __slots__ = ("reified", "ordinary")

    def __init__(
        self, reified: Dict[AlphaKey, IndexedMemory], ordinary: AlphaCache
    ) -> None:
        self.reified = reified
        self.ordinary = ordinary

    def memory(self, ce: CompiledCE) -> IndexedMemory:
        if ce.class_name == INSTANTIATION_CLASS:
            return self.reified[ce.alpha_key]
        return self.ordinary.memory(ce)


class MetaLevel:
    """Runs the meta-program over reified conflict sets.

    One instance lives inside each :class:`~repro.core.engine.ParulelEngine`.
    It reads the engine's working memory (meta-rules can join ordinary WMEs
    with ``instantiation`` ones) and takes timestamps from it, but never
    writes to it.
    """

    def __init__(
        self,
        meta_rules: Sequence[MetaRule],
        wm: WorkingMemory,
        evaluator: ActionEvaluator,
        max_meta_cycles: int = 1000,
        indexed: bool = True,
    ) -> None:
        self.meta_rules = tuple(meta_rules)
        self.wm = wm
        self.evaluator = evaluator
        self.max_meta_cycles = max_meta_cycles
        self.indexed = indexed
        self.halt_requested = False
        self.writes: List[str] = []
        #: The meta level's join work, overall and per meta-rule — the same
        #: counters a matcher keeps (the simulators charge redaction from
        #: them, ``parulel profile`` lists them).
        self.stats = MatchStats()
        self.compiled: Tuple[CompiledRule, ...] = compile_rules(self.meta_rules)
        ces = [ce for compiled in self.compiled for ce in compiled.ces]
        #: One phase-local memory per distinct ``instantiation`` pattern.
        self._reified_keys: Tuple[AlphaKey, ...] = tuple(
            dict.fromkeys(
                ce.alpha_key for ce in ces if ce.class_name == INSTANTIATION_CLASS
            )
        )
        #: Meta-rules a redaction can enable: those that test for the
        #: *absence* of an instantiation. The ordinary classes cannot change
        #: during a phase, so every other rule is spent after one meta-cycle.
        self._recheck: Tuple[CompiledRule, ...] = tuple(
            compiled
            for compiled in self.compiled
            if any(
                ce.negated and ce.class_name == INSTANTIATION_CLASS
                for ce in compiled.ces
            )
        )
        #: Redact-only meta-rules -> the CE whose matched WMEs they redact;
        #: these go through the join kernel's existence mode, unless their
        #: shape is answered from a per-group extremum (``_extremum``).
        self._projected: Dict[str, int] = {}
        self._extremum: Dict[str, _Extremum] = {}
        for compiled in self.compiled:
            index = _projected_ce(compiled)
            if index is None:
                continue
            self._projected[compiled.name] = index
            shape = _Extremum.classify(compiled, index) if indexed else None
            if shape is not None:
                self._extremum[compiled.name] = shape
        #: Object rule name -> (rule, reification template), filled as
        #: rules turn up among the candidates.
        self._templates: Dict[str, Tuple[Rule, Dict[str, Value]]] = {}
        self._ordinary = AlphaCache(wm, self.stats)
        if any(ce.class_name != INSTANTIATION_CLASS for ce in ces):
            self._ordinary.attach()

    @property
    def enabled(self) -> bool:
        return bool(self.compiled)

    def redact(
        self, candidates: Sequence[Instantiation]
    ) -> Tuple[List[Instantiation], RedactionReport]:
        """Run the meta-program; return survivors (original order) + report."""
        self.halt_requested = False
        self.writes = []
        if not self.enabled or not candidates:
            return list(candidates), RedactionReport(len(candidates), 0, 0, 0)

        stats = self.stats
        templates = self._templates
        # Candidate id ``i`` reifies as ``wmes[i - 1]``.
        wmes: List[WME] = []
        reified = {key: IndexedMemory() for key in self._reified_keys}
        for i, inst in enumerate(candidates, start=1):
            rule = inst.rule
            known = templates.get(rule.name)
            if known is None or known[0] is not rule:
                known = templates[rule.name] = (
                    rule,
                    _reify_template(rule, inst.env),
                )
            wme = WME(
                INSTANTIATION_CLASS,
                _reify(known[1], inst, i),
                self.wm.allocate_timestamp(),
            )
            wmes.append(wme)
            for key, mem in reified.items():
                if alpha_test_passes(key[1], wme):
                    mem.add(wme)
        stats.bump("alpha_tests", n=len(wmes) * len(reified))

        source = _PhaseSource(reified, self._ordinary)
        redacted: Set[int] = set()
        fired: Set[InstKey] = set()
        meta_cycles = 0
        meta_firings = 0
        rules: Sequence[CompiledRule] = self.compiled
        while meta_cycles < self.max_meta_cycles:
            # Set-oriented firing at the meta level too: match all against
            # the current reified state, evaluate, then apply redactions.
            ready: List[Instantiation] = []
            ids_this_cycle: List[Value] = []
            witnessed: Set[int] = set()
            for compiled in rules:
                project = self._projected.get(compiled.name)
                if project is None:
                    ready.extend(
                        mi
                        for mi in enumerate_matches(
                            compiled,
                            self.wm,
                            stats,
                            alpha_source=source,
                            indexed=self.indexed,
                        )
                        if mi.key not in fired
                    )
                    continue
                # A redact-only rule fires once per WME it is the first to
                # redact, and needs no refraction: each of them is gone
                # after this meta-cycle, with every match it was part of.
                shape = self._extremum.get(compiled.name)
                if shape is not None:
                    found = shape.witnesses(reified, witnessed, stats)
                else:
                    found = project_matches(
                        compiled,
                        self.wm,
                        project,
                        stats,
                        alpha_source=source,
                        indexed=self.indexed,
                        witnessed=witnessed,
                    )
                ids_this_cycle.extend(wme.get("id") for wme in found)
            if not ready and not ids_this_cycle:
                break
            meta_cycles += 1
            meta_firings += len(ids_this_cycle) + len(ready)
            for mi in ready:
                fired.add(mi.key)
                delta = self.evaluator.evaluate(mi)
                self.writes.extend(delta.writes)
                if delta.halt:
                    self.halt_requested = True
                self.evaluator.run_calls(delta)
                ids_this_cycle.extend(delta.redacts)
            if not ids_this_cycle:
                # Everything matched has fired and nothing was removed:
                # fixpoint.
                break
            shrunk = False
            for raw_id in ids_this_cycle:
                if not isinstance(raw_id, int) or isinstance(raw_id, bool):
                    raise ExecutionError(
                        f"(redact {raw_id!r}): redact needs the integer "
                        f"^id of an instantiation"
                    )
                if raw_id in redacted:
                    continue
                if not 1 <= raw_id <= len(candidates):
                    raise ExecutionError(
                        f"(redact {raw_id}): no instantiation with that id "
                        f"in the current conflict set"
                    )
                redacted.add(raw_id)
                # Only a rechecked rule reads the memories again.
                if self._recheck:
                    for mem in reified.values():
                        mem.remove(wmes[raw_id - 1])
                shrunk = True
            # All that can change between meta-cycles is the reified set
            # getting smaller, which enables only absence tests over it.
            rules = self._recheck if shrunk else ()
        else:
            raise ExecutionError(
                f"meta-program exceeded {self.max_meta_cycles} redaction "
                f"cycles — likely a non-terminating meta-rule set"
            )

        survivors = [
            inst
            for i, inst in enumerate(candidates, start=1)
            if i not in redacted
        ]
        return survivors, RedactionReport(
            len(candidates),
            len(redacted),
            meta_cycles,
            meta_firings,
        )
