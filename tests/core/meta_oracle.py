"""Test-only oracle for the meta level: reify into the WM, retained matcher.

This is the redaction loop the engine used before the phase-local join:
every candidate is asserted into the working memory as an ``instantiation``
WME, a matcher retained across phases (``naive`` or ``rete``) lists the
meta-instantiations, redaction retracts the WME, and whatever survives is
discarded again before the firing phase. It is slower and churns every WM
listener, but it is the plain reading of "meta-rules match over the reified
conflict set", which is what makes it a reference.

:class:`~repro.core.redaction.MetaLevel` must agree with it on survivors,
every report field, timestamps and the order of meta ``write`` lines.

It stays a full pair enumeration. For redact-only meta-rules
``meta_firings`` counts the distinct instantiations they redact per
meta-cycle — so the oracle projects its own pairs onto the redacted id
there (a pair counts if it is the first of the meta-cycle to redact that
id), and counts every pair of every other rule.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.core.actions import ActionEvaluator
from repro.core.redaction import RedactionReport, reify_instantiation
from repro.errors import ExecutionError
from repro.lab.rete import create_lab_matcher
from repro.lang.analysis import INSTANTIATION_CLASS
from repro.lang.ast import (
    ConjunctiveTest,
    MetaRule,
    RedactAction,
    Value,
    VariableExpr,
    VariableTest,
)
from repro.match.instantiation import InstKey, Instantiation
from repro.wm.memory import WorkingMemory
from repro.wm.wme import WME

__all__ = ["OracleMetaLevel", "redact_only", "use_oracle"]


def _id_binder(rule: MetaRule, var: str):
    """Index of the positive ``instantiation`` CE whose ``^id`` is the first
    plain occurrence of ``<var>`` (its binder), else ``None``."""
    for index, ce in enumerate(rule.conditions):
        if ce.negated:
            continue
        for attr, test in ce.tests:
            atoms = test.tests if isinstance(test, ConjunctiveTest) else (test,)
            for atom in atoms:
                if isinstance(atom, VariableTest) and atom.name == var:
                    on_id = ce.class_name == INSTANTIATION_CLASS and attr == "id"
                    return index if on_id else None
    return None


def redact_only(rule: MetaRule) -> bool:
    """Every action is ``(redact <v>)``, each ``<v>`` a plain variable bound
    by ``^id`` of one and the same positive ``instantiation`` CE."""
    binders = set()
    for action in rule.actions:
        if not (
            isinstance(action, RedactAction)
            and isinstance(action.expr, VariableExpr)
        ):
            return False
        binders.add(_id_binder(rule, action.expr.name))
    return len(binders) == 1 and None not in binders


class OracleMetaLevel:
    """Drop-in for ``ParulelEngine.meta`` (see :func:`use_oracle`)."""

    def __init__(
        self,
        meta_rules: Sequence[MetaRule],
        wm: WorkingMemory,
        evaluator: ActionEvaluator,
        matcher_name: str = "naive",
        max_meta_cycles: int = 1000,
    ) -> None:
        self.meta_rules = tuple(meta_rules)
        self.wm = wm
        self.evaluator = evaluator
        self.max_meta_cycles = max_meta_cycles
        self.halt_requested = False
        self.writes: List[str] = []
        self.matcher = (
            create_lab_matcher(matcher_name, self.meta_rules, wm)
            if self.meta_rules
            else None
        )

    @property
    def enabled(self) -> bool:
        return self.matcher is not None

    def redact(
        self, candidates: Sequence[Instantiation]
    ) -> Tuple[List[Instantiation], RedactionReport]:
        self.halt_requested = False
        self.writes = []
        if not self.enabled or not candidates:
            return list(candidates), RedactionReport(len(candidates), 0, 0, 0)

        wme_by_id: Dict[int, WME] = {}
        for i, inst in enumerate(candidates, start=1):
            attrs = reify_instantiation(inst, i)
            wme_by_id[i] = self.wm.make(INSTANTIATION_CLASS, attrs)

        rule_pos = {r.name: pos for pos, r in enumerate(self.meta_rules)}
        projected = {r.name for r in self.meta_rules if redact_only(r)}
        redacted: Set[int] = set()
        fired: Set[InstKey] = set()
        meta_cycles = 0
        meta_firings = 0
        try:
            while meta_cycles < self.max_meta_cycles:
                # Meta firing order is the language's (LANGUAGE.md §6):
                # meta-rule position, then per-CE timestamps — not the order
                # the retained matcher lists its conflict set in.
                ready = sorted(
                    (
                        mi
                        for mi in self.matcher.instantiations()
                        if mi.key not in fired
                    ),
                    key=lambda mi: (rule_pos[mi.key[0]], mi.key[1]),
                )
                if not ready:
                    break
                meta_cycles += 1
                ids_this_cycle: List[Value] = []
                counted = set()
                for mi in ready:
                    fired.add(mi.key)
                    delta = self.evaluator.evaluate(mi)
                    if mi.key[0] not in projected:
                        meta_firings += 1
                    elif not counted.issuperset(delta.redacts):
                        counted.update(delta.redacts)
                        meta_firings += 1
                    self.writes.extend(delta.writes)
                    if delta.halt:
                        self.halt_requested = True
                    self.evaluator.run_calls(delta)
                    ids_this_cycle.extend(delta.redacts)
                progressed = False
                for raw_id in ids_this_cycle:
                    if not isinstance(raw_id, int):
                        raise ExecutionError(
                            f"(redact {raw_id!r}): redact needs the integer "
                            f"^id of an instantiation"
                        )
                    if raw_id in redacted:
                        continue
                    wme = wme_by_id.get(raw_id)
                    if wme is None:
                        raise ExecutionError(
                            f"(redact {raw_id}): no instantiation with that id "
                            f"in the current conflict set"
                        )
                    redacted.add(raw_id)
                    self.wm.remove(wme)
                    progressed = True
                if not progressed and not ids_this_cycle:
                    if all(mi.key in fired for mi in self.matcher.instantiations()):
                        break
            else:
                raise ExecutionError(
                    f"meta-program exceeded {self.max_meta_cycles} redaction "
                    f"cycles — likely a non-terminating meta-rule set"
                )
        finally:
            for i, wme in wme_by_id.items():
                if i not in redacted:
                    self.wm.discard(wme)

        survivors = [
            inst
            for i, inst in enumerate(candidates, start=1)
            if i not in redacted
        ]
        return survivors, RedactionReport(
            len(candidates), len(redacted), meta_cycles, meta_firings
        )


def use_oracle(engine, matcher_name: str = "naive") -> OracleMetaLevel:
    """Swap ``engine``'s meta level for the oracle (before anything runs)."""
    engine.meta = OracleMetaLevel(
        engine.program.meta_rules,
        engine.wm,
        engine.evaluator,
        matcher_name=matcher_name,
        max_meta_cycles=engine.config.max_meta_cycles,
    )
    return engine.meta
