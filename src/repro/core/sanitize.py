"""Sequential pair replay — how the commute analysis builds its PA007/PA008
witnesses, and how the tests audit its COMMUTES verdicts on real runs.

PARULEL evaluates every surviving instantiation against the *pre-firing*
snapshot and merges the deltas atomically, so "do these two firings
commute?" has a precise operational reading: replay the pair in both
orders under **sequential** semantics — the second firing is re-validated
against the first one's effects (its positive WMEs must still exist, its
negated CEs must still be unmatched) and skipped entirely when
invalidated — and compare the net working-memory effects. If the two
orders agree, no serialization of the pair can be observed through
working memory.

The replay is identity-based: retractions are tracked as a set of the
actual :class:`~repro.wm.wme.WME` objects (content-level tracking would
be wrong when duplicate-content WMEs with distinct timestamps coexist,
which is legal), and assertions as a multiset of content keys. Negated
CEs only need re-checking against *assertions* made during the replay:
the base WM already satisfied them before the cycle, assertions are the
only events that can newly match one, and retractions cannot.

``modify`` mirrors :func:`repro.core.delta.merge_deltas` exactly:
retract the old identity, assert the post-image — and modify-produced
assertions bypass make-dedup, just as the merge appends them outside
``seen_makes``.

Verdicts are WM-only: ``write`` lines, host calls and ``halt`` are
excluded from the comparison (the analysis layers above are responsible
for refusing to certify rules whose RHS has such effects).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.actions import ActionEvaluator, FiringDelta, MakeKey, make_key
from repro.errors import ExecutionError
from repro.lang.ast import Rule, Value
from repro.match.compile import (
    CompiledRule,
    alpha_test_passes,
    compile_rule,
    value_predicate,
)
from repro.match.instantiation import Instantiation
from repro.wm.wme import WME

__all__ = [
    "PairNet",
    "PairReplayer",
    "evaluate_delta_pure",
]

#: Net effect of one replay order: (retracted WME identities,
#: asserted-content multiset as sorted (key, count) pairs). Contents are
#: :func:`~repro.core.actions.make_key` s, the key
#: :func:`repro.core.delta.merge_deltas` dedupes makes on.
PairNet = Tuple[frozenset, Tuple[Tuple[MakeKey, int], ...]]


class _PureEvaluator(ActionEvaluator):
    """An evaluator with no fresh-symbol source: ``(genatom)`` raises, so
    callers learn the RHS is not evaluable without engine state."""

    def gensym(self, prefix: str) -> str:
        raise ExecutionError(
            "(genatom) cannot be evaluated outside the engine's evaluator"
        )


def evaluate_delta_pure(inst: Instantiation) -> Optional[FiringDelta]:
    """Evaluate ``inst``'s RHS from its environment alone, or ``None``.

    Returns ``None`` when the RHS is not certifiable without engine state
    or external effects: ``(genatom ...)`` (needs the engine's counter),
    host ``(call ...)`` (order-observable side effects), or any evaluation
    error (the real firing would fail too — nothing to certify).
    """
    try:
        # A fresh evaluator each time: its compiled-rule cache would
        # otherwise keep every analysed program's rules alive.
        delta = _PureEvaluator().evaluate(inst)
    except ExecutionError:
        return None
    if delta.calls:
        return None
    return delta


class PairReplayer:
    """Replays instantiation-delta sequences under sequential semantics.

    One instance per analysis run; it caches plan-free compiled rules
    (for negated-CE re-checking) and carries the engine's
    ``dedupe_makes`` setting so replays mirror the real merge.
    """

    def __init__(self, dedupe_makes: bool = True) -> None:
        self.dedupe_makes = dedupe_makes
        self._compiled: Dict[int, CompiledRule] = {}

    def _compiled_rule(self, rule: Rule) -> CompiledRule:
        cached = self._compiled.get(id(rule))
        if cached is None:
            cached = compile_rule(rule, plan=False)
            self._compiled[id(rule)] = cached
        return cached

    # -- validity ----------------------------------------------------------

    def _delta_valid(
        self,
        delta: FiringDelta,
        removed: Set[WME],
        added_contents: Sequence[Tuple[str, Dict[str, Value]]],
    ) -> bool:
        """Would this instantiation still exist after the effects so far?"""
        inst = delta.inst
        for wme in inst.wmes:
            if wme is not None and wme in removed:
                return False
        if added_contents:
            compiled = self._compiled_rule(inst.rule)
            for ce in compiled.ces:
                if not ce.negated:
                    continue
                for cls, attrs in added_contents:
                    if cls != ce.class_name:
                        continue
                    probe = WME(ce.class_name, attrs, 0)
                    if not alpha_test_passes(ce.alpha_conds, probe):
                        continue
                    if all(
                        value_predicate(op, probe.get(attr), inst.env[var])
                        for attr, op, var in ce.join_tests
                    ):
                        return False  # a new assertion matches the negation
        return True

    # -- replay ------------------------------------------------------------

    def replay(self, deltas: Sequence[FiringDelta]) -> PairNet:
        """Net WM effect of firing ``deltas`` in order, sequentially.

        The first delta is applied unconditionally (the engine only fires
        instantiations valid against the snapshot); each later delta is
        validity-checked against the accumulated effects and skipped
        whole when invalidated.
        """
        removed: Set[WME] = set()
        added: Counter = Counter()
        added_contents: List[Tuple[str, Dict[str, Value]]] = []
        seen_makes: Set[MakeKey] = set()
        for i, delta in enumerate(deltas):
            if i > 0 and not self._delta_valid(delta, removed, added_contents):
                continue
            for wme in delta.removes:
                removed.add(wme)
            for wme, updates in delta.modifies:
                removed.add(wme)
                attrs = wme.attributes
                attrs.update(updates)
                added[make_key(wme.class_name, attrs)] += 1
                added_contents.append((wme.class_name, attrs))
            for cls, attrs in delta.makes:
                key = make_key(cls, attrs)
                if self.dedupe_makes:
                    if key in seen_makes:
                        continue
                    seen_makes.add(key)
                added[key] += 1
                added_contents.append((cls, dict(attrs)))
        net_added = tuple(sorted((k, n) for k, n in added.items() if n))
        return (frozenset(removed), net_added)
