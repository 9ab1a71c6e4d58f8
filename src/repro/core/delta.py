"""Merging the firing deltas of a cycle into one atomic cycle delta.

PARULEL fires the whole (post-redaction) firing set against a snapshot.
Because firings cannot see each other's effects, two of them may issue
conflicting updates; the merge detects this **interference** and resolves it
according to policy:

``error`` (default)
    raise :class:`~repro.errors.InterferenceError`. This is the
    paper-faithful stance: PARULEL expects the *programmer's meta-rules* to
    redact conflicting instantiations, so surviving interference is a bug in
    the rule program.
``first``
    the earliest firing (conflict-set order — deterministic) wins; later
    conflicting updates to the same WME are dropped.
``merge``
    per-attribute last-write-wins, applied in firing order; a remove always
    dominates modifies.

What counts as interference on one WME:

- *modify vs modify* with differing values for a common attribute,
- *modify vs remove* (the modify loses meaning),
- plain double-remove and identical modifies are idempotent, never flagged.

Duplicate ``make`` s of identical content within one cycle collapse to a
single WME when ``dedupe_makes`` is on (the set-oriented reading of make as
set insertion — essential for closure-style programs where many firings
derive the same fact); with it off, each make creates its own element as in
OPS5.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Sequence, Tuple

from repro._record import Record
from repro.errors import InterferenceError
from repro.core.actions import FiringDelta, make_key
from repro.lang.ast import Value
from repro.wm.wme import WME

__all__ = ["InterferencePolicy", "CycleDelta", "merge_deltas"]


class InterferencePolicy(enum.Enum):
    """How to resolve conflicting updates inside one firing set."""

    ERROR = "error"
    FIRST = "first"
    MERGE = "merge"

    @classmethod
    def of(cls, value) -> "InterferencePolicy":
        if isinstance(value, cls):
            return value
        return cls(str(value).lower())


#: Provenance attribution for one entry of :attr:`CycleDelta.makes`:
#: ``(instantiation, kind, replaced_wme_or_None)`` with kind 'make'|'modify'.
MakeOrigin = Tuple[object, str, Optional[WME]]


class CycleDelta(Record):
    """The net, conflict-resolved effect of one firing phase."""

    __slots__ = (
        "removes", "makes", "make_origins", "writes", "halt",
        "conflicts_resolved", "makes_deduped",
    )

    def __init__(
        self,
        removes: Optional[List[WME]] = None,
        makes: Optional[List[Tuple[str, Dict[str, Value]]]] = None,
        make_origins: Optional[List[MakeOrigin]] = None,
        writes: Optional[List[str]] = None,
        halt: bool = False,
        conflicts_resolved: int = 0,
        makes_deduped: int = 0,
    ) -> None:
        #: WMEs to retract (modify targets included), in deterministic order.
        self.removes = [] if removes is None else removes
        #: New WMEs to assert: (class, attrs). Modify results included.
        self.makes = [] if makes is None else makes
        #: Parallel to ``makes`` when merged with ``origins`` (empty
        #: otherwise): who asked for each assertion (first firing wins
        #: attribution for deduped makes). Consumed by provenance tracking.
        self.make_origins = [] if make_origins is None else make_origins
        #: Output lines, in firing order.
        self.writes = [] if writes is None else writes
        self.halt = halt
        #: Number of proposed updates dropped by FIRST/MERGE resolution.
        self.conflicts_resolved = conflicts_resolved
        #: Number of duplicate makes collapsed by dedupe.
        self.makes_deduped = makes_deduped

    @property
    def size(self) -> int:
        return len(self.removes) + len(self.makes)


def merge_deltas(
    deltas: Sequence[FiringDelta],
    policy: InterferencePolicy = InterferencePolicy.ERROR,
    dedupe_makes: bool = True,
    origins: bool = True,
) -> CycleDelta:
    """Combine the cycle's firing deltas — one per batch of one rule's
    firings — into one :class:`CycleDelta`.

    Deterministic given delta order (engines pass firing order). Raises
    :class:`~repro.errors.InterferenceError` under the ``error`` policy
    when two firings conflict on a WME. Removes and modifies are resolved
    firing by firing, so a batch behaves exactly as its firings one after
    another; a batch with neither (make-only rules) skips that walk. With
    ``origins`` off, :attr:`CycleDelta.make_origins` stays empty.
    """
    out = CycleDelta()
    out_makes, out_origins = out.makes, out.make_origins

    removed: Dict[WME, str] = {}  # wme -> rule name that removed it
    # wme -> (first modifying instantiation, accumulated updates).
    modified: Dict[WME, Tuple[object, Dict[str, Value]]] = {}
    seen_makes: Dict[Tuple, None] = {}
    deduped = 0

    for delta in deltas:
        insts = delta.insts
        out.writes.extend(delta.writes)
        if delta.halt:
            out.halt = True
        if delta.removes or delta.modifies:
            n = len(insts)
            n_rem = len(delta.removes) // n
            n_mod = len(delta.modifies) // n
            for i, inst in enumerate(insts):
                _merge_firing(
                    out, removed, modified, policy, inst,
                    delta.removes[i * n_rem : (i + 1) * n_rem],
                    delta.modifies[i * n_mod : (i + 1) * n_mod],
                )

        makes = delta.makes
        if not makes:
            continue
        keys = delta.make_keys
        if dedupe_makes and keys is None:
            keys = [make_key(cls, attrs) for cls, attrs in makes]
        per = len(makes) // len(insts)
        for j, made in enumerate(makes):
            if dedupe_makes:
                key = keys[j]
                if key in seen_makes:
                    deduped += 1
                    continue
                seen_makes[key] = None
            out_makes.append(made)
            if origins:
                out_origins.append((insts[j // per], "make", None))
    out.makes_deduped = deduped

    # Assemble final order: removes (incl. modify retractions) then makes.
    out.removes.extend(removed)
    for wme, (inst, updates) in modified.items():
        out.removes.append(wme)
        merged = wme.attributes
        merged.update(updates)
        out_makes.append((wme.class_name, merged))
        if origins:
            out_origins.append((inst, "modify", wme))
    return out


def _merge_firing(
    out: CycleDelta,
    removed: Dict[WME, str],
    modified: Dict[WME, Tuple[object, Dict[str, Value]]],
    policy: InterferencePolicy,
    inst,
    removes: Sequence[WME],
    modifies: Sequence[Tuple[WME, Dict[str, Value]]],
) -> None:
    """One firing's removes, then its modifies, against what the earlier
    firings of the cycle removed and modified."""
    rule_name = inst.rule.name
    for wme in removes:
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
                continue  # the earlier modify wins, drop the remove
            # MERGE: remove dominates.
            del modified[wme]
            out.conflicts_resolved += 1
        removed.setdefault(wme, rule_name)

    for wme, updates in modifies:
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
            continue  # remove dominates (FIRST and MERGE alike)
        prior = modified.get(wme)
        if prior is None:
            modified[wme] = (inst, dict(updates))
            continue
        prior_inst, acc = prior
        prior_rule = prior_inst.rule.name
        clash = {
            a for a, v in updates.items() if a in acc and acc[a] != v
        }
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
                # Keep only this firing's non-clashing novelties.
                for a, v in updates.items():
                    acc.setdefault(a, v)
                continue
        # MERGE (or compatible updates): last write per attribute wins.
        if policy is InterferencePolicy.FIRST:
            for a, v in updates.items():
                acc.setdefault(a, v)
        else:
            acc.update(updates)
