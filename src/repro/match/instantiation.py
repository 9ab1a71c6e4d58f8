"""Instantiations and the conflict set.

An :class:`Instantiation` is one complete match of a rule: the WMEs bound to
each positive condition element plus the variable environment they induce.
Instantiations are value objects — their :attr:`~Instantiation.key`
``(rule name, per-CE timestamps)`` identifies them across match engines, so
refraction, redaction, and differential tests all speak one language.

The :class:`ConflictSet` is an insertion-ordered dict of instantiations keyed
by that identity, with the derived orderings OPS5's LEX/MEA strategies and
PARULEL's meta level need (recency vectors, specificity). It holds what can
still fire: the engines hand each fired instantiation back to
:meth:`ConflictSet.consume`, so an entry refraction bars leaves the set
instead of staying matched until one of its WMEs goes.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.lang.ast import Rule, Value
from repro.wm.wme import WME

__all__ = ["Instantiation", "ConflictSet", "InstKey"]

#: Identity of an instantiation: rule name + timestamp per CE (0 where the
#: CE is negated and thus matched by absence).
InstKey = Tuple[str, Tuple[int, ...]]

#: Variable names an environment index is keyed on, in key order.
EnvVars = Tuple[str, ...]

_NO_INDEXES: Dict = {}


def _index_wmes(
    by_wme: Dict[WME, Dict[InstKey, "Instantiation"]],
    key: InstKey,
    inst: "Instantiation",
) -> None:
    """File ``inst`` under every WME it matched at a positive CE."""
    for wme in inst.wmes:
        if wme is not None:
            bucket = by_wme.get(wme)
            if bucket is None:
                bucket = by_wme[wme] = {}
            bucket[key] = inst


class Instantiation:
    """One complete match of a rule against working memory."""

    __slots__ = ("rule", "wmes", "env", "key", "_hash")

    def __init__(
        self,
        rule: Rule,
        wmes: Tuple[Optional[WME], ...],
        env: Mapping[str, Value],
    ) -> None:
        if len(wmes) != len(rule.conditions):
            raise ValueError(
                f"instantiation of {rule.name!r} has {len(wmes)} WMEs for "
                f"{len(rule.conditions)} condition elements"
            )
        self.rule = rule
        self.wmes = wmes
        self.env: Dict[str, Value] = dict(env)
        self.key: InstKey = (
            rule.name,
            tuple(w.timestamp if w is not None else 0 for w in wmes),
        )
        self._hash = hash(self.key)

    # -- derived orderings -------------------------------------------------

    @property
    def timestamps(self) -> Tuple[int, ...]:
        """Timestamps of the matched (positive) WMEs, descending — the
        recency vector LEX compares lexicographically."""
        return tuple(
            sorted((w.timestamp for w in self.wmes if w is not None), reverse=True)
        )

    @property
    def recency(self) -> int:
        """Most recent matched timestamp (0 if somehow empty)."""
        ts = self.timestamps
        return ts[0] if ts else 0

    @property
    def specificity(self) -> int:
        return self.rule.specificity

    @property
    def salience(self) -> int:
        return self.rule.salience

    def wme_for_ce(self, ce_index: int) -> WME:
        """The WME matched by 1-based CE ``ce_index`` (raises on negated)."""
        wme = self.wmes[ce_index - 1]
        if wme is None:
            raise LookupError(
                f"condition element {ce_index} of {self.rule.name!r} is negated"
            )
        return wme

    def binding(self, var: str) -> Value:
        """Value bound to variable ``var`` (raises ``KeyError`` if unbound)."""
        return self.env[var]

    def uses(self, wme: WME) -> bool:
        """Whether this instantiation matched ``wme`` at a positive CE."""
        return any(w is not None and w == wme for w in self.wmes)

    # -- identity -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instantiation):
            return NotImplemented
        return self.key == other.key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        ts = ",".join(str(t) for t in self.key[1])
        return f"<{self.rule.name} [{ts}]>"


class ConflictSet:
    """Insertion-ordered set of instantiations keyed by identity.

    Secondary indexes by participating WME and by rule name make
    :meth:`remove_with_wme` and :meth:`of_rule` proportional to the
    returned instantiations rather than the retained set — the hot paths
    of TREAT's churn handling. Both preserve conflict-set insertion order
    (index buckets are insertion-ordered dicts). The by-WME index is built
    on the first :meth:`remove_with_wme` and maintained from then on: a
    run that never retracts a matched WME (every entry leaves by firing)
    never pays for it.

    :meth:`consume` drops the entries that fired (refraction bars them for
    good); when they are the whole set — every cycle that redacts nothing —
    it is one :meth:`clear`.

    Two opt-in extras serve the set-oriented TREAT matcher:

    - :meth:`index_env` declares that one rule's entries may be looked up
      by the values of chosen variables, so "which retained instantiations
      could this new negated-CE WME block" is a :meth:`probe_env` lookup,
      not a scan; the index is built at its first probe and maintained
      from then on, like the by-WME index;
    - :meth:`start_journal` records the net adds/removes between
      :meth:`drain_journal` calls — what a process worker ships instead
      of its whole conflict set.
    """

    def __init__(self) -> None:
        self._by_key: Dict[InstKey, Instantiation] = {}
        self._by_rule: Dict[str, Dict[InstKey, Instantiation]] = {}
        #: WME -> ordered bucket of the entries using it (``None``: not
        #: built yet).
        self._by_wme: Optional[Dict[WME, Dict[InstKey, Instantiation]]] = None
        #: rule name -> the variable tuples :meth:`index_env` declared.
        self._env_declared: Dict[str, Set[EnvVars]] = {}
        #: rule name -> variables -> values -> ordered bucket, one inner
        #: entry per declared index a :meth:`probe_env` has built.
        self._env_indexes: Dict[
            str, Dict[EnvVars, Dict[Tuple, Dict[InstKey, Instantiation]]]
        ] = {}
        #: Net change since the last drain (``None``: not journalling).
        self._added: Optional[Dict[InstKey, Instantiation]] = None
        self._removed: Dict[InstKey, None] = {}

    def add(self, inst: Instantiation) -> bool:
        """Insert; returns False if an equal instantiation is present."""
        key = inst.key
        if key in self._by_key:
            return False
        self._by_key[key] = inst
        rule_bucket = self._by_rule.get(inst.rule.name)
        if rule_bucket is None:
            rule_bucket = self._by_rule[inst.rule.name] = {}
        rule_bucket[key] = inst
        if self._by_wme is not None:
            _index_wmes(self._by_wme, key, inst)
        if self._env_indexes:
            indexes = self._env_indexes.get(inst.rule.name, _NO_INDEXES)
            for variables, index in indexes.items():
                values = tuple(inst.env[var] for var in variables)
                env_bucket = index.get(values)
                if env_bucket is None:
                    env_bucket = index[values] = {}
                env_bucket[key] = inst
        if self._added is not None:
            # Re-adding a key removed inside the window is a net no-op:
            # same key means same rule and WMEs, hence the same match.
            if key in self._removed:
                del self._removed[key]
            else:
                self._added[key] = inst
        return True

    def _unlink(self, inst: Instantiation) -> None:
        """Drop ``inst`` from the secondary indexes (and journal it)."""
        key = inst.key
        rule_bucket = self._by_rule.get(inst.rule.name)
        if rule_bucket is not None:
            rule_bucket.pop(key, None)
            if not rule_bucket:
                del self._by_rule[inst.rule.name]
        by_wme = self._by_wme
        if by_wme is not None:
            for wme in inst.wmes:
                if wme is not None:
                    wme_bucket = by_wme.get(wme)
                    if wme_bucket is not None:
                        wme_bucket.pop(key, None)
                        if not wme_bucket:
                            del by_wme[wme]
        if self._env_indexes:
            indexes = self._env_indexes.get(inst.rule.name, _NO_INDEXES)
            for variables, index in indexes.items():
                values = tuple(inst.env[var] for var in variables)
                env_bucket = index.get(values)
                if env_bucket is not None:
                    env_bucket.pop(key, None)
                    if not env_bucket:
                        del index[values]
        if self._added is not None:
            if key in self._added:
                del self._added[key]  # added and removed inside the window
            else:
                self._removed[key] = None

    def remove(self, inst: Instantiation) -> None:
        del self._by_key[inst.key]
        self._unlink(inst)

    def discard_key(self, key: InstKey) -> Optional[Instantiation]:
        inst = self._by_key.pop(key, None)
        if inst is not None:
            self._unlink(inst)
        return inst

    def consume(self, keys: Sequence[InstKey]) -> None:
        """Drop the entries ``keys`` name — fired instantiations, which
        refraction bars from firing again (absent keys are skipped; keys
        must be distinct). When they are the whole retained set the set is
        cleared in one pass, buckets and environment indexes included;
        otherwise each key is discarded. Journalled like any removal."""
        by_key = self._by_key
        if len(keys) == len(by_key) and all(key in by_key for key in keys):
            self.clear()
            return
        for key in keys:
            self.discard_key(key)

    def get(self, key: InstKey) -> Optional[Instantiation]:
        return self._by_key.get(key)

    def __contains__(self, inst: Instantiation) -> bool:
        return inst.key in self._by_key

    def __len__(self) -> int:
        return len(self._by_key)

    def __iter__(self) -> Iterator[Instantiation]:
        return iter(self._by_key.values())

    def clear(self) -> None:
        if self._added is not None:
            for key in self._by_key:
                if self._added.pop(key, None) is None:
                    self._removed[key] = None
        self._by_key.clear()
        self._by_rule.clear()
        if self._by_wme is not None:
            self._by_wme.clear()
        for indexes in self._env_indexes.values():
            for index in indexes.values():
                index.clear()

    def instantiations(self) -> List[Instantiation]:
        """Stable snapshot, in insertion order."""
        return list(self._by_key.values())

    def remove_with_wme(self, wme: WME) -> List[Instantiation]:
        """Drop every instantiation that matched ``wme``; return them
        (in conflict-set insertion order)."""
        by_wme = self._by_wme
        if by_wme is None:
            by_wme = self._by_wme = {}
            for key, inst in self._by_key.items():
                _index_wmes(by_wme, key, inst)
        bucket = by_wme.pop(wme, None)
        if not bucket:
            return []
        victims = list(bucket.values())
        for inst in victims:
            del self._by_key[inst.key]
            self._unlink(inst)
        return victims

    def of_rule(self, rule_name: str) -> List[Instantiation]:
        """Retained instantiations of one rule, in insertion order."""
        bucket = self._by_rule.get(rule_name)
        return list(bucket.values()) if bucket else []

    def count_of_rule(self, rule_name: str) -> int:
        """How many instantiations of one rule are retained."""
        bucket = self._by_rule.get(rule_name)
        return len(bucket) if bucket else 0

    # -- environment index ----------------------------------------------------

    def index_env(self, rule_name: str, variables: EnvVars) -> None:
        """Declare that ``rule_name``'s entries will be probed by the values
        they bind to ``variables`` (idempotent). The index is built from
        the retained entries at the first :meth:`probe_env`."""
        self._env_declared.setdefault(rule_name, set()).add(variables)

    def probe_env(
        self, rule_name: str, variables: EnvVars, values: Tuple
    ) -> List[Instantiation]:
        """``rule_name``'s entries whose ``variables`` hash-equal ``values``
        (insertion order). Dict lookup is identity-or-``==``, so the bucket
        is a superset of the ``==`` matches (one NaN object finds itself):
        callers decide with the real predicate. Raises ``KeyError`` for an
        index :meth:`index_env` never declared."""
        indexes = self._env_indexes.get(rule_name)
        index = indexes.get(variables) if indexes is not None else None
        if index is None:
            if variables not in self._env_declared.get(rule_name, ()):
                raise KeyError((rule_name, variables))
            index = {}
            for inst in self.of_rule(rule_name):
                env_values = tuple(inst.env[var] for var in variables)
                index.setdefault(env_values, {})[inst.key] = inst
            self._env_indexes.setdefault(rule_name, {})[variables] = index
        bucket = index.get(values)
        return list(bucket.values()) if bucket else []

    # -- journal ---------------------------------------------------------------

    def start_journal(self) -> None:
        """Begin recording net adds/removes (entries already retained count
        as added, so the first drain describes the whole set)."""
        self._added = dict(self._by_key)
        self._removed = {}

    def drain_journal(self) -> Tuple[List[Instantiation], List[InstKey]]:
        """Net ``(added, removed keys)`` since the last drain (journalling
        must have been started). An add and a remove of one key inside the
        window cancel in either order."""
        added, removed = list(self._added.values()), list(self._removed)
        self._added = {}
        self._removed = {}
        return added, removed
