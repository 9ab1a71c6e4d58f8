"""TREAT match engine (Miranker 1987, from the DADO lineage PARULEL grew
out of), set-oriented.

TREAT retains only **alpha memories** and the **conflict set** — no beta
memories. PARULEL fires a whole set of instantiations per cycle, so the
working-memory change arrives as a set too, and this matcher treats it as
one: alpha memories are updated as each WME arrives, but the joins a
cycle's additions call for are deferred and run once per *batch*.

- *Adds* are buffered per alpha pattern. :meth:`TreatMatcher.flush` — run
  by :meth:`~TreatMatcher.instantiations` and before any retraction is
  processed — then does, per rule in compiled order:

  - for each negated CE fed by a batch: retract the retained
    instantiations a new WME blocks. The candidates come from the conflict
    set's environment index keyed by the CE's equality join tests
    (:meth:`~repro.match.instantiation.ConflictSet.probe_env`), not from a
    scan of the rule's retained entries — or, when the rule retains fewer
    instantiations than the batch has WMEs, from probing the CE's alpha
    memory by each instantiation's environment (nothing at all when it
    retains none); ``join_tests_pass`` stays the deciding check.
    ``indexed=False`` (and a CE with no equality test) scans ``of_rule``
    or the batch — the oracle the differential tests compare against;
  - for each positive CE fed by a batch: one join enumeration with that CE
    pinned to the batch (every new instantiation must use a new WME
    somewhere), in chunks of :data:`BATCH_CHUNK` so the enumerator's
    transient partial matches stay bounded.

  Both read the *current* memories, so a batch that feeds a positive and a
  negated CE of one rule needs no ordering care; instantiations reachable
  from two new WMEs are found twice and deduplicated by the conflict set.
- The very first flush has nothing retained and every memory unjoined, so
  it is one full enumeration per rule.
- *Remove from a positive CE's memory*: drop conflict-set entries that used
  the WME.
- *Remove from a negated CE's memory*: instantiations it was blocking may
  now exist. When the negated CE's join tests include equalities we seed
  the join with the variable values the removed WME pinned; otherwise we
  fall back to a full re-enumeration of that rule (deduplicated against
  the retained set). Either may find again an instantiation that already
  fired; the engine, which keeps the refraction set, drops it at collect.
- *Fire*: the engine consumes the firing set
  (:meth:`~repro.match.interface.Matcher.consume`) before the firings'
  changes arrive, so the retained set holds unfired entries only and a
  flush spends nothing on what a cycle's own makes block — on tc, every
  instantiation that fired.
- A WME added and removed between two flushes was never joined, so it
  just leaves the batch.

The trade: TREAT redoes join work RETE would have cached, but pays nothing
to maintain beta state when WMEs churn — the regime Ablation A2 measures.

The matcher keeps no memories of its own: it watches an alpha layer
(:mod:`repro.match.alphaindex`), which holds them and reports alpha-passing
deltas through :meth:`TreatMatcher.alpha_added` /
:meth:`TreatMatcher.alpha_removed` — an
:class:`~repro.match.alphaindex.AlphaCache` over the working memory, fed
from the matcher's WM listener, or the
:class:`~repro.match.alphaindex.ColumnVectorCache` a process worker hands
in, which its owner advances over the shared columns.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.lang.ast import Rule, Value
from repro.match.alphaindex import AlphaCache
from repro.match.compile import AlphaKey, CompiledCE, CompiledRule
from repro.match.instantiation import Instantiation
from repro.match.interface import Matcher
from repro.match.join import enumerate_matches, join_tests_pass
from repro.wm.memory import WorkingMemory
from repro.wm.wme import WME

__all__ = ["TreatMatcher", "BATCH_CHUNK"]

#: Most WMEs pinned in one enumeration. The enumerator materializes every
#: partial match of a visit position before moving on, so an unbounded
#: batch (a 12,000-fact load) would hold them all at once.
BATCH_CHUNK = 1024

#: One rule's share of a flush: (CE, the new WMEs in its alpha memory).
_Job = Tuple[CompiledCE, Tuple[WME, ...]]


class TreatMatcher(Matcher):
    """Conflict-set-retaining matcher with alpha memories only.

    ``alpha`` is the alpha layer to watch; by default an
    :class:`~repro.match.alphaindex.AlphaCache` over ``wm``. The matcher's
    WM listener forwards every batch to the layer's ``apply``; a layer
    over another store (a worker's shared columns) is advanced by its
    owner instead, and ``wm`` must then stay untouched. ``site=(k, s)``
    retains site ``s``'s share of every rule instead of the whole
    (:func:`~repro.match.compile.compile_rule`).

    :attr:`observer`, when set, brackets each rule's share of the match
    work: ``observer.begin(rule name)`` before, ``observer.end(rule name,
    instantiations added)`` after (the process workers' per-rule timing
    and flight-recorder records).
    """

    name = "treat"

    def __init__(
        self,
        rules: Sequence[Rule],
        wm: WorkingMemory,
        indexed: bool = True,
        alpha=None,
        site: Optional[Tuple[int, int]] = None,
    ) -> None:
        self._alpha = alpha
        self.observer = None
        super().__init__(rules, wm, indexed=indexed, site=site)

    def _build(self) -> None:
        #: alpha pattern -> (rule position, rule, ce) triples fed by it.
        self._subscribers: Dict[
            AlphaKey, List[Tuple[int, CompiledRule, CompiledCE]]
        ] = {}
        #: alpha pattern -> the WMEs that entered its memory since the last
        #: flush, in arrival (= timestamp) order.
        self._pending: Dict[AlphaKey, Dict[WME, None]] = {}
        #: Nothing flushed yet: the conflict set is empty and no memory's
        #: content has been joined, so adds need no buffering.
        self._fresh = True
        for pos, compiled in enumerate(self.compiled):
            for ce in compiled.ces:
                self._subscribers.setdefault(ce.alpha_key, []).append(
                    (pos, compiled, ce)
                )
                if self.indexed and ce.negated and ce.eq_join_tests:
                    self.conflict_set.index_env(
                        compiled.name, tuple(var for _attr, var in ce.eq_join_tests)
                    )
        if self._alpha is None:
            self._alpha = AlphaCache(self.wm, self.stats)
        self._alpha.watch(
            [ce for compiled in self.compiled for ce in compiled.ces], self
        )

    def _replay(self) -> None:
        """Nothing to feed: :meth:`_build` primed every memory from the
        store, and the first flush enumerates in full."""

    def _bump(self, counter: str, rule: str = "", n: int = 1) -> None:
        # ``stats`` may be cleared by an owner that ships no counters (the
        # process workers), which also lets the enumerator skip its own.
        if self.stats is not None:
            self.stats.bump(counter, rule, n)

    # -- add -----------------------------------------------------------------

    def _listener(self, wmes: Sequence[WME], added: bool) -> None:
        self._alpha.apply(wmes, added)

    def alpha_added(self, key: AlphaKey, wmes: Sequence[WME]) -> None:
        """``wmes`` entered the alpha memory ``key`` (already updated)."""
        if self._fresh:
            return
        batch = self._pending.get(key)
        if batch is None:
            self._pending[key] = dict.fromkeys(wmes)
        else:
            batch.update(dict.fromkeys(wmes))

    # -- flush ---------------------------------------------------------------

    def instantiations(self) -> List[Instantiation]:
        self.flush()
        return self.conflict_set.instantiations()

    def flush(self) -> None:
        """Run the joins and invalidations the buffered adds call for."""
        if self._fresh:
            self._fresh = False
            for compiled in self.compiled:
                self._match_rule(compiled, None)
            return
        if not self._pending:
            return
        pending, self._pending = self._pending, {}
        work: Dict[int, List[_Job]] = {}
        for key, batch in pending.items():
            if batch:
                wmes = tuple(batch)
                for pos, _compiled, ce in self._subscribers[key]:
                    work.setdefault(pos, []).append((ce, wmes))
        for pos in sorted(work):
            self._match_rule(self.compiled[pos], work[pos])

    def _match_rule(
        self,
        compiled: CompiledRule,
        jobs: Optional[List[_Job]],
        seed_env: Optional[Dict[str, Value]] = None,
    ) -> None:
        """One rule's share of the match work, bracketed for the observer:
        the given batches, or with ``jobs=None`` an enumeration of the whole
        rule (restricted to ``seed_env`` when given)."""
        observer = self.observer
        if observer is not None:
            observer.begin(compiled.name)
        added = 0
        add = self.conflict_set.add
        if jobs is None:
            for inst in self._enumerate(compiled, seed_env=seed_env):
                added += add(inst)
        else:
            for ce, wmes in jobs:
                if ce.negated:
                    self._invalidate_blocked(compiled, ce, wmes)
            for ce, wmes in jobs:
                if not ce.negated:
                    for start in range(0, len(wmes), BATCH_CHUNK):
                        chunk = wmes[start : start + BATCH_CHUNK]
                        for inst in self._enumerate(
                            compiled, fixed=(ce.index, chunk)
                        ):
                            added += add(inst)
        if observer is not None:
            observer.end(compiled.name, added)

    def _enumerate(self, compiled: CompiledRule, **seeds):
        return enumerate_matches(
            compiled,
            self.wm,
            self.stats,
            alpha_source=self._alpha,
            indexed=self.indexed,
            **seeds,
        )

    def _invalidate_blocked(
        self, compiled: CompiledRule, ce: CompiledCE, wmes: Sequence[WME]
    ) -> None:
        """WMEs newly matching a negated CE retract the instantiations
        they block (those whose environment satisfies the CE's join
        tests).

        The walk starts from the smaller side. Each new WME probes the
        retained set's environment index — or, when the rule retains fewer
        instantiations than the batch has WMEs, each instantiation probes
        the CE's alpha memory and keeps the hits from the batch. Either way
        an instantiation is checked against the batch WMEs it hash-equals
        in timestamp order until one blocks it, so both directions count
        the same (WME, instantiation) pairs."""
        cs = self.conflict_set
        retained = cs.count_of_rule(compiled.name)
        if not retained:
            return
        eq = ce.eq_join_tests if self.indexed else ()
        variables = tuple(var for _attr, var in eq)
        checks = retractions = 0
        if retained < len(wmes):
            batch = set(wmes)
            mem = self._alpha.memory(ce)
            attrs = tuple(attr for attr, _var in eq)
            for inst in cs.of_rule(compiled.name):
                env = inst.env
                if eq:
                    hits = mem.probe(attrs, tuple(env[var] for var in variables))
                else:
                    hits = wmes
                for wme in hits:
                    if wme in batch:
                        checks += 1
                        if join_tests_pass(ce, wme, env):
                            cs.remove(inst)
                            retractions += 1
                            break
        else:
            for wme in wmes:
                if eq:
                    candidates = cs.probe_env(
                        compiled.name,
                        variables,
                        tuple(wme.get(attr) for attr, _var in eq),
                    )
                else:
                    candidates = cs.of_rule(compiled.name)
                checks += len(candidates)
                for inst in candidates:
                    if join_tests_pass(ce, wme, inst.env):
                        cs.remove(inst)
                        retractions += 1
        if checks:
            self._bump("join_checks", compiled.name, checks)
        if retractions:
            self._bump("retractions", compiled.name, retractions)

    # -- remove ---------------------------------------------------------------

    def alpha_removed(self, keys: Sequence[AlphaKey], wme: WME) -> None:
        """``wme`` left the alpha memories ``keys`` (already updated)."""
        if self._fresh:
            return
        batch = self._pending.get(keys[0])
        if batch is not None and wme in batch:
            # Added since the last flush (so pending under every key it
            # passes) and never joined: nothing retained uses it, nothing
            # was retracted on its account.
            for key in keys:
                del self._pending[key][wme]
            return
        self.flush()
        # Positive participation: drop conflict-set entries that used it.
        removed = self.conflict_set.remove_with_wme(wme)
        if removed:
            self._bump("retractions", n=len(removed))
        # Negative participation: unblocked instantiations may now exist.
        for key in keys:
            for _pos, compiled, ce in self._subscribers[key]:
                if ce.negated:
                    self._discover_unblocked(compiled, ce, wme)

    def _discover_unblocked(self, compiled: CompiledRule, ce: CompiledCE, wme: WME) -> None:
        eq = ce.eq_join_tests
        if eq:
            # Any environment the removed WME was blocking had to satisfy its
            # equality tests, so pinning those variables to the WME's values
            # covers every candidate; enumerate_matches re-checks the negated
            # CE against the *current* memories, so no false positives.
            seed = {var: wme.get(attr) for attr, var in eq}
        else:
            if not ce.join_tests and len(self._alpha.memory(ce)):
                return  # purely alpha-level negation, still blocked for all
            seed = None  # only non-equality tests: re-enumerate the rule
        self._match_rule(compiled, None, seed)
