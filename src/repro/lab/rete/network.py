"""RETE network assembly and the :class:`ReteMatcher` front end.

Network layout: one shared alpha layer (alpha memories keyed by the compiled
alpha pattern, looked up through a per-class index so a WME only visits
patterns of its own class), and one linear beta chain per rule ending in a
production node that maintains the shared conflict set.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.lab.rete.nodes import (
    DUMMY_TOKEN,
    AlphaMemory,
    BetaNode,
    JoinBetaNode,
    NegativeNode,
    ProductionNode,
)
from repro.match.compile import AlphaKey, CompiledRule, alpha_test_passes
from repro.match.interface import Matcher
from repro.wm.wme import WME

__all__ = ["ReteMatcher"]


class ReteMatcher(Matcher):
    """Incremental matcher backed by a hash-indexed RETE network.

    With :attr:`share_beta` (the ``rete-shared`` variant), rules that begin
    with identical condition-element prefixes share the beta nodes of that
    prefix — the classic network optimization. Sharing requires structural
    identity: same alpha pattern, same negation, same bindings and join
    tests, same parent node. Per-rule statistics attribute a shared node's
    work to the first rule that built it (documented; Ablation A5 measures
    the state/work savings).
    """

    name = "rete"
    #: Share structurally identical beta prefixes across rules.
    share_beta = False

    def _build(self) -> None:
        self._alpha: Dict[AlphaKey, AlphaMemory] = {}
        self._by_class: Dict[str, List[AlphaMemory]] = {}
        self._productions: List[ProductionNode] = []
        #: (parent node id, CE signature) -> shared beta node.
        self._beta_cache: Dict[tuple, BetaNode] = {}
        self.shared_nodes = 0
        for compiled in self.compiled:
            self._build_rule_chain(compiled)

    # -- construction ------------------------------------------------------

    def _alpha_memory(self, key: AlphaKey, conds) -> AlphaMemory:
        mem = self._alpha.get(key)
        if mem is None:
            mem = AlphaMemory(key, conds)
            self._alpha[key] = mem
            self._by_class.setdefault(key[0], []).append(mem)
        return mem

    def _build_rule_chain(self, compiled: CompiledRule) -> None:
        # Construction happens before any WME exists (the base class
        # replays working memory afterwards), so appending children to a
        # shared prefix never needs token catch-up.
        parent: BetaNode | None = None
        for ce in compiled.ces:
            signature = (
                id(parent),
                ce.alpha_key,
                ce.negated,
                ce.bindings,
                ce.join_tests,
            )
            node = self._beta_cache.get(signature) if self.share_beta else None
            if node is not None:
                self.shared_nodes += 1
            else:
                mem = self._alpha_memory(ce.alpha_key, ce.alpha_conds)
                if ce.negated:
                    node = NegativeNode(ce, compiled.name, self.stats, mem)
                else:
                    node = JoinBetaNode(
                        ce, compiled.name, self.stats, mem, is_head=parent is None
                    )
                if parent is None:
                    # Seed the chain head with the empty token (its right
                    # memory is empty at build time: primes the left index).
                    node.on_left_add(DUMMY_TOKEN)
                else:
                    parent.children.append(node)
                if self.share_beta:
                    self._beta_cache[signature] = node
            parent = node
        production = ProductionNode(
            compiled.ces, compiled.rule, self.stats, self.conflict_set
        )
        assert parent is not None  # rules always have >= 1 CE
        parent.children.append(production)
        self._productions.append(production)

    # -- incremental maintenance ------------------------------------------------

    def _on_add(self, wme: WME) -> None:
        for mem in self._by_class.get(wme.class_name, ()):
            self.stats.bump("alpha_tests")
            if alpha_test_passes(mem.conds, wme):
                mem.add(wme)

    def _on_remove(self, wme: WME) -> None:
        for mem in self._by_class.get(wme.class_name, ()):
            mem.remove(wme)

    # -- introspection (used by tests and reports) --------------------------------

    @property
    def alpha_memory_count(self) -> int:
        return len(self._alpha)

    def token_count(self) -> int:
        """Total retained beta tokens — RETE's state footprint, compared
        against TREAT's (zero) in Ablation A2. Every beta node is a
        successor of exactly one alpha memory, so that walk covers them all."""
        total = 0
        seen = set()
        for mem in self._alpha.values():
            for node in mem.successors:
                if id(node) not in seen:
                    seen.add(id(node))
                    total += len(node.tokens)
        return total


class SharedReteMatcher(ReteMatcher):
    """RETE with beta-prefix sharing enabled (``rete-shared``)."""

    name = "rete-shared"
    share_beta = True
