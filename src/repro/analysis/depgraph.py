"""The rule dependency graph: enables / inhibits / conflicts edges.

Nodes are the program's object-level rules. Edges are derived from the
footprints of :mod:`repro.analysis.footprint` by the conservative
:func:`~repro.analysis.footprint.may_overlap` test:

``enables`` (directed, W → R)
    a write of W can *create* a match of R: a make/modify post-image
    aliases a positive CE of R, or a remove destroys a WME a negated CE
    of R was blocked by;
``inhibits`` (directed, W → R)
    a write of W can *destroy or block* a match of R: a make/modify
    post-image aliases a negated CE of R, or a remove destroys a WME a
    positive CE of R matched;
``conflicts`` (undirected, stored with ``src <= dst`` lexicographically)
    the commute analysis's write/write channels
    (:func:`~repro.analysis.commute.write_conflicts`) — two rules whose
    firings may issue conflicting updates to one WME in the same cycle,
    whether or not the pair is proven to commute.

On top of the edge set the module computes:

- **SCCs** (Tarjan) over the directed enables∪inhibits edges — the
  recursion structure of the program;
- **strata**: topological layers of the SCC condensation (stratum 0 fires
  first). Rules in distinct strata can only feed forward, so a schedule
  that exhausts stratum *i* before enabling stratum *i+1* never revisits
  a stratum — the parallel-instantiation literature's levelization;
- **stratification check**: an ``inhibits`` edge *inside* an SCC means a
  rule's writes can invalidate matches of a rule that (transitively)
  feeds it back — order-sensitive negation that set-oriented firing must
  arbitrate (PA005). Likewise a ``conflicts`` edge between different
  strata is reported in the stats (the pair can still co-fire only if
  the schedule overlaps strata, which the engine does not prevent).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.lang.ast import Program, Rule
from repro.analysis.commute import write_conflicts
from repro.analysis.footprint import (
    RuleFootprint,
    ce_constraints,
    may_overlap,
    rule_footprint,
)

__all__ = ["DepEdge", "DependencyGraph", "build_dependency_graph"]


@dataclass(frozen=True)
class DepEdge:
    """One dependency between two rules, via one class."""

    src: str
    dst: str
    #: 'enables', 'inhibits', 'conflicts', or 'races' — the last added by
    #: :func:`repro.analysis.analyze` from the commute detector's RACES
    #: verdicts (undirected, stored with ``src <= dst`` like conflicts).
    kind: str
    class_name: str


@dataclass
class DependencyGraph:
    """Rules, typed edges, and the derived SCC/strata structure."""

    rules: Tuple[str, ...]
    edges: Tuple[DepEdge, ...]
    footprints: Dict[str, RuleFootprint] = field(default_factory=dict)
    #: rule -> SCC id (0-based, in Tarjan completion order).
    scc_of: Dict[str, int] = field(default_factory=dict)
    #: SCC id -> member rules, deterministic order.
    sccs: Tuple[Tuple[str, ...], ...] = ()
    #: rule -> stratum index (0 fires first).
    stratum_of: Dict[str, int] = field(default_factory=dict)

    # -- derived views ------------------------------------------------------

    def edges_of_kind(self, kind: str) -> List[DepEdge]:
        return [e for e in self.edges if e.kind == kind]

    @property
    def n_strata(self) -> int:
        return max(self.stratum_of.values(), default=-1) + 1

    def strata(self) -> List[List[str]]:
        """Rules grouped by stratum, program order within a stratum."""
        out: List[List[str]] = [[] for _ in range(self.n_strata)]
        for name in self.rules:
            out[self.stratum_of[name]].append(name)
        return out

    def cyclic_sccs(self) -> List[Tuple[str, ...]]:
        """SCCs that actually contain a cycle (size > 1, or a self-loop)."""
        self_loops = {
            e.src
            for e in self.edges
            if e.src == e.dst and e.kind in ("enables", "inhibits")
        }
        return [
            scc
            for scc in self.sccs
            if len(scc) > 1 or scc[0] in self_loops
        ]

    def unstratified_inhibits(self) -> List[DepEdge]:
        """Inhibits edges closing a cycle (both endpoints in one SCC)."""
        return [
            e
            for e in self.edges_of_kind("inhibits")
            if self.scc_of[e.src] == self.scc_of[e.dst]
        ]

    def cross_stratum_conflicts(self) -> List[DepEdge]:
        """Conflicts edges whose endpoints sit in different strata."""
        return [
            e
            for e in self.edges_of_kind("conflicts")
            if self.stratum_of[e.src] != self.stratum_of[e.dst]
        ]

    @property
    def is_stratified(self) -> bool:
        """No inhibits edge inside a cycle and no cross-stratum conflict."""
        return not self.unstratified_inhibits() and not self.cross_stratum_conflicts()

    def stats(self) -> Dict[str, object]:
        """Summary numbers for reports and the SARIF ``properties`` bag."""
        return {
            "rules": len(self.rules),
            "edges": len(self.edges),
            "enables": len(self.edges_of_kind("enables")),
            "inhibits": len(self.edges_of_kind("inhibits")),
            "conflicts": len(self.edges_of_kind("conflicts")),
            "races": len(self.edges_of_kind("races")),
            "sccs": len(self.sccs),
            "largestScc": max((len(s) for s in self.sccs), default=0),
            "cyclicSccs": len(self.cyclic_sccs()),
            "strata": self.n_strata,
            "stratified": self.is_stratified,
        }


def _tarjan(nodes: Sequence[str], succ: Dict[str, Set[str]]) -> List[List[str]]:
    """Iterative Tarjan SCC; components in completion (reverse-topological)
    order, members in discovery order."""
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[List[str]] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, pi = work[-1]
            if pi == 0:
                index[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            successors = sorted(succ.get(node, ()))
            for i in range(pi, len(successors)):
                nxt = successors[i]
                if nxt not in index:
                    work[-1] = (node, i + 1)
                    work.append((nxt, 0))
                    advanced = True
                    break
                if nxt in on_stack:
                    lowlink[node] = min(lowlink[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(sorted(component, key=lambda n: index[n]))
    return sccs


def build_dependency_graph(program: Program) -> DependencyGraph:
    """Build the graph over ``program.rules`` (meta-rules are not nodes —
    they read the reified conflict set, not ordinary classes)."""
    rules: Tuple[Rule, ...] = program.rules
    names = tuple(r.name for r in rules)
    footprints = {r.name: rule_footprint(r) for r in rules}

    edge_set: Set[DepEdge] = set()
    edges: List[DepEdge] = []

    def add(src: str, dst: str, kind: str, class_name: str) -> None:
        if kind == "conflicts" and dst < src:
            src, dst = dst, src
        e = DepEdge(src=src, dst=dst, kind=kind, class_name=class_name)
        if e not in edge_set:
            edge_set.add(e)
            edges.append(e)

    # enables / inhibits: every write image vs every CE of every rule.
    reader_cache = {
        name: [
            (ce, ce_constraints(ce)) for ce in footprints[name].compiled.ces
        ]
        for name in names
    }
    for w_name in names:
        for image in footprints[w_name].writes:
            for r_name in names:
                for ce, conds in reader_cache[r_name]:
                    if not may_overlap(image, conds, ce.class_name):
                        continue
                    if image.kind == "remove":
                        kind = "enables" if ce.negated else "inhibits"
                    else:
                        kind = "inhibits" if ce.negated else "enables"
                    add(w_name, r_name, kind, ce.class_name)

    # conflicts: the commute analysis's write/write channels.
    for cand in write_conflicts(program):
        add(cand.rule_a, cand.rule_b, "conflicts", cand.class_name)

    # SCCs over the directed edges.
    succ: Dict[str, Set[str]] = {n: set() for n in names}
    for e in edges:
        if e.kind in ("enables", "inhibits"):
            succ[e.src].add(e.dst)
    scc_list = _tarjan(names, succ)
    scc_of = {name: i for i, scc in enumerate(scc_list) for name in scc}

    # Strata: longest-path layering of the SCC condensation. Tarjan emits
    # components in reverse topological order, so a single reversed walk
    # sees every predecessor before its successors.
    cond_succ: Dict[int, Set[int]] = {i: set() for i in range(len(scc_list))}
    for e in edges:
        if e.kind in ("enables", "inhibits"):
            a, b = scc_of[e.src], scc_of[e.dst]
            if a != b:
                cond_succ[a].add(b)
    level: Dict[int, int] = {i: 0 for i in range(len(scc_list))}
    for i in reversed(range(len(scc_list))):
        for j in cond_succ[i]:
            level[j] = max(level[j], level[i] + 1)
    stratum_of = {name: level[scc_of[name]] for name in names}

    return DependencyGraph(
        rules=names,
        edges=tuple(edges),
        footprints=footprints,
        scc_of=scc_of,
        sccs=tuple(tuple(s) for s in scc_list),
        stratum_of=stratum_of,
    )
