"""Analysis-driven rule partitioning: cut the dependency structure, not
the rule list.

Round-robin assignment scatters related rules across sites, so on a
distributed machine almost every site ends up *interested* in almost
every class — each cycle's delta must be shipped nearly everywhere. The
advisor instead treats each WME class as a hyperedge over the rules that
read or write it and minimizes **connectivity**::

    cost(partition) = Σ_class  w(class) · (blocks touching class − 1)

— exactly the number of extra block-copies of each class's delta traffic
a multicast scatter pays. ``w(class)`` defaults to ``1 + #writers``:
classes more rules write produce proportionally more delta entries.

The algorithm is a deterministic two-phase heuristic (balanced min-cut is
NP-hard; this is the classic greedy-growth + local-refinement shape):

1. **Greedy growth** — place rules one by one (heaviest first) on the
   site sharing the most class weight with them, under a balance cap of
   ``total/k · (1 + slack)``;
2. **Refinement** — repeated single-rule moves, steepest connectivity
   descent first, accepting only moves that keep the cap. Terminates
   because the integer cost strictly decreases.

Refinement is run from both the greedy seed and a round-robin seed and
the cheaper result wins, so the advisor is never worse than round-robin
under its own objective.

Per-rule weights default to 1.0 (balance by rule count); pass the output
of :func:`repro.lab.partition.profile_rule_weights` to balance by
measured match work instead. The result plugs into the same
:class:`~repro.lab.partition.Assignment` slot the round-robin and
LPT policies fill — ``assignment="analysis"`` on
:class:`~repro.lab.simmachine.SimMachine` and
:class:`~repro.lab.distributed.DistributedMachine` resolves to this.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set

from repro.analysis.footprint import rule_footprint
from repro.lab.partition import Assignment
from repro.lang.ast import Rule

__all__ = ["analysis_assignment", "connectivity_cost", "class_weights"]


def class_weights(rules: Sequence[Rule]) -> Dict[str, float]:
    """class -> delta-traffic proxy weight (1 + number of writing rules)."""
    writers: Dict[str, int] = {}
    for rule in rules:
        for cls in rule_footprint(rule).classes_written:
            writers[cls] = writers.get(cls, 0) + 1
    classes: Set[str] = set(writers)
    for rule in rules:
        classes |= rule_footprint(rule).classes_read
    return {cls: 1.0 + writers.get(cls, 0) for cls in sorted(classes)}


def _touch_counts(
    site_of: Mapping[str, int],
    classes_of: Mapping[str, FrozenSet[str]],
    n_sites: int,
) -> Dict[str, List[int]]:
    """class -> per-site count of rules touching it."""
    counts: Dict[str, List[int]] = {}
    for name, site in site_of.items():
        for cls in classes_of[name]:
            counts.setdefault(cls, [0] * n_sites)[site] += 1
    return counts


def connectivity_cost(
    assignment: Assignment,
    rules: Sequence[Rule],
    weights: Optional[Mapping[str, float]] = None,
) -> float:
    """The advisor's objective for any assignment (lower is better)."""
    classes_of = {r.name: _touched(r) for r in rules}
    w = weights or class_weights(rules)
    counts = _touch_counts(assignment.site_of, classes_of, assignment.n_sites)
    return sum(
        w.get(cls, 1.0) * (sum(1 for c in per_site if c) - 1)
        for cls, per_site in counts.items()
    )


def _touched(rule: Rule) -> FrozenSet[str]:
    fp = rule_footprint(rule)
    return fp.classes_read | fp.classes_written


def analysis_assignment(
    rules: Sequence[Rule],
    n_sites: int,
    weights: Optional[Mapping[str, float]] = None,
    balance_slack: float = 0.25,
    max_passes: int = 20,
) -> Assignment:
    """Partition ``rules`` into ``n_sites`` blocks minimizing connectivity.

    ``weights`` are per-*rule* load weights (default 1.0 each); the
    balance cap is ``total_weight / n_sites * (1 + balance_slack)``,
    relaxed when a rule would not fit anywhere.
    """
    if n_sites < 1:
        raise ValueError("need at least one site")
    rules = list(rules)
    if not rules:
        return Assignment(n_sites=n_sites, site_of={})
    rule_w = {r.name: max(float((weights or {}).get(r.name, 1.0)), 0.0) for r in rules}
    classes_of = {r.name: _touched(r) for r in rules}
    cls_w = class_weights(rules)
    total = sum(rule_w.values())
    cap = max(total / n_sites * (1.0 + balance_slack), max(rule_w.values()))

    # -- phase 1: greedy growth (heaviest, most-connected rules first) ------
    order = sorted(
        (r.name for r in rules),
        key=lambda n: (
            -rule_w[n],
            -sum(cls_w[c] for c in classes_of[n]),
            n,
        ),
    )
    greedy: Dict[str, int] = {}
    load = [0.0] * n_sites
    site_classes: List[Set[str]] = [set() for _ in range(n_sites)]
    for name in order:
        best, best_key = 0, None
        for s in range(n_sites):
            if load[s] + rule_w[name] > cap and any(
                load[t] + rule_w[name] <= cap for t in range(n_sites)
            ):
                continue
            gain = sum(cls_w[c] for c in classes_of[name] & site_classes[s])
            key = (gain, -load[s], -s)
            if best_key is None or key > best_key:
                best, best_key = s, key
        greedy[name] = best
        load[best] += rule_w[name]
        site_classes[best] |= classes_of[name]

    def cost(site_of: Dict[str, int]) -> float:
        counts = _touch_counts(site_of, classes_of, n_sites)
        return sum(
            cls_w[cls] * (sum(1 for c in per_site if c) - 1)
            for cls, per_site in counts.items()
        )

    # -- phase 2: steepest-descent refinement -------------------------------
    def refine(start: Dict[str, int]) -> Dict[str, int]:
        site_of = dict(start)
        load = [0.0] * n_sites
        for name, site in site_of.items():
            load[site] += rule_w[name]
        # A seed may already exceed the cap (e.g. round-robin with skewed
        # rule weights); never demand better balance than the seed has.
        local_cap = max(cap, max(load))
        counts = _touch_counts(site_of, classes_of, n_sites)

        def move_delta(name: str, dst: int) -> float:
            """Connectivity change if ``name`` moves to ``dst`` (negative
            is an improvement)."""
            src = site_of[name]
            delta = 0.0
            for cls in classes_of[name]:
                per_site = counts[cls]
                if per_site[src] == 1:
                    delta -= cls_w[cls]  # src stops touching cls
                if per_site[dst] == 0:
                    delta += cls_w[cls]  # dst starts touching cls
            return delta

        for _ in range(max_passes):
            best_move = None  # (delta, name, dst) — most negative wins
            for rule in rules:
                name = rule.name
                src = site_of[name]
                for dst in range(n_sites):
                    if dst == src or load[dst] + rule_w[name] > local_cap:
                        continue
                    delta = move_delta(name, dst)
                    key = (delta, name, dst)
                    if delta < 0 and (best_move is None or key < best_move):
                        best_move = key
            if best_move is None:
                break
            _delta, name, dst = best_move
            src = site_of[name]
            site_of[name] = dst
            load[src] -= rule_w[name]
            load[dst] += rule_w[name]
            for cls in classes_of[name]:
                counts[cls][src] -= 1
                counts[cls][dst] += 1
        return site_of

    round_robin = {r.name: i % n_sites for i, r in enumerate(rules)}
    # Refine both seeds; ties go to the greedy seed for stability.
    best = min((refine(greedy), refine(round_robin)), key=cost)
    return Assignment(n_sites=n_sites, site_of=best)
