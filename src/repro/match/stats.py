"""Match-work accounting.

Match engines count the abstract operations they perform. The counters serve
two purposes:

1. *Measurement* — Figure 3 and Ablation A2 compare engines by work done,
   which is steadier than wall-clock on a shared machine;
2. *Simulation* — the simulators (:mod:`repro.lab.simmachine`,
   :mod:`repro.lab.distributed`) keep one matcher per site under one
   engine run and charge each site's per-cycle operation deltas through a
   :class:`repro.lab.costmodel.CostModel`, which is how the
   paper-style speedup curves are produced deterministically.

Counter semantics (shared vocabulary across engines):

``alpha_tests``
    WME-local test evaluations,
``join_probes``
    candidate WME visits at positive CEs during joins (with hash indexing
    only the probed bucket is visited, so this is the headline win),
``join_checks``
    candidate WME visits at negated CEs (blocking checks),
``hash_probes``
    bucket lookups in the hash-indexed alpha memories,
``bucket_hits``
    total candidates returned by those lookups,
``tokens``
    partial matches created (RETE beta insertions / TREAT seed extensions),
``instantiations``
    complete matches added to the conflict set (the join kernel's
    existence mode: distinct WMEs found to take part in one),
``retractions``
    tokens or instantiations removed due to WME retraction.

Per-rule attribution lives in :attr:`MatchStats.per_rule` under the same
keys — except ``alpha_tests``, which is *never* rule-attributed: alpha
memories are shared across rules (and, through the alpha cache, across
matcher requests), so there is no single rule to charge. Every matcher
bumps it globally only; a stats test asserts this stays consistent.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Optional, Tuple

from repro._record import Record

__all__ = ["MatchStats", "COUNTER_NAMES"]

COUNTER_NAMES: Tuple[str, ...] = (
    "alpha_tests",
    "join_probes",
    "join_checks",
    "hash_probes",
    "bucket_hits",
    "tokens",
    "instantiations",
    "retractions",
)


class MatchStats(Record):
    """Mutable operation counters, overall and attributed per rule."""

    __slots__ = ("totals", "per_rule")

    def __init__(
        self,
        totals: Optional[Counter] = None,
        per_rule: Optional[Dict[str, Counter]] = None,
    ) -> None:
        self.totals = Counter() if totals is None else totals
        self.per_rule = {} if per_rule is None else per_rule

    def bump(self, counter: str, rule: str = "", n: int = 1) -> None:
        """Increment ``counter`` by ``n``, attributing to ``rule`` if given."""
        self.totals[counter] += n
        if rule:
            bucket = self.per_rule.get(rule)
            if bucket is None:
                bucket = self.per_rule[rule] = Counter()
            bucket[counter] += n

    def reset(self) -> None:
        self.totals.clear()
        self.per_rule.clear()

    def snapshot(self) -> Counter:
        return Counter(self.totals)

    def rule_total(self, rule: str, counters: Iterable[str] = COUNTER_NAMES) -> int:
        bucket = self.per_rule.get(rule)
        if not bucket:
            return 0
        return sum(bucket[c] for c in counters)

    def merge(self, other: "MatchStats") -> None:
        self.totals.update(other.totals)
        for rule, bucket in other.per_rule.items():
            mine = self.per_rule.setdefault(rule, Counter())
            mine.update(bucket)

    def __str__(self) -> str:
        parts = [f"{name}={self.totals[name]}" for name in COUNTER_NAMES]
        return "MatchStats(" + ", ".join(parts) + ")"
