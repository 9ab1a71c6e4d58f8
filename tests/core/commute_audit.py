"""Test-side audit of the commute analysis's COMMUTES verdicts on real runs.

PARULEL fires a whole firing set against one snapshot, and the analysis
proves once, per rule pair, that some pairs commute (PA007/PA008). This
helper holds a real run to those proofs: :class:`CommuteAudit` wraps one
engine's ``_apply(merged, deltas)`` — which receives exactly one cycle's
fired deltas, one per rule batch, before the commit — cuts each batch into
its firings and replays every fired pair in both
orders with :class:`~repro.core.sanitize.PairReplayer`. A pair whose rules
the analysis certified as COMMUTES that diverges raises
:class:`CommuteViolation`, naming both rules and the cycle. The run itself
is untouched: the audit only reads the deltas.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Set

from repro.analysis.commute import commute_matrix
from repro.core import ParulelEngine
from repro.core.actions import FiringDelta
from repro.core.sanitize import PairReplayer

__all__ = ["CommuteAudit", "CommuteViolation", "firings"]


def firings(batch: FiringDelta) -> List[FiringDelta]:
    """A batch delta cut into its firings' deltas, each a batch of one:
    every firing of a batch contributes the same number of each effect."""
    n = len(batch.insts)

    def share(effects, i):
        k = len(effects) // n
        return list(effects[i * k : (i + 1) * k])

    return [
        FiringDelta(
            [inst],
            makes=share(batch.makes, i),
            removes=share(batch.removes, i),
            modifies=share(batch.modifies, i),
            writes=share(batch.writes, i),
            calls=share(batch.calls, i),
            redacts=share(batch.redacts, i),
            halt=batch.halt,
        )
        for i, inst in enumerate(batch.insts)
    ]


class CommuteViolation(AssertionError):
    """A certified-COMMUTES pair diverged under reordering."""

    def __init__(self, rules, cycle: int) -> None:
        super().__init__(
            f"rules {rules[0]!r} and {rules[1]!r} were certified as "
            f"commuting but their firings diverge under reordering in "
            f"cycle {cycle}"
        )
        self.rules = tuple(rules)
        self.cycle = cycle


class CommuteAudit:
    """Audits every later cycle of ``engine`` against ``commuting`` — by
    default the pairs ``commute_matrix(engine.program)`` certifies."""

    def __init__(
        self,
        engine: ParulelEngine,
        commuting: Optional[Set[FrozenSet[str]]] = None,
    ) -> None:
        if commuting is None:
            commuting = commute_matrix(engine.program).commuting_names()
        self.engine = engine
        self.commuting = commuting
        self.replayer = PairReplayer(dedupe_makes=engine.config.dedupe_makes)
        #: Fired pairs replayed in both orders, over the whole run.
        self.pairs = 0
        apply = engine._apply

        def audited_apply(merged, deltas):
            self.check(deltas)
            apply(merged, deltas)

        engine._apply = audited_apply

    def check(self, batches) -> None:
        replay = self.replayer.replay
        deltas = [d for batch in batches for d in firings(batch)]
        for i, first in enumerate(deltas):
            for second in deltas[i + 1 :]:
                self.pairs += 1
                if replay((first, second)) == replay((second, first)):
                    continue
                rules = (first.inst.rule.name, second.inst.rule.name)
                if frozenset(rules) in self.commuting:
                    raise CommuteViolation(rules, self.engine._cycle)

