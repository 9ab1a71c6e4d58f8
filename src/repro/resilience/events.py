"""Structured records of faults and recovery actions.

Every fault a :class:`~repro.resilience.plan.FaultPlan` injects — and
every recovery action an execution substrate takes in response — is
recorded as a :class:`FaultEvent`. The distributed machine surfaces them on
:class:`~repro.lab.distributed.DistResult`, and the fault benchmark
(fig. 6) aggregates them with :func:`summarize_faults`. The process pool
records none: a lost worker ends its run in a
:class:`~repro.errors.MatchError`.

Event kinds are flat strings rather than an enum so substrates can add
their own without a central registry; the well-known ones are listed in
:data:`KNOWN_KINDS`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional

__all__ = ["FaultEvent", "KNOWN_KINDS", "summarize_faults"]

#: Event kinds the distributed machine emits. Injected faults: ``crash``
#: (site death), ``drop``/``duplicate``/``delay`` (message faults),
#: ``straggler`` (slow site). Recovery actions: ``detect`` (missed
#: gather), ``redistribute`` (rules re-hosted on survivors), ``rejoin``
#: (site back, charged as replaying the delta log).
KNOWN_KINDS = (
    "crash",
    "drop",
    "duplicate",
    "delay",
    "straggler",
    "detect",
    "redistribute",
    "rejoin",
)


@dataclass(frozen=True)
class FaultEvent:
    """One fault or recovery action, attributed to a cycle and a site.

    ``site`` is ``None`` for events that are not site-specific (e.g. a
    message-level fault attributed only to a communication round).
    """

    cycle: int
    kind: str
    site: Optional[int] = None
    detail: str = ""

    def __str__(self) -> str:
        where = f" site={self.site}" if self.site is not None else ""
        tail = f": {self.detail}" if self.detail else ""
        return f"[cycle {self.cycle}] {self.kind}{where}{tail}"


def summarize_faults(events: Iterable[FaultEvent]) -> Counter:
    """Event counts by kind — the one-line view of a faulty run."""
    return Counter(e.kind for e in events)
