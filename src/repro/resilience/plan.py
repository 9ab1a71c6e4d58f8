"""Deterministic, seeded fault plans.

A :class:`FaultPlan` is a *pure description* of what should go wrong during
a run: sites that crash at a given cycle (and optionally rejoin later),
per-message drop/duplication/delay rates and straggler sites. Plans are
frozen dataclasses — the same plan injected twice produces the same
faults, because every stochastic decision is drawn from a
:class:`random.Random` seeded with ``plan.seed`` inside a fresh
:class:`FaultInjector` per run.

The one consumer is :class:`~repro.lab.distributed.DistributedMachine`,
which charges the simulated faults through its
:class:`~repro.lab.distributed.NetworkModel`. The process pool takes no
plan: a lost worker ends its run in a :class:`~repro.errors.MatchError`,
so a test that wants one kills a worker itself.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.resilience.events import FaultEvent

__all__ = [
    "SiteCrash",
    "Straggler",
    "FaultPlan",
    "FaultInjector",
]


@dataclass(frozen=True)
class SiteCrash:
    """Site ``site`` dies at the start of cycle ``cycle``.

    ``rejoin_cycle=None`` means the crash is permanent (its rules are
    redistributed across survivors); otherwise the site rejoins at the
    start of that cycle, charged as replaying the cumulative delta log.
    """

    cycle: int
    site: int
    rejoin_cycle: Optional[int] = None


@dataclass(frozen=True)
class Straggler:
    """Site ``site`` computes ``factor``× slower than planned."""

    site: int
    factor: float = 4.0


@dataclass(frozen=True)
class FaultPlan:
    """Seeded description of every fault to inject into one run."""

    seed: int = 0
    #: Probability that any one message transmission is lost (retried).
    drop_rate: float = 0.0
    #: Probability that a delivered message arrives twice.
    dup_rate: float = 0.0
    #: Probability that a delivered message is delayed one extra latency.
    delay_rate: float = 0.0
    #: Retransmissions after which a message is forced through (the
    #: simulation models persistent retry, not permanent partition).
    max_retries: int = 8
    crashes: Tuple[SiteCrash, ...] = ()
    stragglers: Tuple[Straggler, ...] = ()

    def __post_init__(self) -> None:
        for name in ("drop_rate", "dup_rate", "delay_rate"):
            rate = getattr(self, name)
            if not (0.0 <= rate < 1.0):
                raise ValueError(f"{name} must be in [0, 1), got {rate}")
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        for crash in self.crashes:
            if crash.cycle < 1:
                raise ValueError("crash cycles are 1-based")
            if crash.rejoin_cycle is not None and crash.rejoin_cycle <= crash.cycle:
                raise ValueError(
                    f"site {crash.site} rejoins at cycle {crash.rejoin_cycle} "
                    f"but crashes at {crash.cycle}"
                )

    def validate_sites(self, n_sites: int) -> None:
        """Check every referenced site exists — a fault at a site the run
        does not have would otherwise never fire. The distributed master
        (site 0) hosts the meta level and the timestamp authority, so the
        simulation does not model losing it."""
        for crash in self.crashes:
            if crash.site == 0:
                raise ValueError(
                    "site 0 is the master (meta level + timestamp authority) "
                    "and cannot crash in this model"
                )
        for kind, faults in (
            ("crash", self.crashes),
            ("straggler", self.stragglers),
        ):
            for fault in faults:
                if not (0 <= fault.site < n_sites):
                    raise ValueError(
                        f"{kind} site {fault.site} out of range "
                        f"(sites are 0..{n_sites - 1})"
                    )

    @property
    def empty(self) -> bool:
        return (
            not self.crashes
            and not self.stragglers
            and self.drop_rate == 0.0
            and self.dup_rate == 0.0
            and self.delay_rate == 0.0
        )

    def injector(self) -> "FaultInjector":
        """Fresh per-run injector (resets the RNG and the event log)."""
        return FaultInjector(self)

    @classmethod
    def seeded(
        cls,
        seed: int,
        n_sites: int,
        *,
        crashes: int = 0,
        rejoin: bool = False,
        within_cycles: int = 10,
        drop_rate: float = 0.0,
        dup_rate: float = 0.0,
        delay_rate: float = 0.0,
    ) -> "FaultPlan":
        """Generate a plan from a seed: ``crashes`` distinct non-master
        sites crash at random cycles in ``[2, within_cycles]`` (rejoining
        ``within_cycles`` later when ``rejoin`` is set)."""
        if crashes > max(0, n_sites - 1):
            raise ValueError("cannot crash more sites than exist besides the master")
        rng = random.Random(seed)
        victims = rng.sample(range(1, n_sites), crashes) if crashes else []
        planned = tuple(
            SiteCrash(
                cycle=(cycle := rng.randint(2, max(2, within_cycles))),
                site=site,
                rejoin_cycle=cycle + within_cycles if rejoin else None,
            )
            for site in victims
        )
        return cls(
            seed=seed,
            drop_rate=drop_rate,
            dup_rate=dup_rate,
            delay_rate=delay_rate,
            crashes=planned,
        )


class FaultInjector:
    """Per-run state of a :class:`FaultPlan`: the seeded RNG, schedule
    lookups, and the accumulated :class:`FaultEvent` log."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.rng = random.Random(plan.seed)
        self.events: List[FaultEvent] = []
        self.retries = 0
        self._crashes: Dict[int, List[SiteCrash]] = defaultdict(list)
        self._rejoins: Dict[int, List[SiteCrash]] = defaultdict(list)
        for crash in plan.crashes:
            self._crashes[crash.cycle].append(crash)
            if crash.rejoin_cycle is not None:
                self._rejoins[crash.rejoin_cycle].append(crash)
        self._straggle: Dict[int, float] = {
            s.site: s.factor for s in plan.stragglers
        }

    # -- event log ---------------------------------------------------------

    def record(
        self, cycle: int, kind: str, site: Optional[int] = None, detail: str = ""
    ) -> FaultEvent:
        event = FaultEvent(cycle=cycle, kind=kind, site=site, detail=detail)
        self.events.append(event)
        return event

    def drain_events(self) -> List[FaultEvent]:
        """Events since the last drain."""
        out, self.events = self.events, []
        return out

    # -- schedules ---------------------------------------------------------

    def crashes_at(self, cycle: int) -> List[SiteCrash]:
        return self._crashes.get(cycle, [])

    def rejoins_at(self, cycle: int) -> List[SiteCrash]:
        return self._rejoins.get(cycle, [])

    def straggle_factor(self, site: int) -> float:
        return self._straggle.get(site, 1.0)

    # -- message fates -----------------------------------------------------

    def message_fate(self) -> Tuple[int, bool, bool]:
        """Seeded fate of one message: ``(drops, duplicated, delayed)``.

        ``drops`` is how many transmissions were lost before one got
        through (bounded by ``max_retries`` — the sender retries until
        delivery, so drops cost time, never data).
        """
        plan = self.plan
        drops = 0
        while drops < plan.max_retries and self.rng.random() < plan.drop_rate:
            drops += 1
        self.retries += drops
        duplicated = plan.dup_rate > 0.0 and self.rng.random() < plan.dup_rate
        delayed = plan.delay_rate > 0.0 and self.rng.random() < plan.delay_rate
        return drops, duplicated, delayed
