"""Distributed execution with replicated working memories (PARADISER-style).

The :class:`~repro.lab.simmachine.SimMachine` models the paper's
*shared-memory* multiprocessor (one physical store, per-site match state).
PARULEL's successor environment, PARADISER, targeted *distributed*
machines: every site holds its **own working-memory replica**, kept
consistent by shipping the cycle delta as messages. This module charges a
run to that machine:

- each site runs a match engine over its assigned rules against its
  replica;
- a **master** (site 0) runs redaction and the delta merge;
- per cycle the coordinator (a) gathers candidate instantiations from the
  sites, (b) redacts on the master, (c) has each site fire its survivors,
  and (d) ships the merged delta to every site, which applies it.

Like the SimMachine it is a cost model over one
:class:`~repro.core.engine.ParulelEngine` run with a per-site matcher, not
a second implementation of the cycle: every replica would receive the same
delta sequence, so all of them equal the engine's one working memory
(:attr:`wm`), and the machine is functionally identical to a single engine.

The :class:`NetworkModel` charges communication:

- ``latency`` per communication round (two rounds per cycle: gather,
  scatter — charged only when remote sites exist; a 1-site machine is the
  communication-free serial baseline),
- ``per_message`` per candidate summary, redaction verdict, and delta
  entry shipped (delta entries go to P−1 remote sites, or only to
  interested sites with ``multicast=True``).

Figure 5 sweeps ``latency`` to show where communication swamps the
parallel match gain — the trade that separated the DADO/shared-memory
line from distributed rule systems.

**Faults and recovery.** A :class:`~repro.resilience.FaultPlan` injects
deterministic failures: a non-master site can crash at cycle *k* (the
master detects the missed gather, charges the timeout, and re-hosts the
dead site's rules across survivors via
:func:`~repro.lab.partition.rehost_assignment` — the survivors'
rebuilt matchers replay the working memory, and that match work is
charged); a crashed site can rejoin later (charged as replaying the
cumulative delta log: the initial WMEs plus every cycle's removes and
makes so far; then its rules migrate home); messages can be dropped
(retried with backoff, charged through the :class:`NetworkModel`),
duplicated, or delayed; straggler sites multiply their compute ticks.
The engine fires in the language's order whichever site hosts a rule, so
a run that loses a site finishes with exactly the fault-free working
memory. Every injection and recovery action is a
:class:`~repro.resilience.FaultEvent` on ``DistResult.fault_events``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

from repro.core.delta import InterferencePolicy
from repro.core.engine import CycleReport
from repro.errors import CycleLimitExceeded
from repro.lab.costmodel import CostModel
from repro.lab.partition import Assignment, rehost_assignment
from repro.lab.simmachine import SimMachine
from repro.lang.ast import Program
from repro.obs.metrics import NULL_METRICS
from repro.obs.trace import NULL_TRACER
from repro.resilience import FaultEvent, FaultInjector, FaultPlan

__all__ = ["NetworkModel", "DistributedMachine", "DistResult"]


@dataclass(frozen=True)
class NetworkModel:
    """Communication charges for the distributed machine (ticks)."""

    #: Fixed cost per communication round (gather or scatter).
    latency: float = 50.0
    #: Cost per message: candidate summary, verdict, or delta entry-hop.
    per_message: float = 2.0

    def round_cost(self, n_messages: int) -> float:
        return self.latency + self.per_message * n_messages

    def retry_cost(self, drops: int) -> float:
        """Cost of recovering ``drops`` lost transmissions of one message:
        each loss waits one latency (the retransmit timeout) and resends."""
        return drops * (self.latency + self.per_message)


@dataclass
class DistResult:
    """Outcome and cost accounting of a distributed run."""

    n_sites: int
    cycles: int
    firings: int
    reason: str
    compute_ticks: float
    comm_ticks: float
    serial_ticks: float
    messages: int
    output: List[str] = field(default_factory=list)
    #: Every injected fault and recovery action, in occurrence order.
    fault_events: List[FaultEvent] = field(default_factory=list)
    #: Message retransmissions forced by injected drops.
    retries: int = 0

    @property
    def total_ticks(self) -> float:
        return self.compute_ticks + self.comm_ticks + self.serial_ticks

    @property
    def comm_fraction(self) -> float:
        total = self.total_ticks
        return self.comm_ticks / total if total else 0.0

    @property
    def recoveries(self) -> int:
        """Recovery actions taken (redistributions and rejoins)."""
        return sum(
            1 for e in self.fault_events if e.kind in ("redistribute", "rejoin")
        )


class DistributedMachine(SimMachine):
    """PARULEL over P working-memory replicas and a message network."""

    def __init__(
        self,
        program: Program,
        n_sites: int,
        assignment: "Optional[Assignment | str]" = None,
        cost_model: Optional[CostModel] = None,
        network: Optional[NetworkModel] = None,
        matcher: str = "rete",
        interference: InterferencePolicy = InterferencePolicy.ERROR,
        dedupe_makes: bool = True,
        multicast: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        tracer=None,
        metrics=None,
    ) -> None:
        super().__init__(
            program,
            n_sites,
            assignment,
            cost_model,
            matcher,
            interference,
            dedupe_makes,
            multicast=multicast,
        )
        self.network = network or NetworkModel()
        #: Observability (:mod:`repro.obs`). The machine has no wall clock
        #: of its own — everything is cost-model ticks — so its trace is a
        #: *virtual* timeline: one tick renders as one microsecond, each
        #: site is a lane (``site-0`` doubles as the master) and the
        #: :class:`NetworkModel` charges appear as spans on a ``network``
        #: lane. Fault injections/recoveries land as instants.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self._vclock_us = 0.0
        if self.tracer.enabled:
            for s in range(n_sites):
                self.tracer.declare_lane(f"site-{s}")
            self.tracer.declare_lane("network")
        if fault_plan is not None:
            fault_plan.validate_sites(n_sites)
        self._injector: Optional[FaultInjector] = (
            fault_plan.injector() if fault_plan is not None else None
        )
        self._dead: Set[int] = set()
        self._stragglers_noted: Set[int] = set()

    # -- virtual-clock tracing ---------------------------------------------------

    def _vspan(self, name: str, lane: str, start_us: float, dur_us: float, **args) -> float:
        """One span on the virtual timeline (ticks as µs), fed through
        :meth:`~repro.obs.trace.Tracer.ingest` — the path worker processes
        use, so virtual and wall-clock traces share tooling. Returns the
        span's end."""
        end_us = start_us + max(dur_us, 0.0)
        if self.tracer.enabled:
            base = self.tracer.origin_ns
            self.tracer.ingest([
                ("B", name, lane, base + int(start_us * 1000), args or None),
                ("E", name, lane, base + int(end_us * 1000), None),
            ])
        return end_us

    def _obs_faults(self, at_us: float) -> None:
        """Render injector events not yet seen as trace instants (on the
        affected site's lane, or ``network`` for message fates) and
        fault-metric counts."""
        if self._injector is None:
            return
        events = self._injector.events
        for event in events[self._ev_mark :]:
            lane = f"site-{event.site}" if event.site is not None else "network"
            if self.tracer.enabled:
                base = self.tracer.origin_ns
                self.tracer.ingest([
                    ("i", event.kind, lane, base + int(at_us * 1000), {"detail": event.detail})
                ])
            if self.metrics.enabled:
                self.metrics.inc("parulel_fault_events_total", kind=event.kind)
        self._ev_mark = len(events)

    def _count(self, round_name: str, n: int) -> None:
        self.messages += n
        if self.metrics.enabled and n:
            self.metrics.inc("parulel_network_messages_total", n, round=round_name)

    def _round(self, name: str, n: int, cycle_no: int, vt: float) -> float:
        """Charge one communication round carrying ``n`` messages; returns
        the virtual clock after it. A single-site machine exchanges no
        messages at all — charging round latency there would inflate the
        serial baseline and fake distributed speedup."""
        if self.n_sites > 1:
            cost = self.network.round_cost(n) + self._message_faults(n, cycle_no, name)
            self.comm += cost
            vt = self._vspan(name, "network", vt, cost, cycle=cycle_no, messages=n)
        self._count(name, n)
        return vt

    # -- fault handling ----------------------------------------------------------

    def _rehost(self) -> int:
        """Host every rule on a live site; returns the rule slots moved."""
        return self.sites.rehost(
            rehost_assignment(self.assignment, sorted(self._dead), self.program.rules)
        )

    def _begin_cycle(self, cycle_no: int) -> None:
        """Apply the crashes and rejoins scheduled for ``cycle_no`` and
        charge their recovery traffic — before that cycle's gather."""
        inj = self._injector
        if inj is None or cycle_no > self._last_cycle:
            return
        network = self.network
        comm = 0.0
        messages = 0
        for crash in inj.rejoins_at(cycle_no):
            site = crash.site
            if site not in self._dead:
                continue
            # The replica replays the cumulative delta log, then the
            # site's rules migrate home.
            self._dead.discard(site)
            moved = self._rehost()
            records = self._log_records
            inj.record(
                cycle_no,
                "rejoin",
                site=site,
                detail=f"replayed {records} delta record(s); {moved} rule "
                f"slot(s) migrated home",
            )
            self._site_mode(site, 0)
            comm += network.round_cost(records)
            messages += records
        for crash in inj.crashes_at(cycle_no):
            site = crash.site
            if site in self._dead:
                continue
            self._dead.add(site)
            self.sites.host(site, [])
            inj.record(cycle_no, "crash", site=site)
            # Detection: the master waits one full gather timeout for the
            # dead site before declaring it lost.
            inj.record(cycle_no, "detect", site=site, detail="missed gather (timeout)")
            moved = self._rehost()
            inj.record(
                cycle_no,
                "redistribute",
                site=site,
                detail=f"{moved} rule slot(s) re-hosted across survivors",
            )
            self._site_mode(site, 1)
            # One timeout round, then a control round carrying the new hosting.
            comm += network.latency + network.round_cost(moved)
            messages += moved
        self.comm += comm
        self.messages += messages
        self._obs_faults(self._vclock_us)
        if comm:
            self._vclock_us = self._vspan(
                "recovery", "network", self._vclock_us, comm,
                cycle=cycle_no, messages=messages,
            )

    def _site_mode(self, site: int, mode: int) -> None:
        # Same gauge the process pool exports: 0 = site serving, 1 =
        # degraded/down.
        if self.metrics.enabled:
            self.metrics.set_gauge("parulel_site_mode", mode, site=site)

    def _message_faults(self, n_remote: int, cycle_no: int, round_name: str) -> float:
        """Seeded drop/duplicate/delay fates for one round's messages;
        returns the extra comm ticks they cost (extra messages are
        counted here)."""
        inj = self._injector
        if inj is None:
            return 0.0
        plan = inj.plan
        if not (plan.drop_rate or plan.dup_rate or plan.delay_rate):
            return 0.0
        comm = 0.0
        for _ in range(n_remote):
            drops, duplicated, delayed = inj.message_fate()
            if drops:
                comm += self.network.retry_cost(drops)
                self.messages += drops
                inj.record(
                    cycle_no, "drop", detail=f"{round_name}: {drops} retransmission(s)"
                )
            if duplicated:
                comm += self.network.per_message
                self.messages += 1
                inj.record(cycle_no, "duplicate", detail=round_name)
            if delayed:
                comm += self.network.latency
                inj.record(cycle_no, "delay", detail=round_name)
        return comm

    def _straggle(self, site: int, cycle_no: int) -> float:
        """The site's compute multiplier (noted once, when first charged)."""
        if self._injector is None:
            return 1.0
        factor = self._injector.straggle_factor(site)
        if factor != 1.0 and site not in self._stragglers_noted:
            self._stragglers_noted.add(site)
            self._injector.record(
                cycle_no, "straggler", site=site, detail=f"compute ×{factor:g}"
            )
        return factor

    # -- execution ---------------------------------------------------------------

    def _result(self, cycles: int, firings: int, reason: str) -> DistResult:
        inj = self._injector
        return DistResult(
            n_sites=self.n_sites,
            cycles=cycles,
            firings=firings,
            reason=reason,
            compute_ticks=self.compute,
            comm_ticks=self.comm,
            serial_ticks=self.serial,
            messages=self.messages,
            output=list(self.engine.output),
            fault_events=list(inj.events) if inj is not None else [],
            retries=inj.retries if inj is not None else 0,
        )

    def run(self, max_cycles: int = 100_000) -> DistResult:
        self.compute = self.comm = self.serial = 0.0
        self.messages = 0
        self._ev_mark = 0
        self._last_cycle = self.engine.cycle + max_cycles
        #: What a rejoining replica replays: the initial WMEs, then every
        #: cycle's removes and makes.
        self._log_records = len(self.wm)
        # Load phase: parallel across sites.
        load = self._load()
        self.compute += max(load)
        if any(load):
            for s, ticks in enumerate(load):
                if ticks:
                    self._vspan("load", f"site-{s}", self._vclock_us, ticks)
            self._vclock_us += max(load)
        self._begin_cycle(self.engine.cycle + 1)
        try:
            run = self.engine.run(max_cycles)
        except CycleLimitExceeded as exc:
            exc.partial = self._result(exc.cycles_completed, exc.firings, "cycle-limit")
            raise
        return self._result(run.cycles, run.firings, run.reason)

    def _remote_candidates(self, report: CycleReport) -> int:
        """Candidates of this cycle found by sites other than the master."""
        engine = self.engine
        log = engine.fired_log
        fired_now = set(log[len(log) - report.fired :])
        site_of = self.sites.hosting.site_of
        return sum(
            1
            for inst in self.sites.collected
            if site_of[inst.rule.name] != 0
            and (inst.key in fired_now or inst.key not in engine.fired)
        )

    def _charge_cycle(self, report: CycleReport) -> None:
        cycle_no = report.cycle
        cost = self.cost
        # Gather: every candidate a remote site found.
        vt = self._round(
            "gather", self._remote_candidates(report), cycle_no, self._vclock_us
        )

        # Redact on the master; only the verdicts ship back.
        red = report.redaction
        redact_ticks = cost.redact_overhead * red.meta_firings
        verdict_cost = self.network.per_message * red.redacted
        self.serial += redact_ticks
        self.comm += verdict_cost
        self._count("verdict", red.redacted)
        vt = self._vspan(
            "redact", "site-0", vt, redact_ticks,
            cycle=cycle_no, candidates=report.candidates, redacted=red.redacted,
        )
        if verdict_cost:
            vt = self._vspan(
                "verdicts", "network", vt, verdict_cost,
                cycle=cycle_no, messages=red.redacted,
            )
        if not report.fired:
            self._vclock_us = vt
            return

        # Sites fire their own survivors, the master merges, the delta
        # ships to every live site (multicast: to those reading its classes).
        fire = self._fire_ticks(report)
        size = report.delta_removes + report.delta_makes
        self.serial += cost.wm_broadcast * 0.5 * size
        live = [s for s in range(self.n_sites) if s not in self._dead]
        scatter = sum(
            self.sites.relevant(s) if self.multicast else size for s in live if s != 0
        )
        vt = self._round("scatter", scatter, cycle_no, vt)
        self.sites.changes.clear()
        self._log_records += size

        # Per-site compute: match + fire, stragglers slowed.
        site_ticks = []
        for s in live:
            ticks = (cost.match_cost(self.sites.ops(s)) + fire[s]) * self._straggle(
                s, cycle_no
            )
            self._vspan("match+fire", f"site-{s}", vt, ticks, cycle=cycle_no)
            site_ticks.append(ticks)
        self.compute += max(site_ticks)
        self.serial += cost.barrier
        vt += max(site_ticks) + cost.barrier
        self._obs_faults(vt)
        self._vclock_us = vt
        if not report.halted:
            self._begin_cycle(cycle_no + 1)
