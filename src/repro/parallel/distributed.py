"""Distributed execution with replicated working memories (PARADISER-style).

The :class:`~repro.parallel.simmachine.SimMachine` models the paper's
*shared-memory* multiprocessor (one physical store, per-site match state).
PARULEL's successor environment, PARADISER, targeted *distributed*
machines: every site holds its **own working-memory replica**, kept
consistent by shipping the cycle delta as messages. This module implements
that execution model honestly:

- each site owns a real, separate :class:`~repro.wm.memory.WorkingMemory`
  (no shared store at all) plus a match engine over its assigned rules;
- a **master** (site 0's replica) runs redaction and the delta merge;
- per cycle the coordinator (a) gathers candidate instantiations from the
  sites, (b) redacts on the master, (c) evaluates survivors against the
  master replica, and (d) ships the merged delta to every site, which
  applies it to its own replica;
- WME identity is by value + timestamp and every replica applies the same
  delta sequence, so timestamps — and therefore instantiation keys —
  agree across replicas without any global coordination; tests assert
  replicas stay byte-identical and the whole machine is functionally
  equivalent to a single :class:`~repro.core.engine.ParulelEngine`.

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

**Faults and recovery.** A :class:`~repro.faults.FaultPlan` injects
deterministic failures: a non-master site can crash at cycle *k* (the
master detects the missed gather, charges the timeout, and re-hosts the
dead site's rules across survivors via
:func:`~repro.parallel.partition.rehost_assignment`); a crashed site can
rejoin later (its replica is rebuilt by replaying the machine's cumulative
delta log, then its rules migrate home); messages can be dropped
(retried with backoff, charged through the :class:`NetworkModel`),
duplicated, or delayed; straggler sites multiply their compute ticks.
Because the master gathers candidates into a *canonical order* —
``(rule position in the program, instantiation key)`` — results are
byte-identical whichever site happens to host a rule, so a run that loses
a site finishes with exactly the fault-free working memory. Every
injection and recovery action is a :class:`~repro.faults.FaultEvent` on
``DistResult.fault_events``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.errors import CycleLimitExceeded
from repro.core.actions import ActionEvaluator, InstantiationDelta
from repro.core.delta import InterferencePolicy, merge_deltas
from repro.core.redaction import MetaLevel
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.lang.ast import Program, Value
from repro.match.compile import compile_rules
from repro.match.instantiation import InstKey, Instantiation
from repro.match.interface import Matcher, create_matcher
from repro.obs.metrics import NULL_METRICS
from repro.obs.trace import NULL_TRACER, TraceEvent
from repro.parallel.costmodel import CostModel
from repro.parallel.partition import (
    Assignment,
    rehost_assignment,
    resolve_assignment,
)
from repro.wm.memory import WorkingMemory
from repro.wm.template import TemplateRegistry
from repro.wm.wme import WME

__all__ = ["NetworkModel", "DistributedMachine", "DistResult"]

#: One delta-log entry, in wire form: ``(removed timestamps, makes)`` where
#: each make is ``(class, attrs, timestamp)``. The log is cumulative from
#: machine construction, so replaying it into an empty store reproduces any
#: replica exactly — that is how a rejoining site catches up.
LogEntry = Tuple[Tuple[int, ...], Tuple[Tuple[str, Dict[str, Value], int], ...]]


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


class DistributedMachine:
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
        if n_sites < 1:
            raise ValueError("need at least one site")
        self.program = program
        self.n_sites = n_sites
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
        self.assignment = resolve_assignment(assignment, program.rules, n_sites)
        self.assignment.validate(program.rules)
        self.cost = cost_model or CostModel()
        self.network = network or NetworkModel()
        self.interference = InterferencePolicy.of(interference)
        self.dedupe_makes = dedupe_makes
        self.multicast = multicast
        self.matcher_name = matcher
        if fault_plan is not None:
            fault_plan.validate_sites(n_sites)
        self._injector: Optional[FaultInjector] = (
            fault_plan.injector() if fault_plan is not None else None
        )
        #: Canonical gather order: rule position in the program. Candidates
        #: sort by (rule index, instantiation key), so the firing order —
        #: and therefore every timestamp the run allocates — is independent
        #: of which site happens to host a rule. Recovery that moves rules
        #: between sites cannot perturb results.
        self._rule_index: Dict[str, int] = {
            r.name: i for i, r in enumerate(program.rules)
        }

        #: One REAL working memory per site — nothing is shared.
        self.replicas: List[WorkingMemory] = [
            WorkingMemory(TemplateRegistry.from_program(program))
            for _ in range(n_sites)
        ]
        self.evaluator = ActionEvaluator()
        #: Current rule hosting; starts as the configured assignment and is
        #: recomputed by `rehost_assignment` when sites die or rejoin.
        self.hosting: Assignment = self.assignment
        self._dead: Set[int] = set()
        self.site_matchers: List[Optional[Matcher]] = [None] * n_sites
        self._hosted_names: List[frozenset] = [frozenset()] * n_sites
        self._site_interests: List[frozenset] = [frozenset()] * n_sites
        self._site_op_marks = [Counter() for _ in range(n_sites)]
        for site in range(n_sites):
            self._build_site_matcher(site)
        # The master replica hosts the meta level.
        self.meta = MetaLevel(program.meta_rules, self.replicas[0], self.evaluator)
        self.fired: Set[InstKey] = set()
        self.output: List[str] = []
        #: Cumulative delta log since construction (initial makes included):
        #: the catch-up script replayed into a rejoining replica.
        self._log: List[LogEntry] = []
        self._stragglers_noted: Set[int] = set()

    # -- site (re)construction ---------------------------------------------------

    def _build_site_matcher(self, site: int) -> None:
        """(Re)build one site's matcher over the rules it currently hosts.

        The fresh matcher replays the whole replica, so its match work —
        the real cost of re-hosting rules after a failure — lands in the
        site's next compute delta.
        """
        old = self.site_matchers[site]
        if old is not None:
            old.detach()
        rules = self.hosting.rules_of_site(site, self.program.rules)
        self.site_matchers[site] = create_matcher(
            self.matcher_name, rules, self.replicas[site]
        )
        self._site_op_marks[site] = Counter()
        self._hosted_names[site] = frozenset(r.name for r in rules)
        classes: Set[str] = set()
        for compiled in compile_rules(rules):
            for ce in compiled.ces:
                classes.add(ce.class_name)
        self._site_interests[site] = frozenset(classes)

    def _rehost(self) -> int:
        """Recompute hosting for the current dead set; rebuild every site
        whose hosted rule set changed. Returns the number of rules moved."""
        self.hosting = rehost_assignment(
            self.assignment, sorted(self._dead), self.program.rules
        )
        moved = 0
        for site in range(self.n_sites):
            if site in self._dead:
                continue
            hosted = frozenset(
                r.name
                for r in self.program.rules
                if self.hosting.site_of[r.name] == site
            )
            if hosted != self._hosted_names[site]:
                moved += len(hosted.symmetric_difference(self._hosted_names[site]))
                self._build_site_matcher(site)
        return moved

    # -- workload ---------------------------------------------------------------

    def make(self, class_name: str, attrs: Optional[Mapping[str, Value]] = None, **kw: Value):
        """Assert an initial WME into *every* replica (same timestamps)."""
        first = self.replicas[0].make(class_name, attrs, **kw)
        for replica in self.replicas[1:]:
            replica.add(WME(first.class_name, first.attributes, first.timestamp))
        self._log.append(
            ((), ((first.class_name, first.attributes, first.timestamp),))
        )
        return first

    # -- consistency (tests call this) ---------------------------------------------

    def replicas_consistent(self) -> bool:
        """All live replicas hold exactly the same WMEs.

        Replicas of currently-dead sites are stale by definition (they
        receive no deltas until they rejoin and replay the log) and are
        excluded.
        """
        reference = set(self.replicas[0])
        return all(
            set(replica) == reference
            for site, replica in enumerate(self.replicas)
            if site != 0 and site not in self._dead
        )

    # -- accounting -------------------------------------------------------------

    def _site_ops_delta(self, site: int) -> Counter:
        matcher = self.site_matchers[site]
        if matcher is None:
            return Counter()
        now = matcher.stats.snapshot()
        delta = now - self._site_op_marks[site]
        self._site_op_marks[site] = now
        return delta

    # -- virtual-clock tracing ---------------------------------------------------

    def _vspan(
        self, batch: List[TraceEvent], name: str, lane: str, start_us: float, dur_us: float, **args
    ) -> None:
        """Synthesize one span on the virtual timeline (ticks as µs).

        Events are plain :data:`~repro.obs.trace.TraceEvent` tuples with
        timestamps offset from the tracer's origin, fed through
        :meth:`~repro.obs.trace.Tracer.ingest` — exactly the path worker
        processes use, so virtual and wall-clock traces share tooling.
        """
        base = self.tracer.origin_ns
        batch.append(("B", name, lane, base + int(start_us * 1000), args or None))
        batch.append(("E", name, lane, base + int((start_us + max(dur_us, 0.0)) * 1000), None))

    def _vinstant(
        self, batch: List[TraceEvent], name: str, lane: str, at_us: float, **args
    ) -> None:
        base = self.tracer.origin_ns
        batch.append(("i", name, lane, base + int(at_us * 1000), args or None))

    def _obs_faults(self, batch: List[TraceEvent], ev_mark: int, at_us: float) -> int:
        """Render injector events recorded since ``ev_mark`` as trace
        instants (on the affected site's lane, or ``network`` for message
        fates) and fault-metric counts; returns the new mark."""
        if self._injector is None:
            return ev_mark
        events = self._injector.events
        for event in events[ev_mark:]:
            lane = f"site-{event.site}" if event.site is not None else "network"
            if self.tracer.enabled:
                self._vinstant(batch, event.kind, lane, at_us, detail=event.detail)
            if self.metrics.enabled:
                self.metrics.inc("parulel_fault_events_total", kind=event.kind)
        return len(events)

    # -- fault handling ----------------------------------------------------------

    def _crash_site(self, site: int, cycle_no: int) -> Tuple[float, int]:
        """Kill a site: detach its matcher, detect via the missed gather,
        and re-host its rules on the survivors. Returns (comm, messages)
        charged for detection + redistribution."""
        assert self._injector is not None
        self._dead.add(site)
        matcher = self.site_matchers[site]
        if matcher is not None:
            matcher.detach()
            self.site_matchers[site] = None
        self._injector.record(cycle_no, "crash", site=site)
        # Detection: the master waits one full gather timeout for the dead
        # site before declaring it lost.
        self._injector.record(
            cycle_no, "detect", site=site, detail="missed gather (timeout)"
        )
        moved = self._rehost()
        self._injector.record(
            cycle_no,
            "redistribute",
            site=site,
            detail=f"{moved} rule slot(s) re-hosted across survivors",
        )
        if self.metrics.enabled:
            # Same gauge the process pool's supervisor exports: 0 = site
            # serving at full isolation, >0 = degraded/down.
            self.metrics.set_gauge("parulel_site_mode", 1, site=site)
        # One timeout round, then a control round carrying the new hosting.
        return self.network.latency + self.network.round_cost(moved), moved

    def _rejoin_site(self, site: int, cycle_no: int) -> Tuple[float, int]:
        """Resurrect a site: rebuild its replica by replaying the cumulative
        delta log, then migrate its rules home. Returns (comm, messages)
        charged for the replay."""
        assert self._injector is not None
        replica = WorkingMemory(TemplateRegistry.from_program(self.program))
        by_ts: Dict[int, WME] = {}
        records = 0
        for removes, makes in self._log:
            for ts in removes:
                replica.remove(by_ts.pop(ts))
                records += 1
            for class_name, attrs, ts in makes:
                wme = WME(class_name, dict(attrs), ts)
                replica.add(wme)
                by_ts[ts] = wme
                records += 1
        self.replicas[site] = replica
        self._dead.discard(site)
        self._build_site_matcher(site)
        moved = self._rehost()
        self._injector.record(
            cycle_no,
            "rejoin",
            site=site,
            detail=f"replayed {records} delta record(s); {moved} rule slot(s) "
            f"migrated home",
        )
        if self.metrics.enabled:
            self.metrics.set_gauge("parulel_site_mode", 0, site=site)
        return self.network.round_cost(records), records

    def _apply_cycle_faults(self, cycle_no: int) -> Tuple[float, int]:
        """Process this cycle's scheduled crashes/rejoins; returns the
        (comm ticks, messages) the recovery traffic cost."""
        assert self._injector is not None
        comm = 0.0
        messages = 0
        for crash in self._injector.rejoins_at(cycle_no):
            if crash.site in self._dead:
                c, m = self._rejoin_site(crash.site, cycle_no)
                comm += c
                messages += m
        for crash in self._injector.crashes_at(cycle_no):
            if crash.site not in self._dead:
                c, m = self._crash_site(crash.site, cycle_no)
                comm += c
                messages += m
        return comm, messages

    def _charge_message_faults(
        self, n_remote: int, cycle_no: int, round_name: str
    ) -> Tuple[float, int]:
        """Seeded drop/duplicate/delay fates for one round's messages;
        returns the extra (comm ticks, messages) they cost."""
        inj = self._injector
        assert inj is not None
        plan = inj.plan
        if not (plan.drop_rate or plan.dup_rate or plan.delay_rate):
            return 0.0, 0
        comm = 0.0
        messages = 0
        for _ in range(n_remote):
            drops, duplicated, delayed = inj.message_fate()
            if drops:
                comm += self.network.retry_cost(drops)
                messages += drops
                inj.record(
                    cycle_no,
                    "drop",
                    detail=f"{round_name}: {drops} retransmission(s)",
                )
            if duplicated:
                comm += self.network.per_message
                messages += 1
                inj.record(cycle_no, "duplicate", detail=round_name)
            if delayed:
                comm += self.network.latency
                inj.record(cycle_no, "delay", detail=round_name)
        return comm, messages

    # -- execution ---------------------------------------------------------------

    def run(self, max_cycles: int = 100_000) -> DistResult:
        compute = 0.0
        comm = 0.0
        serial = 0.0
        messages = 0
        cycles = 0
        firings = 0
        reason = "quiescence"

        def result(reason: str) -> DistResult:
            return DistResult(
                n_sites=self.n_sites,
                cycles=cycles,
                firings=firings,
                reason=reason,
                compute_ticks=compute,
                comm_ticks=comm,
                serial_ticks=serial,
                messages=messages,
                output=list(self.output),
                fault_events=(
                    list(self._injector.events) if self._injector is not None else []
                ),
                retries=self._injector.retries if self._injector is not None else 0,
            )

        def flush(batch: List[TraceEvent], vt: float) -> None:
            if batch:
                self.tracer.ingest(batch)
            self._vclock_us = vt

        # Load phase: parallel across sites.
        load = [self.cost.match_cost(self._site_ops_delta(s)) for s in range(self.n_sites)]
        compute += max(load) if load else 0.0
        if self.tracer.enabled and any(load):
            batch: List[TraceEvent] = []
            for s, ticks in enumerate(load):
                if ticks:
                    self._vspan(batch, "load", f"site-{s}", self._vclock_us, ticks)
            flush(batch, self._vclock_us + max(load))

        ev_mark = 0
        while True:
            if cycles >= max_cycles:
                raise CycleLimitExceeded(
                    f"distributed run exceeded {max_cycles} cycles",
                    cycles_completed=cycles,
                    firings=firings,
                    partial=result("cycle-limit"),
                )
            cycle_no = cycles + 1
            batch = []
            vt = self._vclock_us
            if self._injector is not None:
                fault_comm, fault_msgs = self._apply_cycle_faults(cycle_no)
                comm += fault_comm
                messages += fault_msgs
                ev_mark = self._obs_faults(batch, ev_mark, vt)
                if self.tracer.enabled and fault_comm:
                    self._vspan(
                        batch, "recovery", "network", vt, fault_comm,
                        cycle=cycle_no, messages=fault_msgs,
                    )
                    vt += fault_comm

            # ---- gather candidates (one communication round) --------------
            candidates: List[Instantiation] = []
            for matcher in self.site_matchers:
                if matcher is None:
                    continue
                for inst in matcher.instantiations():
                    if inst.key in self.fired:
                        continue
                    candidates.append(inst)
            candidates.sort(
                key=lambda i: (self._rule_index[i.rule.name], i.key)
            )
            inst_site: Dict[InstKey, int] = {
                inst.key: self.hosting.site_of[inst.rule.name]
                for inst in candidates
            }
            gather_msgs = sum(1 for site in inst_site.values() if site != 0)
            if not candidates:
                flush(batch, vt)
                break
            cycles += 1
            # A single-site machine exchanges no messages at all — charging
            # round latency there would inflate the serial baseline and
            # fake distributed speedup.
            if self.n_sites > 1:
                gather_cost = self.network.round_cost(gather_msgs)
                if self._injector is not None:
                    extra_comm, extra_msgs = self._charge_message_faults(
                        gather_msgs, cycle_no, "gather"
                    )
                    gather_cost += extra_comm
                    messages += extra_msgs
                comm += gather_cost
                if self.tracer.enabled:
                    self._vspan(
                        batch, "gather", "network", vt, gather_cost,
                        cycle=cycle_no, messages=gather_msgs,
                    )
                    vt += gather_cost
            messages += gather_msgs
            if self.metrics.enabled and gather_msgs:
                self.metrics.inc(
                    "parulel_network_messages_total", gather_msgs, round="gather"
                )

            # ---- redact on the master -------------------------------------
            survivors, red_report = self.meta.redact(candidates)
            self.output.extend(self.meta.writes)
            redact_ticks = self.cost.redact_overhead * red_report.meta_firings
            verdict_cost = self.network.per_message * red_report.redacted
            serial += redact_ticks
            # Only redaction verdicts ship back (survivors fire in place).
            comm += verdict_cost
            messages += red_report.redacted
            if self.tracer.enabled:
                self._vspan(
                    batch, "redact", "site-0", vt, redact_ticks,
                    cycle=cycle_no, candidates=len(candidates),
                    redacted=red_report.redacted,
                )
                vt += redact_ticks
                if verdict_cost:
                    self._vspan(
                        batch, "verdicts", "network", vt, verdict_cost,
                        cycle=cycle_no, messages=red_report.redacted,
                    )
                    vt += verdict_cost
            if self.metrics.enabled and red_report.redacted:
                self.metrics.inc(
                    "parulel_network_messages_total",
                    red_report.redacted,
                    round="verdict",
                )

            if not survivors:
                reason = "redaction-quiescence"
                flush(batch, vt)
                break

            # ---- fire (each site evaluates its own survivors) --------------
            deltas: List[InstantiationDelta] = []
            fire_ticks = [0.0] * self.n_sites
            for inst in survivors:
                self.fired.add(inst.key)
                deltas.append(self.evaluator.evaluate(inst))
                fire_ticks[inst_site[inst.key]] += self.cost.fire
            firings += len(survivors)

            merged = merge_deltas(
                deltas, policy=self.interference, dedupe_makes=self.dedupe_makes
            )
            serial += self.cost.wm_broadcast * 0.5 * merged.size

            # ---- scatter the delta; every live replica applies it ----------
            removed_keys = [
                (w.class_name, w.attributes, w.timestamp) for w in merged.removes
            ]
            scatter_msgs = 0
            new_timestamps: List[int] = []
            for site, replica in enumerate(self.replicas):
                if site != 0 and site in self._dead:
                    continue  # stale until it rejoins and replays the log
                # Removes resolve by value+timestamp in each replica.
                for class_name, attrs, ts in removed_keys:
                    replica.remove(WME(class_name, dict(attrs), ts))
                for i, (class_name, attrs) in enumerate(merged.makes):
                    if site == 0:
                        wme = replica.make(class_name, attrs)
                        new_timestamps.append(wme.timestamp)
                    else:
                        replica.add(WME(class_name, dict(attrs), new_timestamps[i]))
                if site != 0:
                    if self.multicast:
                        relevant = sum(
                            1
                            for cls, _a in merged.makes
                            if cls in self._site_interests[site]
                        ) + sum(
                            1
                            for cls, _a, _t in removed_keys
                            if cls in self._site_interests[site]
                        )
                    else:
                        relevant = merged.size
                    scatter_msgs += relevant
            self._log.append(
                (
                    tuple(ts for _c, _a, ts in removed_keys),
                    tuple(
                        (class_name, dict(attrs), new_timestamps[i])
                        for i, (class_name, attrs) in enumerate(merged.makes)
                    ),
                )
            )
            if self.n_sites > 1:
                scatter_cost = self.network.round_cost(scatter_msgs)
                if self._injector is not None:
                    extra_comm, extra_msgs = self._charge_message_faults(
                        scatter_msgs, cycle_no, "scatter"
                    )
                    scatter_cost += extra_comm
                    messages += extra_msgs
                comm += scatter_cost
                if self.tracer.enabled:
                    self._vspan(
                        batch, "scatter", "network", vt, scatter_cost,
                        cycle=cycle_no, messages=scatter_msgs,
                    )
                    vt += scatter_cost
            messages += scatter_msgs
            if self.metrics.enabled and scatter_msgs:
                self.metrics.inc(
                    "parulel_network_messages_total", scatter_msgs, round="scatter"
                )
            for delta in deltas:
                self.evaluator.run_calls(delta)
            self.output.extend(merged.writes)

            # ---- per-site compute time ---------------------------------------
            site_ticks = []
            for s in range(self.n_sites):
                if s in self._dead:
                    continue
                ticks = self.cost.match_cost(self._site_ops_delta(s)) + fire_ticks[s]
                if self._injector is not None:
                    factor = self._injector.straggle_factor(s)
                    if factor != 1.0:
                        ticks *= factor
                        if s not in self._stragglers_noted:
                            self._stragglers_noted.add(s)
                            self._injector.record(
                                cycle_no,
                                "straggler",
                                site=s,
                                detail=f"compute ×{factor:g}",
                            )
                if self.tracer.enabled:
                    self._vspan(
                        batch, "match+fire", f"site-{s}", vt, ticks, cycle=cycle_no
                    )
                site_ticks.append(ticks)
            compute += max(site_ticks)
            serial += self.cost.barrier
            vt += max(site_ticks) + self.cost.barrier
            ev_mark = self._obs_faults(batch, ev_mark, vt)
            flush(batch, vt)

            if merged.halt or self.meta.halt_requested:
                reason = "halt"
                break

        return result(reason)
