"""SimMachine: PARULEL's cycle charged to P simulated sites.

Execution model (mirrors the shared-memory multiprocessor the paper used):

- every site holds the **full working memory** (changes are broadcast at
  end of cycle) and the match state for **its assigned rules only**;
- each cycle, sites match and fire *in parallel*; the cycle's parallel time
  is the **makespan** — the slowest site's (match + fire + broadcast
  application) work;
- the **meta level runs serially** (on a master) between match and fire, as
  does the final delta merge — these are the cycle's sequential fraction,
  which is what bounds speedup à la Amdahl;
- a **barrier** charge per cycle models synchronization.

Implementation: the machine has no cycle of its own. It runs one
:class:`~repro.core.engine.ParulelEngine` whose matcher is a
:class:`SiteMatcher` — one match engine per site over the site's rules, all
on the engine's one working memory — and charges each cycle from what the
engine's trace callback can read once the cycle is done: each site's
match-operation delta, the firings of each site's rules (the engine's fired
log), the meta level's operation delta (``engine.meta.stats``), and the size
and classes of the merged delta. So a SimMachine run *is* an engine run —
same cycles, firings and final working memory — and the
:class:`~repro.lab.costmodel.CostModel` turns its records into
Figure 1/2's speedup curves deterministically.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, List, Mapping, Optional, Sequence

from repro.core.delta import InterferencePolicy
from repro.core.engine import CycleReport, EngineConfig, ParulelEngine
from repro.lab.costmodel import CostModel
from repro.lab.partition import Assignment, resolve_assignment
from repro.lab.rete import create_lab_matcher
from repro.lang.ast import Program, Rule, Value
from repro.match.instantiation import InstKey, Instantiation
from repro.match.interface import Matcher
from repro.wm.memory import WorkingMemory
from repro.wm.template import TemplateRegistry
from repro.wm.wme import WME

__all__ = ["SimMachine", "SimResult", "SiteMatcher"]


@dataclass
class SimResult:
    """Timing and outcome of a simulated run."""

    n_sites: int
    cycles: int
    firings: int
    reason: str
    #: Sum over cycles of the slowest site's work (the parallel part).
    parallel_ticks: float
    #: Serial part: redaction + merge + barriers.
    serial_ticks: float
    #: Total WM-update messages delivered to sites (broadcast: every change
    #: to every site; multicast: only to sites whose rules read the class).
    messages: int = 0
    #: Per-cycle makespans (parallel part only).
    makespans: List[float] = field(default_factory=list)
    #: Per-site total work across the run (load-balance diagnostics).
    site_totals: List[float] = field(default_factory=list)
    output: List[str] = field(default_factory=list)

    @property
    def total_ticks(self) -> float:
        return self.parallel_ticks + self.serial_ticks

    @property
    def load_imbalance(self) -> float:
        """max site load / mean site load (1.0 = perfectly balanced)."""
        if not self.site_totals or not any(self.site_totals):
            return 1.0
        mean = sum(self.site_totals) / len(self.site_totals)
        return max(self.site_totals) / mean if mean else 1.0


class SiteMatcher:
    """The engine's matcher on a simulated machine: one
    :func:`~repro.lab.rete.create_lab_matcher` per site over the rules
    the site hosts, all listening to one working memory.

    Its conflict set is the union of the sites'. Beside it, it keeps what
    the cost models read after each cycle: every site's match-operation
    delta (:meth:`ops`), the classes of the working-memory changes since
    ``changes`` was last cleared, and the instantiations last collected.
    """

    def __init__(
        self, spec: str, rules: Sequence[Rule], wm: WorkingMemory, hosting: Assignment
    ) -> None:
        self.spec = spec
        self.rules = rules
        self.wm = wm
        #: ``None`` for a site that hosts no rule (or is down).
        self.matchers: List[Optional[Matcher]] = [None] * hosting.n_sites
        self._marks = [Counter() for _ in range(hosting.n_sites)]
        #: Class -> working-memory changes since the last ``clear()``.
        self.changes: Counter = Counter()
        self.collected: List[Instantiation] = []
        wm.add_listener(self._note)
        self.rehost(hosting)

    def _note(self, wmes: Sequence[WME], added: bool) -> None:
        self.changes.update([wme.class_name for wme in wmes])

    def host(self, site: int, rules: Sequence[Rule]) -> None:
        """(Re)build one site's matcher over ``rules``. A fresh matcher
        replays the whole working memory, so its priming work lands in the
        site's next :meth:`ops`."""
        old = self.matchers[site]
        if old is not None:
            old.detach()
        self.matchers[site] = (
            create_lab_matcher(self.spec, rules, self.wm) if rules else None
        )
        self._marks[site] = Counter()

    def hosted(self, site: int) -> frozenset:
        matcher = self.matchers[site]
        return frozenset(matcher.rule_names()) if matcher is not None else frozenset()

    def rehost(self, hosting: Assignment) -> int:
        """Adopt ``hosting``, rebuilding every site whose rule set changes;
        returns the rule slots that moved."""
        self.hosting = hosting
        moved = 0
        for site in range(hosting.n_sites):
            rules = hosting.rules_of_site(site, self.rules)
            names, old = frozenset(r.name for r in rules), self.hosted(site)
            if names != old:
                moved += len(names ^ old)
                self.host(site, rules)
        return moved

    def ops(self, site: int) -> Counter:
        """Match operations the site performed since the last call."""
        matcher = self.matchers[site]
        if matcher is None:
            return Counter()
        now = matcher.stats.snapshot()
        delta = now - self._marks[site]
        self._marks[site] = now
        return delta

    def relevant(self, site: int) -> int:
        """Changes since ``changes`` was cleared of classes the site reads."""
        matcher = self.matchers[site]
        if matcher is None:
            return 0
        reads = {ce.class_name for compiled in matcher.compiled for ce in compiled.ces}
        return sum(n for cls, n in self.changes.items() if cls in reads)

    def instantiations(self) -> List[Instantiation]:
        out: List[Instantiation] = []
        for matcher in self.matchers:
            if matcher is not None:
                out.extend(matcher.instantiations())
        self.collected = out
        return out

    def consume(self, keys: Sequence[InstKey]) -> None:
        """A no-op: the simulators charge the era's matchers, which kept
        every fired instantiation until one of its WMEs went, so the sites
        keep them too (the engine filters them out at collect)."""


class SimMachine:
    """Barrier-synchronized multi-site execution of a PARULEL program."""

    def __init__(
        self,
        program: Program,
        n_sites: int,
        assignment: "Optional[Assignment | str]" = None,
        cost_model: Optional[CostModel] = None,
        matcher: str = "rete",
        interference: InterferencePolicy = InterferencePolicy.ERROR,
        dedupe_makes: bool = True,
        host_functions: Optional[Mapping[str, Callable]] = None,
        multicast: bool = False,
    ) -> None:
        if n_sites < 1:
            raise ValueError("need at least one site")
        self.program = program
        self.n_sites = n_sites
        self.assignment = resolve_assignment(assignment, program.rules, n_sites)
        self.assignment.validate(program.rules)
        self.cost = cost_model or CostModel()
        #: PARADISER-style interest-based update delivery: a WM change is
        #: charged only to sites whose rules *read* the changed class,
        #: instead of broadcast to every site. Only the communication
        #: charges differ. Ablation A4 measures the gap.
        self.multicast = multicast
        self.wm = WorkingMemory(TemplateRegistry.from_program(program))
        self.sites = SiteMatcher(matcher, program.rules, self.wm, self.assignment)
        self.engine = ParulelEngine(
            program,
            EngineConfig(
                interference=interference,
                dedupe_makes=dedupe_makes,
                flight_recorder=False,
            ),
            host_functions=host_functions,
            wm=self.wm,
            trace=self._charge_cycle,
            matcher=self.sites,
        )

    def make(self, class_name: str, attrs: Optional[Mapping[str, Value]] = None, **kw: Value) -> WME:
        """Assert an initial WME (charged as load-phase match work)."""
        return self.engine.make(class_name, attrs, **kw)

    # -- records -> ticks ------------------------------------------------------

    def _load(self) -> List[float]:
        """Per site: the match work the initial WMEs cost (the load phase)."""
        self.sites.changes.clear()
        return [self.cost.match_cost(self.sites.ops(s)) for s in range(self.n_sites)]

    def _fire_ticks(self, report: CycleReport) -> List[float]:
        """Per site: one ``fire`` charge per firing of a rule it hosts."""
        ticks = [0.0] * self.n_sites
        site_of = self.sites.hosting.site_of
        log = self.engine.fired_log
        for rule, _timestamps in log[len(log) - report.fired :]:
            ticks[site_of[rule]] += self.cost.fire
        return ticks

    def run(self, max_cycles: int = 100_000) -> SimResult:
        """Run to quiescence/halt, charging time per the cost model."""
        self.makespans: List[float] = []
        self.site_totals = [0.0] * self.n_sites
        self.serial = 0.0
        self.messages = 0
        load = self._load()
        if any(load):
            self.makespans.append(max(load))
            self.site_totals = load
        self._meta_mark = self.engine.meta.stats.snapshot()
        run = self.engine.run(max_cycles)
        return SimResult(
            n_sites=self.n_sites,
            cycles=run.cycles,
            firings=run.firings,
            reason=run.reason,
            messages=self.messages,
            parallel_ticks=sum(self.makespans),
            serial_ticks=self.serial,
            makespans=self.makespans,
            site_totals=self.site_totals,
            output=list(self.engine.output),
        )

    def _charge_cycle(self, report: CycleReport) -> None:
        """The engine's trace callback: charge one finished cycle."""
        cost = self.cost
        meta = self.engine.meta.stats.snapshot()
        self.serial += cost.redaction_cost(
            meta - self._meta_mark, report.redaction.meta_firings
        )
        self._meta_mark = meta
        if not report.fired:
            return
        fire = self._fire_ticks(report)
        size = report.delta_removes + report.delta_makes
        # Merge is serial master work; charge per update merged.
        self.serial += cost.wm_broadcast * 0.5 * size
        ticks = []
        for s in range(self.n_sites):
            relevant = self.sites.relevant(s) if self.multicast else size
            self.messages += relevant
            t = cost.match_cost(self.sites.ops(s)) + fire[s] + cost.broadcast_cost(relevant)
            ticks.append(t)
            self.site_totals[s] += t
        self.makespans.append(max(ticks))
        self.serial += cost.barrier
        self.sites.changes.clear()
