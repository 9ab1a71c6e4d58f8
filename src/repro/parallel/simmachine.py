"""SimMachine: a deterministic P-site simulation of PARULEL's cycle.

Execution model (mirrors the shared-memory multiprocessor the paper used):

- every site holds the **full working memory replica** (changes are
  broadcast at end of cycle) and the match state for **its assigned rules
  only**;
- each cycle, sites match and fire *in parallel*; the cycle's parallel time
  is the **makespan** — the slowest site's (match + fire + broadcast
  application) work;
- the **meta level runs serially** (on a master) between match and fire, as
  does the final delta merge — these are the cycle's sequential fraction,
  which is what bounds speedup à la Amdahl;
- a **barrier** charge per cycle models synchronization.

Implementation: the sites share one real :class:`~repro.wm.memory.WorkingMemory`
(that *is* the replica abstraction — WM listeners deliver every change to
every site's matcher, and the cost model charges each site for the
deliveries), and each site has its own matcher over its own rules. The
functional result of a SimMachine run is therefore **bit-identical to a
1-engine ParulelEngine run** of the same program — asserted by tests — while
the timing model yields Figure 1/2's speedup curves deterministically.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.errors import CycleLimitExceeded
from repro.core.actions import ActionEvaluator, InstantiationDelta
from repro.core.delta import InterferencePolicy, merge_deltas
from repro.core.redaction import MetaLevel
from repro.lang.ast import Program, Value
from repro.match.instantiation import InstKey, Instantiation
from repro.match.interface import Matcher, create_matcher
from repro.match.compile import compile_rules
from repro.parallel.costmodel import CostModel
from repro.parallel.partition import Assignment, round_robin_assignment
from repro.wm.memory import WorkingMemory
from repro.wm.template import TemplateRegistry

__all__ = ["SimMachine", "SimResult", "SiteCycle"]


@dataclass
class SiteCycle:
    """One site's charged work within one cycle (ticks)."""

    match: float = 0.0
    fire: float = 0.0
    broadcast: float = 0.0

    @property
    def total(self) -> float:
        return self.match + self.fire + self.broadcast


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
    def total_work(self) -> float:
        """Sum of all sites' work — what one site would have done (modulo
        partitioning overheads)."""
        return sum(self.site_totals)

    @property
    def load_imbalance(self) -> float:
        """max site load / mean site load (1.0 = perfectly balanced)."""
        if not self.site_totals or not any(self.site_totals):
            return 1.0
        mean = sum(self.site_totals) / len(self.site_totals)
        return max(self.site_totals) / mean if mean else 1.0


class SimMachine:
    """Barrier-synchronized multi-site execution of a PARULEL program."""

    def __init__(
        self,
        program: Program,
        n_sites: int,
        assignment: Optional[Assignment] = None,
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
        self.assignment = assignment or round_robin_assignment(program.rules, n_sites)
        self.assignment.validate(program.rules)
        self.cost = cost_model or CostModel()
        self.interference = InterferencePolicy.of(interference)
        self.dedupe_makes = dedupe_makes
        #: PARADISER-style interest-based update delivery: a WM change is
        #: sent only to sites whose rules *read* the changed class, instead
        #: of broadcast to every replica. Functionally identical (the real
        #: shared WorkingMemory still notifies every matcher — matchers
        #: ignore classes outside their alpha index anyway); only the
        #: communication charges differ. Ablation A4 measures the gap.
        self.multicast = multicast

        self.wm = WorkingMemory(TemplateRegistry.from_program(program))
        self.evaluator = ActionEvaluator(host_functions)
        self.site_matchers: List[Matcher] = []
        for site in range(n_sites):
            rules = self.assignment.rules_of_site(site, program.rules)
            self.site_matchers.append(create_matcher(matcher, rules, self.wm))
        self.meta = MetaLevel(program.meta_rules, self.wm, self.evaluator)
        # Per-site read interests (class names) for multicast accounting.
        self._site_interests: List[frozenset] = []
        for site in range(n_sites):
            rules = self.assignment.rules_of_site(site, program.rules)
            classes = set()
            for compiled in compile_rules(rules):
                for ce in compiled.ces:
                    classes.add(ce.class_name)
            self._site_interests.append(frozenset(classes))
        self.fired: Set[InstKey] = set()
        self.output: List[str] = []
        self._site_op_marks = [Counter() for _ in range(n_sites)]
        self._meta_op_mark: Counter = Counter()
        self._halted = False

    # -- workload ---------------------------------------------------------------

    def make(self, class_name: str, attrs: Optional[Mapping[str, Value]] = None, **kw: Value):
        """Assert an initial WME (charged as load-phase match work)."""
        return self.wm.make(class_name, attrs, **kw)

    # -- accounting ---------------------------------------------------------------

    def _site_ops_delta(self, site: int) -> Counter:
        """Match-op counters accrued at a site since last checkpoint."""
        now = self.site_matchers[site].stats.snapshot()
        delta = now - self._site_op_marks[site]
        self._site_op_marks[site] = now
        return delta

    def _meta_ops_delta(self) -> Counter:
        now = self.meta.stats.snapshot()
        delta = now - self._meta_op_mark
        self._meta_op_mark = now
        return delta

    # -- execution -----------------------------------------------------------------

    def run(self, max_cycles: int = 100_000) -> SimResult:
        """Run to quiescence/halt, charging time per the cost model."""
        makespans: List[float] = []
        site_totals = [0.0] * self.n_sites
        serial = 0.0
        cycles = 0
        firings = 0
        messages = 0
        reason = "quiescence"

        # Load phase: initial WMEs were matched at construction/make time.
        # Charge each site its accrued ops as a cycle-0 parallel phase.
        load = [
            self.cost.match_cost(self._site_ops_delta(s)) for s in range(self.n_sites)
        ]
        self._meta_ops_delta()  # baseline the meta counters too
        if any(load):
            makespans.append(max(load))
            for s, t in enumerate(load):
                site_totals[s] += t

        while True:
            if cycles >= max_cycles:
                raise CycleLimitExceeded(
                    f"simulated run exceeded {max_cycles} cycles"
                )
            # ---- parallel match: collect per-site candidates --------------
            site_candidates: List[List[Instantiation]] = []
            for matcher in self.site_matchers:
                cands = [
                    i for i in matcher.instantiations() if i.key not in self.fired
                ]
                site_candidates.append(cands)
            candidates: List[Instantiation] = []
            inst_site: Dict[InstKey, int] = {}
            for site, cands in enumerate(site_candidates):
                for inst in cands:
                    candidates.append(inst)
                    inst_site[inst.key] = site
            if not candidates:
                reason = "quiescence"
                break
            cycles += 1

            # ---- serial redaction (master) --------------------------------
            survivors, red_report = self.meta.redact(candidates)
            self.output.extend(self.meta.writes)
            serial += self.cost.redaction_cost(
                self._meta_ops_delta(), red_report.meta_firings
            )

            if not survivors:
                reason = "redaction-quiescence"
                break

            # ---- parallel fire ---------------------------------------------
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
            # Merge is serial master work; charge per update merged.
            serial += self.cost.wm_broadcast * 0.5 * merged.size

            # ---- apply + broadcast ------------------------------------------
            for wme in merged.removes:
                self.wm.remove(wme)
            for class_name, attrs in merged.makes:
                self.wm.make(class_name, attrs)
            for delta in deltas:
                self.evaluator.run_calls(delta)
            self.output.extend(merged.writes)

            # ---- per-site cycle time -----------------------------------------
            if self.multicast:
                changed = [w.class_name for w in merged.removes] + [
                    cls for cls, _attrs in merged.makes
                ]
            cycle_site_ticks = []
            for s in range(self.n_sites):
                if self.multicast:
                    relevant = sum(
                        1 for cls in changed if cls in self._site_interests[s]
                    )
                else:
                    relevant = merged.size
                messages += relevant
                bcast = self.cost.broadcast_cost(relevant)
                match_ticks = self.cost.match_cost(self._site_ops_delta(s))
                t = match_ticks + fire_ticks[s] + bcast
                cycle_site_ticks.append(t)
                site_totals[s] += t
            makespans.append(max(cycle_site_ticks))
            serial += self.cost.barrier

            if merged.halt or self.meta.halt_requested:
                reason = "halt"
                break

        return SimResult(
            n_sites=self.n_sites,
            cycles=cycles,
            firings=firings,
            reason=reason,
            messages=messages,
            parallel_ticks=sum(makespans),
            serial_ticks=serial,
            makespans=makespans,
            site_totals=site_totals,
            output=list(self.output),
        )
