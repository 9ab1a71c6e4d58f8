"""The PARULEL engine: set-oriented parallel rule firing.

Each cycle of :meth:`ParulelEngine.step`:

1. **Collect** — take the incremental matcher's conflict set, drop
   refracted instantiations (an instantiation — rule + exact WME
   timestamps — fires at most once) and sort the rest into firing order;
2. **Redact** — run the meta-program over the reified candidates
   (:class:`~repro.core.redaction.MetaLevel`); the survivors form the
   *firing set*;
3. **Evaluate** — run every survivor's RHS against the pre-firing snapshot
   (:class:`~repro.core.actions.ActionEvaluator`); nothing is applied yet,
   so firings cannot observe each other — the defining property of
   PARULEL's parallel semantics;
4. **Apply** — hand the firing set to the matcher
   (:meth:`~repro.match.interface.Matcher.consume`: what fired leaves the
   conflict set), merge the per-firing deltas under the configured
   interference policy (:func:`~repro.core.delta.merge_deltas`) and commit
   the result atomically; the incremental matchers update as the WMEs flow.

The run ends at *quiescence* (no unrefracted instantiations), at
*redaction quiescence* (every candidate redacted — since the engine is
deterministic and working memory did not change, the next cycle would repeat
forever), on ``(halt)``, or at the cycle limit.

Redacted instantiations are **not** refracted: a meta-rule that defers a
firing (e.g. "the larger region wins this cycle") lets it fire in a later
cycle if it is still matched — deferral, not deletion, matching the
published description of PARULEL's meta level.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro._record import FrozenRecord, Record
from repro.errors import CycleLimitExceeded, ExecutionError
from repro.core.actions import ActionEvaluator, FiringDelta, HostFunction
from repro.core.delta import CycleDelta, InterferencePolicy, merge_deltas
from repro.core.redaction import MetaLevel, RedactionReport
from repro.lang.analysis import analyze_program
from repro.lang.ast import Program, Value
from repro.match.instantiation import InstKey, Instantiation
from repro.match.interface import Matcher, create_matcher
from repro.obs.metrics import NULL_METRICS
from repro.obs.profile import (
    MATCH_OPS,
    RULE_CANDIDATES,
    RULE_EVAL_SECONDS,
    RULE_FIRINGS,
    RULE_REDACTIONS,
)
from repro.obs.trace import NULL_TRACER, PhaseSpan
from repro.wm.memory import WorkingMemory
from repro.wm.template import TemplateRegistry
from repro.wm.wme import WME

if TYPE_CHECKING:  # named in annotations only: a plain run does not load it
    from repro.core.provenance import ProvenanceTracker

__all__ = ["ParulelEngine", "EngineConfig", "CycleReport", "RunResult"]

#: Checkpoint format version (bumped on incompatible layout changes).
CHECKPOINT_VERSION = 1


class EngineConfig(FrozenRecord):
    """Knobs of the PARULEL engine.

    ``matcher`` names the object-level match engine: ``treat`` (the
    default — set-oriented TREAT, what every measured workload runs
    fastest or tied on), ``naive`` or ``process``. Results do not depend
    on the choice. The meta level has no retained matcher to
    choose. ``interference`` picks the
    :class:`~repro.core.delta.InterferencePolicy`. ``dedupe_makes``
    collapses identical makes within one cycle (set-insertion reading).
    ``max_cycles`` and ``max_meta_cycles`` are counts (>= 0).
    """

    __slots__ = (
        "matcher", "interference", "dedupe_makes",
        "max_cycles", "max_meta_cycles", "track_provenance",
        "wm_backend", "flight_recorder", "blackbox_path",
    )

    def __init__(
        self,
        matcher: str = "treat",
        interference: InterferencePolicy = InterferencePolicy.ERROR,
        dedupe_makes: bool = True,
        max_cycles: int = 100_000,
        max_meta_cycles: int = 1000,
        #: Record a :class:`~repro.core.provenance.Derivation` for every WME,
        #: enabling ``engine.explain(wme)``. Off by default (memory cost).
        track_provenance: bool = False,
        #: Working-memory store: ``"dict"`` (the default in-process store) or
        #: ``"columnar"`` (:class:`~repro.wm.columnar.ColumnarWorkingMemory`,
        #: shared-memory columns the process backend attaches instead of
        #: receiving pickled deltas). Semantics are identical either way.
        wm_backend: str = "dict",
        #: Always-on black-box flight recorder (:mod:`repro.obs.flightrec`):
        #: bounded shared-memory event rings written by the engine and every
        #: match worker, dumped to a ``*.blackbox`` post-mortem file on any
        #: abnormal exit. ``False`` is the ``--no-flight-recorder`` escape
        #: hatch; the measured overhead budget on tc is 5% (``check.sh --obs``).
        flight_recorder: bool = True,
        #: Where crash dumps land; ``None`` means a pid-keyed file under the
        #: temp dir (:func:`repro.obs.flightrec.default_blackbox_path`).
        blackbox_path: Optional[str] = None,
    ) -> None:
        self._set(
            matcher, InterferencePolicy.of(interference),
            dedupe_makes, max_cycles, max_meta_cycles, track_provenance,
            wm_backend, flight_recorder, blackbox_path,
        )
        for name, limit in (
            ("max_cycles", max_cycles), ("max_meta_cycles", max_meta_cycles)
        ):
            if limit < 0:
                raise ValueError(f"{name} must be >= 0, got {limit}")
        if wm_backend not in ("dict", "columnar"):
            raise ValueError(
                f"unknown wm_backend {wm_backend!r} "
                f"(expected 'dict' or 'columnar')"
            )


def _build_wm(config: "EngineConfig", program: Program) -> WorkingMemory:
    """The working-memory store the config asks for. Imported lazily so the
    default dict path never touches shared memory."""
    templates = TemplateRegistry.from_program(program)
    if config.wm_backend == "columnar":
        from repro.wm.columnar import ColumnarWorkingMemory

        return ColumnarWorkingMemory(templates)
    return WorkingMemory(templates)


def _rule_runs(insts: Sequence[Instantiation]) -> List[Sequence[Instantiation]]:
    """``insts`` cut into maximal runs of one rule, in order."""
    runs: List[Sequence[Instantiation]] = []
    start = 0
    for i in range(1, len(insts)):
        if insts[i].rule is not insts[start].rule:
            runs.append(insts[start:i])
            start = i
    if insts:
        runs.append(insts[start:])
    return runs


def _render_delta_log(
    entries: Sequence[Tuple[Tuple[int, ...], Tuple[WME, ...]]]
) -> List[List[Any]]:
    """Delta-log entries as checkpoint JSON: ``[removed timestamps,
    [[class, attrs, timestamp], ...]]`` per cycle."""
    return [
        [list(removed), [[w.class_name, w.attributes, w.timestamp] for w in made]]
        for removed, made in entries
    ]


class CycleReport(Record):
    """Everything one cycle did — the unit of engine instrumentation."""

    __slots__ = (
        "cycle", "conflict_set_size", "candidates", "redaction", "fired",
        "delta_removes", "delta_makes", "conflicts_resolved", "makes_deduped",
        "writes", "halted",
    )

    def __init__(
        self,
        cycle: int,
        conflict_set_size: int,
        candidates: int,
        redaction: RedactionReport,
        fired: int,
        delta_removes: int,
        delta_makes: int,
        conflicts_resolved: int,
        makes_deduped: int,
        writes: Optional[List[str]] = None,
        halted: bool = False,
    ) -> None:
        self.cycle = cycle
        self.conflict_set_size = conflict_set_size
        self.candidates = candidates
        self.redaction = redaction
        self.fired = fired
        self.delta_removes = delta_removes
        self.delta_makes = delta_makes
        self.conflicts_resolved = conflicts_resolved
        self.makes_deduped = makes_deduped
        #: Every ``(write ...)`` line the cycle emitted — meta-level writes
        #: first (redaction phase), then the merged object-level writes.
        self.writes = [] if writes is None else writes
        self.halted = halted


class RunResult(Record):
    """Summary of one :meth:`ParulelEngine.run` call.

    All fields — including ``output`` — cover only this call: repeated
    ``run()`` calls on one engine each report their own slice, while the
    engine's ``output``/``reports`` attributes stay cumulative.
    """

    __slots__ = (
        "cycles", "firings", "reason", "output", "reports", "wall_time",
        "phase_times",
    )

    def __init__(
        self,
        cycles: int,
        firings: int,
        reason: str,  # 'quiescence' | 'redaction-quiescence' | 'halt' | 'cycle-limit'
        output: List[str],
        reports: List[CycleReport],
        wall_time: float,
        phase_times: Counter,
    ) -> None:
        self.cycles = cycles
        self.firings = firings
        self.reason = reason
        self.output = output
        self.reports = reports
        self.wall_time = wall_time
        self.phase_times = phase_times

    @property
    def halted(self) -> bool:
        return self.reason == "halt"

    @property
    def firing_set_sizes(self) -> List[int]:
        return [r.fired for r in self.reports]

    @property
    def mean_firing_set(self) -> float:
        sizes = [s for s in self.firing_set_sizes if s]
        return sum(sizes) / len(sizes) if sizes else 0.0


class ParulelEngine:
    """The set-oriented, meta-rule-redacting production-system engine."""

    def __init__(
        self,
        program: Program,
        config: Optional[EngineConfig] = None,
        host_functions: Optional[Mapping[str, HostFunction]] = None,
        wm: Optional[WorkingMemory] = None,
        trace: Optional[Callable[[CycleReport], None]] = None,
        tracer=None,
        metrics=None,
        matcher: Optional[Matcher] = None,
    ) -> None:
        analyze_program(program)
        self.program = program
        self.config = config or EngineConfig()
        #: Observability hooks (:mod:`repro.obs`). Both default to the
        #: shared no-op singletons; hot paths guard on ``.enabled`` so a
        #: disabled engine does no observability work at all.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.wm = wm if wm is not None else _build_wm(self.config, program)
        self.evaluator = ActionEvaluator(host_functions)
        matcher_options: Dict[str, Any] = {}
        if self.tracer.enabled or self.metrics.enabled:
            matcher_options["tracer"] = self.tracer
            matcher_options["metrics"] = self.metrics
        #: The always-on black-box flight recorder (None only with
        #: ``flight_recorder=False``). Imported lazily: it is the one
        #: default-on feature that can touch shared memory.
        self.flightrec = None
        self._fr = None  # the flightrec module (event-kind constants)
        if self.config.flight_recorder:
            from repro.obs import flightrec as _fr

            self._fr = _fr
            self.flightrec = _fr.FlightRecorder([r.name for r in program.rules])
            matcher_options["flightrec"] = self.flightrec
        #: A prebuilt ``matcher`` (over ``wm``) replaces the one the config
        #: names — how the simulators put one matcher per site under the
        #: engine's cycle. The config must then name no matcher of its own.
        if matcher is not None and self.config.matcher != "treat":
            raise ValueError(
                "a prebuilt matcher= replaces the configured one: leave "
                "EngineConfig.matcher at 'treat'"
            )
        self.matcher: Matcher = matcher if matcher is not None else create_matcher(
            self.config.matcher,
            program.rules,
            self.wm,
            **matcher_options,
        )
        self.meta = MetaLevel(
            program.meta_rules,
            self.wm,
            self.evaluator,
            max_meta_cycles=self.config.max_meta_cycles,
        )
        self.trace = trace
        self.provenance: Optional[ProvenanceTracker] = None
        if self.config.track_provenance:
            from repro.core.provenance import ProvenanceTracker

            self.provenance = ProvenanceTracker()
        #: Last-seen matcher op totals, for per-cycle MATCH_OPS deltas.
        self._last_match_ops: Counter = Counter()
        #: Rule name -> position in the program: the major key of the
        #: firing order (:meth:`_collect`).
        self._rule_pos: Dict[str, int] = {
            r.name: pos for pos, r in enumerate(program.rules)
        }
        self.fired: Set[InstKey] = set()
        #: Append-only mirror of :attr:`fired` in firing order, so
        #: incremental checkpoints (:meth:`checkpoint_delta`) can slice
        #: "keys fired since the cursor" without diffing sets, and a trace
        #: callback can read a cycle's firings as the last ``report.fired``.
        self.fired_log: List[InstKey] = []
        self.output: List[str] = []
        self.reports: List[CycleReport] = []
        #: Wall-clock seconds per cycle phase (collect / redact / evaluate
        #: / apply), added to by each :class:`PhaseSpan` as it closes.
        self.phase_times: Counter = Counter()
        #: Per-cycle applied deltas ``(removed timestamps, made WMEs)`` —
        #: the audit trail checkpoints carry, rendered as
        #: ``[class, attrs, timestamp]`` records only when one is taken.
        self.delta_log: List[Tuple[Tuple[int, ...], Tuple[WME, ...]]] = []
        self.halted = False
        self._cycle = 0
        self._redaction_quiescent = False

    # -- working-memory convenience ------------------------------------------

    def make(self, class_name: str, attrs: Optional[Mapping[str, Value]] = None, **kw: Value) -> WME:
        """Assert an initial/extra WME (outside the firing cycle)."""
        wme = self.wm.make(class_name, attrs, **kw)
        if self.provenance is not None:
            self.provenance.record_initial(wme)
        return wme

    def remove(self, wme: WME) -> None:
        self.wm.remove(wme)

    def register_function(self, name: str, fn: HostFunction) -> None:
        """Expose a host callback to ``(call name ...)`` actions."""
        self.evaluator.register(name, fn)

    # -- the cycle ----------------------------------------------------------------

    def step(self) -> Optional[CycleReport]:
        """Run one recognize-redact-act cycle.

        Returns ``None`` when the system is quiescent (nothing unrefracted
        to fire) — including redaction quiescence, where candidates exist
        but the meta level vetoes all of them and working memory cannot
        change.

        Any exception escaping the cycle (interference, an action error,
        checkpoint corruption in a trace callback, ...) first
        triggers a black-box dump, then propagates unchanged.
        """
        try:
            return self._step()
        except Exception as exc:
            self._dump_blackbox(f"{type(exc).__name__}: {exc}")
            raise

    def _step(self) -> Optional[CycleReport]:
        if self.halted or self._redaction_quiescent:
            return None
        tracer, metrics = self.tracer, self.metrics
        flightrec = self.flightrec
        cycle_no = self._cycle + 1

        with self._phase("match", "collect", cycle=cycle_no):
            candidates, dropped = self._collect()
        if flightrec is not None:
            flightrec.record(
                self._fr.EV_CHURN, cycle_no, a=dropped, b=len(candidates)
            )
        if not candidates:
            return None

        with self._phase("redact", "redact", cycle=cycle_no, candidates=len(candidates)):
            survivors, red_report = self.meta.redact(candidates)
        if flightrec is not None:
            flightrec.record(
                self._fr.EV_REDACT,
                cycle_no,
                a=len(candidates),
                b=red_report.redacted,
            )
        meta_writes = list(self.meta.writes)
        self.output.extend(meta_writes)

        self._cycle += 1
        if metrics.enabled:
            self._count_cycle(candidates, survivors, red_report)
        if not survivors:
            # Deterministic engine + unchanged WM ⇒ the next cycle would be
            # identical. Record the cycle and stop.
            self._redaction_quiescent = True
            return self._emit(
                CycleReport(
                    cycle=self._cycle,
                    conflict_set_size=len(candidates),
                    candidates=len(candidates),
                    redaction=red_report,
                    fired=0,
                    delta_removes=0,
                    delta_makes=0,
                    conflicts_resolved=0,
                    makes_deduped=0,
                    writes=meta_writes,
                    halted=self.meta.halt_requested,
                )
            )

        # Evaluate every survivor against the pre-firing snapshot, one
        # batch per rule: _collect's firing order keeps each rule's
        # survivors contiguous, and redaction keeps that order.
        deltas: List[FiringDelta] = []
        with self._phase("act", "evaluate", cycle=cycle_no, firing_set=len(survivors)):
            timed = metrics.enabled or flightrec is not None
            evaluate = self.evaluator.evaluate_batch
            for batch in _rule_runs(survivors):
                keys = [inst.key for inst in batch]
                self.fired.update(keys)
                self.fired_log.extend(keys)
                if not timed:
                    deltas.append(evaluate(batch))
                    continue
                t0 = time.perf_counter_ns()
                deltas.append(evaluate(batch))
                dt_ns = time.perf_counter_ns() - t0
                rule_name = batch[0].rule.name
                if metrics.enabled:
                    metrics.observe(RULE_EVAL_SECONDS, dt_ns / 1e9, rule=rule_name)
                if flightrec is not None:
                    flightrec.record(
                        self._fr.EV_FIRE,
                        cycle_no,
                        code=flightrec.rule_id(rule_name),
                        a=dt_ns,
                        b=len(batch),
                    )

        with self._phase("merge", "apply", cycle=cycle_no, deltas=len(deltas)):
            # What fired leaves the conflict set before its changes land, so
            # the matcher spends no maintenance on entries that cannot fire.
            self.matcher.consume([inst.key for inst in survivors])
            merged = merge_deltas(
                deltas,
                policy=self.config.interference,
                dedupe_makes=self.config.dedupe_makes,
                origins=self.provenance is not None,
            )
            self._apply(merged, deltas)

        if metrics.enabled:
            metrics.inc("parulel_firings_total", len(survivors))
            metrics.inc("parulel_delta_removes_total", len(merged.removes))
            metrics.inc("parulel_delta_makes_total", len(merged.makes))
            metrics.inc("parulel_conflicts_resolved_total", merged.conflicts_resolved)
            metrics.set_gauge("parulel_wm_size", len(self.wm))

        halted = merged.halt or self.meta.halt_requested
        self.output.extend(merged.writes)
        return self._emit(
            CycleReport(
                cycle=self._cycle,
                conflict_set_size=len(candidates),
                candidates=len(candidates),
                redaction=red_report,
                fired=len(survivors),
                delta_removes=len(merged.removes),
                delta_makes=len(merged.makes),
                conflicts_resolved=merged.conflicts_resolved,
                makes_deduped=merged.makes_deduped,
                writes=meta_writes + list(merged.writes),
                halted=halted,
            )
        )

    def _phase(self, span_name: str, phase_key: str, **args: Any) -> PhaseSpan:
        """One cycle phase: a named span (paper vocabulary — match /
        redact / act / merge) whose single measurement also feeds
        ``phase_times`` (historical keys — collect / redact / evaluate /
        apply), the phase-seconds histogram, and — when the flight
        recorder is on — an ``EV_PHASE`` ring record."""
        return PhaseSpan(
            self.phase_times,
            self.tracer,
            self.metrics,
            span_name,
            phase_key,
            flightrec=self.flightrec,
            flight_cycle=args.get("cycle", 0),
            flight_code=(
                self._fr.PHASE_CODES.get(span_name, 0)
                if self.flightrec is not None
                else 0
            ),
            **args,
        )

    def _emit(self, report: CycleReport) -> CycleReport:
        """The ONLY path a :class:`CycleReport` leaves the engine by:
        records it, applies its halt flag, and invokes the trace callback
        exactly once — whatever branch of the cycle produced it."""
        flightrec = self.flightrec
        if flightrec is not None:
            flightrec.record(
                self._fr.EV_CYCLE,
                report.cycle,
                a=report.fired,
                b=report.conflict_set_size,
            )
            if report.halted:
                flightrec.record(self._fr.EV_HALT, report.cycle)
        self.reports.append(report)
        if report.halted:
            self.halted = True
        if self.trace is not None:
            self.trace(report)
        return report

    def _count_cycle(
        self,
        candidates: Sequence[Instantiation],
        survivors: Sequence[Instantiation],
        red_report: RedactionReport,
    ) -> None:
        """Per-cycle metric counts (called only when metrics are enabled).

        Per-rule redaction counts come from the candidate/survivor
        difference — redaction is the only reducer between the two sets.
        """
        metrics = self.metrics
        metrics.inc("parulel_cycles_total")
        metrics.inc("parulel_candidates_total", len(candidates))
        metrics.inc("parulel_redacted_total", red_report.redacted)
        metrics.inc("parulel_meta_cycles_total", red_report.meta_cycles)
        metrics.inc("parulel_meta_firings_total", red_report.meta_firings)
        metrics.inc("parulel_meta_rule_tries_total", red_report.rule_tries)
        cand_by_rule = Counter(i.rule.name for i in candidates)
        surv_by_rule = Counter(i.rule.name for i in survivors)
        for rule, n in cand_by_rule.items():
            metrics.inc(RULE_CANDIDATES, n, rule=rule)
            fired = surv_by_rule.get(rule, 0)
            if fired:
                metrics.inc(RULE_FIRINGS, fired, rule=rule)
            if n - fired:
                metrics.inc(RULE_REDACTIONS, n - fired, rule=rule)
        stats = getattr(self.matcher, "stats", None)
        if stats is not None:
            snap = stats.snapshot()
            for op, total in snap.items():
                delta = total - self._last_match_ops.get(op, 0)
                if delta:
                    metrics.inc(MATCH_OPS, delta, op=op)
            self._last_match_ops = snap

    def _apply(self, merged: CycleDelta, deltas: Sequence[FiringDelta]) -> None:
        """Commit a cycle delta: retractions as one batch, then assertions
        as one batch, then host calls (in firing order). The committed
        delta — retracted timestamps plus asserted WMEs — is appended to
        :attr:`delta_log`."""
        wm, provenance, cycle = self.wm, self.provenance, self._cycle
        removed_ts = tuple([wme.timestamp for wme in merged.removes])
        if merged.removes:
            wm.remove_batch(merged.removes)
        made = wm.make_batch(merged.makes) if merged.makes else []
        if provenance is not None:
            for wme in merged.removes:
                provenance.record_retract(wme, cycle)
            for new_wme, (inst, kind, replaced) in zip(made, merged.make_origins):
                parents = tuple(w for w in inst.wmes if w is not None)
                if kind == "modify":
                    provenance.record_modify(
                        new_wme, cycle, inst.rule.name, inst.key,
                        parents, replaced,
                    )
                else:
                    provenance.record_make(
                        new_wme, cycle, inst.rule.name, inst.key, parents
                    )
        self.delta_log.append((removed_ts, tuple(made)))
        for delta in deltas:
            if delta.calls:
                self.evaluator.run_calls(delta)

    def run(self, max_cycles: Optional[int] = None) -> RunResult:
        """Run to quiescence / halt; raise
        :class:`~repro.errors.CycleLimitExceeded` past the cycle budget."""
        limit = max_cycles if max_cycles is not None else self.config.max_cycles
        start_cycle = self._cycle
        start_report = len(self.reports)
        start_output = len(self.output)
        wall0 = time.perf_counter()
        reason = "quiescence"
        with self.tracer.span("run", lane="engine", start_cycle=start_cycle):
            try:
                reason = self._run_loop(
                    limit, start_cycle, start_report, start_output, wall0
                )
            except CycleLimitExceeded as exc:
                # step() already dumps for exceptions raised inside a
                # cycle; the limit is raised by the loop itself.
                self._dump_blackbox(f"CycleLimitExceeded: {exc}")
                raise
        wall = time.perf_counter() - wall0
        run_reports = self.reports[start_report:]
        return RunResult(
            cycles=self._cycle - start_cycle,
            firings=sum(r.fired for r in run_reports),
            reason=reason,
            output=self.output[start_output:],
            reports=run_reports,
            wall_time=wall,
            phase_times=Counter(self.phase_times),
        )

    def _run_loop(
        self,
        limit: int,
        start_cycle: int,
        start_report: int,
        start_output: int,
        wall0: float,
    ) -> str:
        """The run loop body (split out so the whole run is one span even
        when it ends by raising :class:`CycleLimitExceeded`)."""
        while True:
            if self._cycle - start_cycle >= limit:
                run_reports = self.reports[start_report:]
                raise CycleLimitExceeded(
                    f"exceeded {limit} cycles; the rule program likely does "
                    f"not terminate",
                    cycles_completed=self._cycle - start_cycle,
                    firings=sum(r.fired for r in run_reports),
                    last_report=run_reports[-1] if run_reports else None,
                    partial=RunResult(
                        cycles=self._cycle - start_cycle,
                        firings=sum(r.fired for r in run_reports),
                        reason="cycle-limit",
                        output=self.output[start_output:],
                        reports=run_reports,
                        wall_time=time.perf_counter() - wall0,
                        phase_times=Counter(self.phase_times),
                    ),
                )
            report = self.step()
            if report is None:
                return (
                    "redaction-quiescence" if self._redaction_quiescent else "quiescence"
                )
            if report.halted:
                return "halt"
            if report.fired == 0:
                return "redaction-quiescence"

    # -- black box -------------------------------------------------------------

    def dump_blackbox(self, path: Optional[str] = None, reason: str = "manual") -> Optional[str]:
        """Write a ``*.blackbox`` post-mortem dump of every flight ring
        (the engine's plus all worker rings) and return its path, or
        ``None`` when the recorder is off. Called automatically on
        abnormal exits; callable any time for a live snapshot."""
        if self.flightrec is None:
            return None
        path = path or self.config.blackbox_path or self._fr.default_blackbox_path()
        cfg = {
            name: repr(getattr(self.config, name)) for name in EngineConfig._fields
        }
        self.flightrec.dump(
            path, reason=reason, info={"config": cfg, "cycle": self._cycle}
        )
        return path

    def _dump_blackbox(self, reason: str) -> Optional[str]:
        """Best-effort crash dump: never masks the exception in flight."""
        try:
            return self.dump_blackbox(reason=reason)
        except Exception:  # noqa: BLE001 - post-mortem must not re-crash
            return None

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Release backend resources (idempotent): worker processes held by
        a process matcher, shared-memory segments held by a columnar store.
        Engines over the default dict store and in-process matchers have
        nothing to release, so most callers never need this — but the CLI
        and benchmarks call it so ``--wm-backend columnar`` runs cannot
        leak ``/dev/shm`` segments on the happy path."""
        closer = getattr(self.matcher, "close", None)
        if closer is not None:
            closer()
        wm_close = getattr(self.wm, "close", None)
        if wm_close is not None:
            wm_close()
        if self.flightrec is not None:
            self.flightrec.close()

    def __enter__(self) -> "ParulelEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- checkpoint / resume ---------------------------------------------------

    def checkpoint(self) -> Dict[str, Any]:
        """Snapshot the resumable engine state as a JSON-safe dict.

        Captures working memory (records with exact timestamps plus the
        allocation counter), the refraction set, the cycle counter, emitted
        output, halt flags, and the delta log. Values are symbols/numbers,
        so the dict serializes as JSON directly.

        Matcher internals are *not* saved — :meth:`restore` rebuilds the
        match network by replaying the restored WMEs, which yields the same
        conflict set because matchers are deterministic in timestamp order.

        Nothing is written here: :mod:`repro.resilience.checkpoint` owns
        the disk format (a rotating :class:`CheckpointStore`, or one framed
        envelope via ``write_envelope``).
        """
        records, next_ts = self.wm.dump_records()
        state: Dict[str, Any] = {
            "version": CHECKPOINT_VERSION,
            "cycle": self._cycle,
            "halted": self.halted,
            "redaction_quiescent": self._redaction_quiescent,
            "wm": {
                "records": [list(rec) for rec in records],
                "next_timestamp": next_ts,
            },
            "fired": [
                [rule, list(timestamps)] for rule, timestamps in sorted(self.fired)
            ],
            "output": list(self.output),
            "delta_log": _render_delta_log(self.delta_log),
        }
        if self.flightrec is not None:
            self.flightrec.record(self._fr.EV_CHECKPOINT, self._cycle, code=0)
        return state

    def checkpoint_cursor(self) -> Tuple[int, int, int, int]:
        """Opaque position marker for :meth:`checkpoint_delta`: the cycle
        plus the lengths of the append-only logs (delta log, output,
        firing log) at this moment."""
        return (
            self._cycle,
            len(self.delta_log),
            len(self.output),
            len(self.fired_log),
        )

    def checkpoint_delta(
        self, cursor: Tuple[int, int, int, int]
    ) -> Tuple[Dict[str, Any], Tuple[int, int, int, int]]:
        """Incremental checkpoint: everything appended since ``cursor``.

        Returns ``(payload, new_cursor)``. The payload is a JSON-safe dict
        that :func:`repro.resilience.checkpoint.apply_delta_state` replays
        onto the full-checkpoint state taken at ``cursor`` — orders of
        magnitude smaller than a full snapshot when few WMEs change per
        cycle, which is what makes frequent checkpointing affordable.
        """
        base_cycle, d0, o0, f0 = cursor
        payload: Dict[str, Any] = {
            "version": CHECKPOINT_VERSION,
            "kind": "delta",
            "base_cycle": base_cycle,
            "cycle": self._cycle,
            "halted": self.halted,
            "redaction_quiescent": self._redaction_quiescent,
            "next_timestamp": self.wm.latest_timestamp + 1,
            "fired": [
                [rule, list(timestamps)]
                for rule, timestamps in self.fired_log[f0:]
            ],
            "output": list(self.output[o0:]),
            "delta_log": _render_delta_log(self.delta_log[d0:]),
        }
        if self.flightrec is not None:
            self.flightrec.record(self._fr.EV_CHECKPOINT, self._cycle, code=1)
        return payload, self.checkpoint_cursor()

    @classmethod
    def restore(
        cls,
        program: Program,
        state: Any,
        config: Optional[EngineConfig] = None,
        host_functions: Optional[Mapping[str, HostFunction]] = None,
        trace: Optional[Callable[[CycleReport], None]] = None,
        tracer=None,
        metrics=None,
    ) -> "ParulelEngine":
        """Rebuild an engine from a :meth:`checkpoint` dict or file path.

        The program must be the one the checkpoint was taken from (rules
        are not serialized — only state). The restored engine continues
        byte-identically: same timestamps, same refraction set, same cycle
        numbering.

        ``state`` may be a checkpoint dict, the path of a framed
        checkpoint file, or a :class:`~repro.resilience.checkpoint`
        store directory — directories fall back to the newest checkpoint
        that verifies. Truncated or malformed inputs raise a typed
        :class:`~repro.errors.ExecutionError` (or its subclass
        ``CheckpointCorruptError``) naming the file, never a raw
        ``json.JSONDecodeError``/``KeyError``.
        """
        src: Optional[str] = None
        if isinstance(state, str):
            from repro.resilience.checkpoint import load_checkpoint_file

            src = state
            state = load_checkpoint_file(state).state
        where = f" file {src!r}" if src is not None else ""
        if not isinstance(state, dict):
            raise ExecutionError(
                f"malformed checkpoint{where}: expected an object, "
                f"got {type(state).__name__}"
            )
        version = state.get("version")
        if version != CHECKPOINT_VERSION:
            raise ExecutionError(
                f"checkpoint version {version!r} is not supported "
                f"(expected {CHECKPOINT_VERSION})"
            )
        try:
            records = [tuple(rec) for rec in state["wm"]["records"]]
            next_ts = int(state["wm"]["next_timestamp"])
            cycle = int(state["cycle"])
            halted = bool(state["halted"])
            quiescent = bool(state["redaction_quiescent"])
            fired = {
                (rule, tuple(timestamps)) for rule, timestamps in state["fired"]
            }
            output = list(state["output"])
            delta_log = [
                (
                    tuple(removed),
                    tuple(WME(cn, attrs, ts) for cn, attrs, ts in made),
                )
                for removed, made in state["delta_log"]
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise ExecutionError(
                f"malformed checkpoint{where}: {exc!r}"
            ) from exc
        wm = _build_wm(config or EngineConfig(), program)
        wm.load_records(records, next_ts)
        engine = cls(
            program,
            config=config,
            host_functions=host_functions,
            wm=wm,
            trace=trace,
            tracer=tracer,
            metrics=metrics,
        )
        engine._cycle = cycle
        engine.halted = halted
        engine._redaction_quiescent = quiescent
        engine.fired = fired
        # Firing order within past cycles is not serialized; a stable
        # sorted order keeps delta checkpoints deterministic post-restore.
        engine.fired_log = sorted(fired)
        engine.output = output
        engine.delta_log = delta_log
        return engine

    # -- introspection ---------------------------------------------------------

    @property
    def cycle(self) -> int:
        return self._cycle

    def _collect(self) -> Tuple[List[Instantiation], int]:
        """The matcher's conflict set less what already fired, in firing
        order — rule position in the program, then per-CE timestamps; the
        order belongs to the language (LANGUAGE.md §6), not to how a
        matcher happened to discover them — and how many fired entries
        were dropped. Fired instantiations are consumed as they fire, so
        one shows up here only when a matcher re-discovered it (an unblock
        re-enumeration, a recompute, a pool worker's reset, the first
        collect after :meth:`restore`); it is consumed again."""
        fired, rule_pos = self.fired, self._rule_pos
        insts = self.matcher.instantiations()
        out = [i for i in insts if i.key not in fired]
        dropped = len(insts) - len(out)
        if dropped:
            self.matcher.consume([i.key for i in insts if i.key in fired])
        out.sort(key=lambda i: (rule_pos[i.key[0]], i.key[1]))
        return out, dropped

    def conflict_set(self) -> List[Instantiation]:
        """Unrefracted instantiations currently eligible, in firing order."""
        return self._collect()[0]

    def explain(self, wme: WME, max_depth: int = 10) -> str:
        """Derivation tree for ``wme`` (requires
        ``EngineConfig(track_provenance=True)``)."""
        if self.provenance is None:
            raise ExecutionError(
                "provenance tracking is off; construct the engine with "
                "EngineConfig(track_provenance=True)"
            )
        return self.provenance.explain(wme, max_depth=max_depth)
