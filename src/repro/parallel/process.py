"""Process-parallel match fan-out: real data parallelism past the GIL.

Pure-Python match work fanned out to threads does not scale: one GIL
serializes it (Table 4 measures that ceiling). This module is the escape
hatch: :class:`ProcessMatchPool` keeps one persistent
``multiprocessing`` worker per site and computes the conflict set with
genuinely concurrent interpreters (one GIL each).

What keeps it fast and correct:

- **Every site carries every rule; the data is what is split.** This is
  the paper's copy-and-constrain at the alpha layer, each copy holding
  the hash class of an attribute: site ``s`` of ``k`` compiles each rule
  with every CE that shares its split variable also requiring that the
  value there have residue ``s``
  (:func:`~repro.match.compile.compile_rule`, ``site=(k, s)``;
  :func:`~repro.match.compile.split_keys` picks the variable, negated CEs
  included; a rule with no shared variable is split on one positive CE's
  timestamp). The sites' shares of a rule are disjoint and cover it, so a
  program with one hot rule — or one rule — still spreads over every
  worker, and no source is rewritten and no value domain enumerated.
  Workers, the in-parent fallback and a respawn all derive the share from
  the same ``(k, s)``.
- **Delta shipping, routed.** Each worker owns a private working-memory
  replica. Per cycle the pool drains a
  :class:`~repro.wm.memory.DeltaRecorder` and sends each worker only the
  net adds/removes since the previous cycle that its memories can hold
  (:class:`_Router`): a class every CE of which is keyed on one attribute
  goes to the one site its value maps to, another class some CE reads
  goes to every site, and a class no CE reads goes nowhere — never the
  whole memory. Timestamps identify WMEs across replicas, so removes are
  a timestamp list and adds are ``(class, attrs, timestamp)`` records.
- **Incremental match, incremental replies.** Each worker runs the
  set-oriented :class:`~repro.match.treat.TreatMatcher` over its replica
  (or, with a columnar store, over the shared columns): a cycle's delta seeds
  batched joins instead of a re-enumeration of every rule, and the reply
  is the conflict set's *journal* — compact summaries ``(rule name,
  per-CE timestamps, environment)`` of the instantiations that appeared
  plus the keys of those that went away.
- **A merge that keeps no order.** The parent keeps each site's retained
  set as one dict keyed by instantiation identity, rebuilds
  :class:`~repro.match.instantiation.Instantiation` objects against its
  own WME store for the additions only, and hands back the sites' values
  end to end. What fires leaves those dicts at once
  (:meth:`ProcessMatchPool.consume`), and each site's fired keys ride
  with its next match request: the worker drops them from its own
  conflict set before applying the delta, so it neither unlinks them
  again nor reports their removal, and its set stays as small as the
  parent's. The order instantiations fire in belongs to the language
  (LANGUAGE.md §6) and the engine sorts its candidates into it, so the
  same *set* is all it takes to run byte-identically to the sequential
  matchers (the differential suite asserts this).
- **Robustness.** Every cycle applies a per-worker timeout; a crashed,
  wedged, or killed worker is respawned and caught up from a snapshot of
  the live parent memory, routed like any delta (its site's share *is*
  the replica's contents), then
  re-asked for its site's matches; its first reply resets the site's
  retained set. A run survives ``kill -9`` of any worker mid-cycle (tests
  inject exactly that).
- **Degradation.** One policy: a lost worker is respawned at once, and
  the site is *degraded* — its share matched in the parent, inline, for
  the rest of the run — when its respawn budget (``respawn_limit``;
  ``None`` = unlimited) is spent or :data:`MAX_ATTEMPTS_PER_CYCLE`
  respawns fail within one cycle. The run stays alive — slower on that
  site, never wrong — instead of raising
  :class:`~repro.errors.MatchError`. Because the parent WM holds every
  replica's contents in the same order, and the site conditions keep
  exactly the site's share of it, degraded results are byte-identical to
  worker results. A worker that *reports* an error still raises: a
  deterministic error would recur on respawn. Every respawn and
  degradation is a :class:`~repro.resilience.FaultEvent`; engines drain them
  per cycle via :meth:`ProcessMatcher.drain_fault_events` into the
  :class:`~repro.core.engine.CycleReport`.
- **Fault injection.** A :class:`~repro.resilience.FaultPlan` can schedule
  real ``SIGKILL`` (``kills``) and ``SIGSTOP`` (``wedges``) against
  workers at a given conflict-set cycle, driving the recovery machinery
  deterministically under test.
- **Lifecycle.** ``close()`` is idempotent, bounded (a 1 s join per worker
  before an unconditional kill — even a SIGSTOP'd worker cannot stall it),
  the pool is a context manager, and workers are daemonic so a leaked pool
  cannot wedge interpreter shutdown.

:class:`ProcessMatcher` adapts the pool to the standard
:class:`~repro.match.interface.Matcher` interface so engines can select it
with ``EngineConfig(matcher="process")`` (or ``"process:N"`` for an
explicit worker count) like any other backend.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import time
from multiprocessing.connection import Connection
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.collector import CollectorSchedule
from repro.errors import MatchError
from repro.lang.ast import Rule, Value
from repro.match.alphaindex import AlphaCache, ColumnVectorCache
from repro.match.compile import (
    CompiledRule,
    compile_rule,
    compile_rules,
    split_keys,
    value_residue,
)
from repro.match.instantiation import InstKey, Instantiation
from repro.match.interface import Matcher, PoolConfig
from repro.match.join import enumerate_matches
from repro.match.treat import TreatMatcher
from repro.obs.flightrec import (
    EV_MATCH_REPLY,
    EV_MATCH_REQ,
    EV_RULE_BEGIN,
    EV_RULE_END,
    EV_VECTOR_SCAN,
    EV_WORKER_EXIT,
    EV_WORKER_START,
    FlightRing,
)
from repro.obs.metrics import NULL_METRICS
from repro.obs.profile import (
    RULE_MATCH_SECONDS,
    SITE_BUSY_SECONDS,
    VECTOR_PROBE_FALLBACK,
    VECTOR_SCAN_ROWS,
)
from repro.obs.trace import NULL_TRACER, TraceEvent, Tracer
from repro.resilience import FaultEvent, FaultInjector
from repro.wm.columnar import ColumnarReader, ColumnarWorkingMemory
from repro.wm.memory import DeltaRecorder, WMDelta, WorkingMemory
from repro.wm.wme import WME

__all__ = ["ProcessMatchPool", "ProcessMatcher", "default_worker_count"]

#: One match found by a worker: (rule name, per-CE timestamps (0 for a
#: negated CE), variable environment). Small, picklable, and enough for the
#: parent to rebuild the Instantiation against its own WME objects.
MatchSummary = Tuple[str, Tuple[int, ...], Dict[str, Value]]

#: One site's answer to a match request: ``(reset, added, removed)``. The
#: site's retained set loses the ``removed`` keys and gains the ``added``
#: summaries; with ``reset`` it is emptied first (a freshly started worker's
#: first reply, and every reply of a site matched in-parent).
SiteReply = Tuple[bool, List[MatchSummary], List[InstKey]]

#: Per-reply observability payload: the worker's raw span buffer (shipped
#: back alongside match results, ingested onto a ``worker-<site>`` lane),
#: per-rule match seconds, the column-scan kernel's per-cycle work deltas
#: (``None`` for a delta-fed replica), and the seconds from taking the
#: request off the pipe to handing this reply over. ``None`` when
#: observability is off.
ObsPayload = Optional[
    Tuple[
        List[TraceEvent],
        List[Tuple[str, float]],
        Optional[Dict[str, int]],
        float,
    ]
]

#: Per-worker, per-cycle reply deadline (seconds). Generous: it exists to
#: unwedge a hung worker, not to police slow matches. Override per run with
#: ``PoolConfig(timeout=...)`` or the CLI's ``--matcher-timeout``.
DEFAULT_TIMEOUT = 60.0

#: A worker that cannot even come up is a deterministic failure no respawn
#: will fix: after this many failed respawns within one cycle the site is
#: degraded rather than spun on.
MAX_ATTEMPTS_PER_CYCLE = 3


def default_worker_count() -> int:
    """Workers to use when the caller does not say: the usable cores,
    capped at 4 (the paper-era site counts; fan-out beyond match
    parallelism only adds IPC)."""
    try:
        n = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        n = os.cpu_count() or 1
    return max(1, min(4, n))


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def _summary(inst: Instantiation) -> MatchSummary:
    return (inst.rule.name, inst.key[1], inst.env)


class _RuleObserver:
    """A worker matcher's per-rule brackets: begin/end records in the
    flight ring — a SIGKILL between the two leaves an unmatched BEGIN,
    exactly what the post-mortem "last in-flight rule" query reads — and,
    with observability on, the seconds in between."""

    def __init__(
        self, ring: Optional[FlightRing], rule_ids: Dict[str, int], timed: bool
    ) -> None:
        self.ring = ring
        self.rule_ids = rule_ids
        self.timed = timed
        self.cycle = 0
        self.times: List[Tuple[str, float]] = []
        self._t0 = 0.0

    def begin(self, rule: str) -> None:
        if self.ring is not None:
            self.ring.append(
                EV_RULE_BEGIN, self.cycle, code=self.rule_ids.get(rule, 0)
            )
        if self.timed:
            self._t0 = time.perf_counter()

    def end(self, rule: str, added: int) -> None:
        if self.timed:
            self.times.append((rule, time.perf_counter() - self._t0))
        if self.ring is not None:
            self.ring.append(
                EV_RULE_END, self.cycle, code=self.rule_ids.get(rule, 0), a=added
            )


def _worker_main(
    conn: Connection,
    rules: Tuple[Rule, ...],
    site: Tuple[int, int],
    obs: bool = False,
    flight: Optional[Tuple[str, Dict[str, int]]] = None,
) -> None:
    """Worker loop: maintain a WM replica and site ``site[1]`` of
    ``site[0]``'s share of the conflict set, answer match requests with
    what changed.

    Protocol (parent → worker):

    - ``("match", [wire_delta, ...], fired)`` — drop the ``fired``
      instantiation keys (this site's share of what the engine fired since
      the last request) from the conflict set, apply the pickled deltas
      (the WMEs this site's memories can hold, see :class:`_Router`) in
      order, bring the conflict set current, then reply
      ``("ok", (site_reply, obs_payload))`` where ``site_reply`` is the
      :data:`SiteReply` journal of this site's conflict set since the
      previous reply (``reset`` set on the first reply after a start or
      attach, whose additions are therefore the whole set) and
      ``obs_payload`` is the worker's span buffer and per-rule match
      times when ``obs`` is on, else ``None``;
    - ``("attach", spec)`` — columnar mode: attach the parent's
      shared-memory columns (:class:`~repro.wm.columnar.ColumnarReader`);
      no reply;
    - ``("match-shm", info, fired)`` — columnar mode: drop ``fired`` as
      ``"match"`` does, advance over the shared delta journal up to the
      message's cursors, then match and reply exactly as ``"match"`` does;
    - ``("stop",)`` — exit.

    Any exception is reported as ``("err", message)``; the parent raises
    :class:`~repro.errors.MatchError` for it rather than respawning (a
    deterministic error would recur on respawn). Liveness needs no probe:
    the parent polls ``is_alive`` while it waits for a reply.

    The conflict set is retained by a
    :class:`~repro.match.treat.TreatMatcher`, built after the first
    delta/refresh has landed (so a large bootstrap is bulk-loaded rather
    than replayed through its listener) and fed every later change as it
    is applied; the match step is its batched flush.

    The alpha layer follows the store. Delta mode builds a replica WM and
    the matcher reads it through an
    :class:`~repro.match.alphaindex.AlphaCache`. A columnar attach
    populates no replica at all: alpha memories are row-id sets over the
    shared columns (:class:`~repro.match.alphaindex.ColumnVectorCache`),
    refresh advances the journal and hands the matcher only the
    alpha-passing rows, and other WMEs are decoded lazily for probe
    survivors only.

    With ``obs`` on the worker runs its own :class:`~repro.obs.Tracer`
    (spans on a local lane, rewritten to ``worker-<site>`` by the parent
    at ingest) — ``perf_counter_ns`` stamps share the parent's monotonic
    base, so the shipped spans land on the parent's timeline unadjusted.

    ``flight`` is the flight-recorder spec ``(ring segment name, rule-id
    map)``: the worker attaches the *parent-created* shared-memory ring
    and journals its lifecycle (start/stop, match requests, per-rule
    begin/end, replies) into it. Because the parent owns the segment and
    keeps it mapped, those records survive this worker being SIGKILLed
    mid-rule — that is the whole point. A respawned worker re-attaches
    the same ring and continues the sequence.
    """
    ring: Optional[FlightRing] = None
    rule_ids: Dict[str, int] = {}
    if flight is not None:
        ring_name, rule_ids = flight
        try:
            ring = FlightRing.attach(ring_name)
        except Exception:  # noqa: BLE001 - recording is best-effort
            ring = None
    if ring is not None:
        ring.append(EV_WORKER_START, 0, a=os.getpid())
    observer = (
        _RuleObserver(ring, rule_ids, obs) if ring is not None or obs else None
    )
    wm = WorkingMemory()
    by_ts: Dict[int, WME] = {}
    matcher: Optional[TreatMatcher] = None
    #: The next reply describes the whole conflict set, not a change to it.
    reset = True
    tracer = Tracer() if obs else NULL_TRACER
    reader: Optional[ColumnarReader] = None
    #: Column-native alpha source; set on attach (columnar mode), in which
    #: case ``wm``/``by_ts`` stay empty and unused.
    vcache: Optional[ColumnVectorCache] = None
    vec_prev = {"scanned": 0, "materialized": 0, "fallback": 0, "probes": 0}
    cycle = 0

    # The worker's heap is replica WMEs and retained instantiations, all
    # acyclic: size the cyclic collector's schedule to it.
    with CollectorSchedule() as collector:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                if reader is not None:
                    reader.close()
                if ring is not None:
                    ring.append(EV_WORKER_EXIT, cycle, code=1)  # pipe lost
                    ring.close()
                return
            if msg[0] == "stop":
                if reader is not None:
                    reader.close()
                if ring is not None:
                    ring.append(EV_WORKER_EXIT, cycle, code=0)  # clean stop
                    ring.close()
                return
            try:
                tag = msg[0]
                if tag == "attach":
                    if reader is not None:
                        reader.close()
                    reader = ColumnarReader(msg[1])
                    matcher = None
                    with tracer.span("attach", lane="worker"):
                        # Nothing is materialized up front — memories prime
                        # themselves from the liveness columns when the
                        # matcher is built.
                        vcache = ColumnVectorCache(reader)
                    continue
                cycle += 1
                taken = time.perf_counter() if obs else 0.0
                if ring is not None:
                    ring.append(
                        EV_MATCH_REQ,
                        cycle,
                        a=len(msg[1]) if tag == "match" else -1,
                    )
                if observer is not None:
                    observer.cycle = cycle
                    observer.times = []
                fired = msg[2]
                if fired and matcher is not None:
                    # The parent dropped these already: forget them without
                    # journalling, before the delta could unlink them.
                    matcher.consume(fired)
                    matcher.conflict_set.drain_journal()
                if tag == "match-shm":
                    with tracer.span("refresh-journal", lane="worker", cycle=cycle):
                        vcache.refresh(msg[1])
                else:
                    deltas = msg[1]
                    if deltas:
                        with tracer.span(
                            "apply-delta",
                            lane="worker",
                            cycle=cycle,
                            deltas=len(deltas),
                        ):
                            for wire in deltas:
                                WMDelta.apply_wire(wm, by_ts, wire)
                if matcher is None:
                    # The alpha layer follows the store: the shared columns,
                    # or the replica the deltas build.
                    alpha = vcache if vcache is not None else AlphaCache(wm)
                    matcher = TreatMatcher(rules, wm, alpha=alpha, site=site)
                    # No counters are shipped back, so none are kept: the
                    # enumerator then skips its per-candidate accounting.
                    matcher.stats = None
                    matcher.observer = observer
                    matcher.conflict_set.start_journal()
                    reset = True
                with tracer.span(
                    "match", lane="worker", cycle=cycle, rules=len(matcher.compiled)
                ):
                    matcher.flush()
                added, removed = matcher.conflict_set.drain_journal()
                vec_stats: Optional[Dict[str, int]] = None
                if vcache is not None:
                    cur = vcache.counters()
                    vec_stats = {k: cur[k] - vec_prev[k] for k in cur}
                    vec_prev = cur
                    if ring is not None:
                        ring.append(
                            EV_VECTOR_SCAN,
                            cycle,
                            a=vec_stats["scanned"],
                            b=vec_stats["materialized"],
                            code=min(vec_stats["fallback"], 0x7FFF),
                        )
                payload: ObsPayload = None
                if obs:
                    payload = (
                        tracer.drain_events(),
                        observer.times,
                        vec_stats,
                        time.perf_counter() - taken,
                    )
                reply: SiteReply = (reset, [_summary(i) for i in added], removed)
                conn.send(("ok", (reply, payload)))
                if ring is not None:
                    ring.append(EV_MATCH_REPLY, cycle, a=len(added))
                if reset:
                    # Caught up and primed: what is live now is the
                    # long-lived bulk of this worker's heap.
                    collector.freeze()
                    reset = False
            except Exception as exc:  # noqa: BLE001 - forwarded to the parent
                try:
                    conn.send(("err", f"{type(exc).__name__}: {exc}"))
                except (BrokenPipeError, OSError):
                    return


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------

#: A CE with no site condition, as a routing key (``None`` is the
#: timestamp's).
_UNSPLIT = object()

#: Most distinct key values a router remembers the site of.
_SITE_MEMO = 1 << 16


class _Router:
    """Which of ``k`` workers' replicas hold a WME, decided from the same
    :func:`~repro.match.compile.split_keys` every site compiles with.

    A class whose every CE carries the site condition on one key goes to
    the one site that key's value maps to — the only site whose memories
    can hold it. Any other class some CE reads goes to every site, and a
    class no CE reads goes to none. A pure function of the WME, so a
    remove goes wherever its add went, and a catch-up snapshot routes
    like the deltas it replaces.
    """

    def __init__(self, rules: Sequence[Rule], k: int) -> None:
        self.k = k
        keys: Dict[str, Set[object]] = {}
        for rule in rules:
            ces = compile_rule(rule, plan=False).ces
            split = split_keys(ces)
            for ce in ces:
                keys.setdefault(ce.class_name, set()).add(
                    split.get(ce.index, _UNSPLIT)
                )
        #: class -> the attribute its WMEs are routed on (``None``: the
        #: timestamp).
        self.keyed: Dict[str, Optional[str]] = {}
        #: Classes every site receives.
        self.everywhere: Set[str] = set()
        for class_name, seen in keys.items():
            key = next(iter(seen)) if len(seen) == 1 else _UNSPLIT
            if key is _UNSPLIT:
                self.everywhere.add(class_name)
            else:
                self.keyed[class_name] = key
        #: value -> its site, for the values of keyed attributes: routing
        #: runs on the parent's side of every cycle's barrier, and a lookup
        #: is a third of a residue's cost. Exact as a dict: values a dict
        #: key unifies are ``==``, and ``==`` values share a residue.
        #: Cleared when it outgrows :data:`_SITE_MEMO`.
        self._site_of: Dict[Value, int] = {}

    def deal(self, wmes: Sequence[WME]) -> List[List[WME]]:
        """``wmes`` split into one list per site, order kept."""
        k = self.k
        out: List[List[WME]] = [[] for _ in range(k)]
        keyed = self.keyed
        everywhere = self.everywhere
        site_of = self._site_of
        if len(site_of) > _SITE_MEMO:
            site_of.clear()
        for wme in wmes:
            name = wme.class_name
            if name in keyed:
                attr = keyed[name]
                if attr is None:
                    out[value_residue(wme.timestamp, k)].append(wme)
                    continue
                key = wme.get(attr)
                site = site_of.get(key)
                if site is None:
                    site = site_of[key] = value_residue(key, k)
                out[site].append(wme)
            elif name in everywhere:
                for share in out:
                    share.append(wme)
        return out


def _match_request(
    adds: Sequence[WME], removes: Sequence[WME], fired: Sequence[InstKey]
) -> bytes:
    """A pickled ``("match", ...)`` request carrying one site's share of a
    delta — its adds as records, its removes as timestamps — and of the
    keys fired since its last request."""
    delta = WMDelta(tuple(adds), tuple(w.timestamp for w in removes))
    payload = [] if delta.empty else [delta.wire()]
    return pickle.dumps(("match", payload, fired), protocol=pickle.HIGHEST_PROTOCOL)


class ProcessMatchPool:
    """Conflict-set computation fanned out to persistent worker processes.

    Each of the ``n_workers`` sites matches its share of *every* rule (see
    the module docstring), so ``n_workers`` above the rule count is more
    ways to split the data; a site idles on a rule only when the rule's
    split variable takes fewer values than there are sites. Only a pool
    over no rules has no sites and no processes. :meth:`conflict_set`
    promises the set, not an order. Working memory must not be mutated
    while it runs — the engines never do (match and apply are separate
    phases of the cycle).
    """

    def __init__(
        self,
        rules: Sequence[Rule],
        wm: WorkingMemory,
        n_workers: int,
        config: Optional[PoolConfig] = None,
        start_method: Optional[str] = None,
        tracer=None,
        metrics=None,
        flightrec=None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("need at least one worker")
        config = config if config is not None else PoolConfig()
        fault_plan = config.fault_plan
        if fault_plan is not None:
            fault_plan.validate_sites(n_workers)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        #: Workers only pay span-recording costs when the parent can use
        #: them; the flag rides along on every (re)spawn.
        self._obs = self.tracer.enabled or self.metrics.enabled
        self.wm = wm
        #: Parent-side alpha cache for degraded sites, created on first
        #: degradation (no listener overhead while every worker is healthy).
        self._parent_alpha: Optional[AlphaCache] = None
        self.n_workers = n_workers
        # An unconfigured timeout must never mean "wait forever": a worker
        # that dies between request and reply would hang the parent.
        self.timeout = (
            config.timeout if config.timeout is not None else DEFAULT_TIMEOUT
        )
        self.respawn_limit = config.respawn_limit
        self._rules: Tuple[Rule, ...] = tuple(rules)
        self._rules_by_name: Dict[str, Rule] = {r.name: r for r in rules}
        #: The sites given a process: all of them, each with its share of
        #: every rule — or none, when there is no rule to share out.
        self.active_sites: Tuple[int, ...] = (
            tuple(range(n_workers)) if rules else ()
        )
        if start_method is None:
            start_method = (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else "spawn"
            )
        self._ctx = multiprocessing.get_context(start_method)
        #: Shared-attach mode: the store's columns live in shared memory,
        #: so workers attach once and refresh from the shared delta
        #: journal — no per-cycle delta pickling at all.
        self._shared = isinstance(wm, ColumnarWorkingMemory)
        #: Parent-side timestamp index for rebuilding Instantiations with
        #: the exact WME objects the sequential matchers would use.
        self._wme_by_ts: Dict[int, WME] = {}
        self._recorder: Optional[DeltaRecorder] = None
        #: Delta mode: which replicas each shipped WME goes to. Columnar
        #: workers read the shared columns, so nothing is routed there.
        self._router: Optional[_Router] = None
        if self._shared:
            # No delta recorder: track the ts index with a thin listener.
            self._wme_by_ts = {w.timestamp: w for w in wm}
            wm.add_listener(self._ts_listener)
        else:
            self._recorder = DeltaRecorder(wm)
            self._router = _Router(self._rules, n_workers)
        #: Sites whose worker has attached the shared columns (columnar
        #: mode only; reset on respawn).
        self._attached: Set[int] = set()
        #: Per site, the instantiations its matcher currently retains,
        #: by identity. Edited by each :data:`SiteReply`.
        self._retained: Dict[int, Dict[InstKey, Instantiation]] = {}
        #: Per site, the keys consumed here since its last request: its
        #: worker drops them too when the next request delivers them.
        self._fired: Dict[int, List[InstKey]] = {}
        self._conns: Dict[int, Connection] = {}
        self._procs: Dict[int, multiprocessing.process.BaseProcess] = {}
        #: Workers respawned after a crash/timeout (tests assert on this).
        self.respawns = 0
        #: Per-site respawn counts, charged against ``respawn_limit``.
        self.site_respawns: Dict[int, int] = {}
        #: Sites matched in-parent for the rest of the run: the respawn
        #: budget ran out, or respawns kept failing within one cycle.
        self.degraded_sites: Set[int] = set()
        self._site_compiled: Dict[int, Tuple[CompiledRule, ...]] = {}
        self._injector: Optional[FaultInjector] = (
            fault_plan.injector() if fault_plan is not None else None
        )
        self._fault_events: List[FaultEvent] = []
        self._cycle = 0
        self._closed = False
        #: Flight recorder (parent-owned). Each active site gets a
        #: parent-created shared-memory ring; the spec rides along on every
        #: (re)spawn so even a replacement worker journals into the *same*
        #: ring — the parent can decode it after any SIGKILL.
        self._flightrec = flightrec
        self._flight_specs: Dict[int, Optional[Tuple[str, Dict[str, int]]]] = {}
        if flightrec is not None:
            names = [r.name for r in rules]
            for site in self.active_sites:
                self._flight_specs[site] = flightrec.worker_spec(site, names)
        for site in self.active_sites:
            self._spawn(site)

    # -- worker management -------------------------------------------------

    def _spawn(self, site: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                child_conn,
                self._rules,
                (self.n_workers, site),
                self._obs,
                self._flight_specs.get(site),
            ),
            name=f"parulel-match-site{site}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._conns[site] = parent_conn
        self._procs[site] = proc

    def _ts_listener(self, wmes: Sequence[WME], added: bool) -> None:
        """Columnar mode: keep the parent's ts→WME rebuild index current
        (the delta recorder does this as a side effect in delta mode)."""
        by_ts = self._wme_by_ts
        if added:
            by_ts.update([(wme.timestamp, wme) for wme in wmes])
        else:
            for wme in wmes:
                by_ts.pop(wme.timestamp, None)

    def _kill(self, site: int) -> None:
        proc = self._procs.get(site)
        if proc is not None and proc.is_alive():
            proc.kill()
            proc.join()
        conn = self._conns.get(site)
        if conn is not None:
            conn.close()
        self._attached.discard(site)

    def _record(self, kind: str, site: int, detail: str = "") -> None:
        event = FaultEvent(cycle=self._cycle, kind=kind, site=site, detail=detail)
        self._fault_events.append(event)
        # The pool is where these events originate, so it is the one place
        # they become trace instants and fault-metric counts (the engine
        # only attaches the drained events to its CycleReport).
        if self.tracer.enabled:
            self.tracer.instant(
                kind, lane=f"worker-{site}", cycle=self._cycle, detail=detail
            )
        if self.metrics.enabled:
            self.metrics.inc("parulel_fault_events_total", kind=kind)
            if kind == "respawn":
                self.metrics.inc("parulel_worker_respawns_total", site=site)
        if self._flightrec is not None:
            self._flightrec.record_fault(kind, site, self._cycle)

    def drain_fault_events(self) -> List[FaultEvent]:
        """Fault/recovery events since the last drain (engine hook)."""
        out, self._fault_events = self._fault_events, []
        return out

    def _try_send(self, site: int, msg: tuple) -> bool:
        try:
            self._conns[site].send(msg)
            return True
        except (BrokenPipeError, OSError):
            return False

    def _try_send_bytes(self, site: int, blob: bytes) -> bool:
        """Ship an already-pickled message. ``Connection.recv`` unpickles
        whatever bytes arrive, so ``send_bytes(pickle.dumps(msg))`` is
        wire-identical to ``send(msg)`` — but serialized exactly once,
        which also makes ``len(blob)`` the *exact* IPC byte count (the
        old scatter path pickled a second time just to measure)."""
        try:
            self._conns[site].send_bytes(blob)
            return True
        except (BrokenPipeError, OSError):
            return False

    def _recv(self, site: int) -> Optional[SiteReply]:
        """One worker reply (observability payload ingested as a side
        effect), or ``None`` when the worker is dead or wedged.

        Waits under a bounded deadline no matter how the pool was
        configured, polling in short slices so a worker that died *after*
        the request was sent fails over in well under a second instead of
        burning the whole reply deadline (or, with no usable timeout,
        blocking forever — the hang this replaces)."""
        conn = self._conns[site]
        deadline = time.monotonic() + self.timeout
        try:
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None  # wedged past the deadline
                if conn.poll(min(0.25, remaining)):
                    break
                proc = self._procs.get(site)
                if proc is not None and not proc.is_alive() and not conn.poll(0):
                    return None  # died before replying, nothing buffered
            # recv() is recv_bytes() + unpickle; split so the reply's exact
            # size is known (only this pool's own workers write to the pipe).
            blob = conn.recv_bytes()
        except (EOFError, OSError):
            return None
        tag, payload = pickle.loads(blob)
        if tag == "err":
            raise MatchError(f"match worker for site {site} failed: {payload}")
        reply, obs_payload = payload
        self._ingest_obs(site, obs_payload)
        if self.metrics.enabled:
            self.metrics.inc("parulel_ipc_messages_total", direction="reply")
            self.metrics.inc("parulel_ipc_reply_bytes_total", len(blob), site=site)
        return reply

    def _ingest_obs(self, site: int, obs_payload: ObsPayload) -> None:
        """Fold a worker's shipped spans and per-rule match times into the
        parent tracer/registry, on the worker's own lane."""
        if obs_payload is None:
            return
        events, rule_times, vec_stats, busy_s = obs_payload
        if self.tracer.enabled and events:
            self.tracer.ingest(events, lane=f"worker-{site}")
        if self.metrics.enabled:
            self.metrics.inc(SITE_BUSY_SECONDS, busy_s, site=site)
            for rule, seconds in rule_times:
                self.metrics.observe(
                    RULE_MATCH_SECONDS, seconds, rule=rule, site=site
                )
            if vec_stats is not None:
                if vec_stats["scanned"]:
                    self.metrics.inc(
                        VECTOR_SCAN_ROWS, vec_stats["scanned"], site=site
                    )
                if vec_stats["fallback"]:
                    self.metrics.inc(
                        VECTOR_PROBE_FALLBACK, vec_stats["fallback"], site=site
                    )

    def _degrade(self, site: int, reason: str) -> SiteReply:
        """Stop respawning the site's worker and match its share in the
        parent for the rest of the run.

        The parent working memory holds exactly what the worker's replica
        held (the replica was built from the parent's deltas), and both
        iterate class buckets in timestamp order, so the in-parent matches
        are byte-identical to what the worker would have returned.
        """
        self._kill(site)
        self._procs.pop(site, None)
        self._conns.pop(site, None)
        self.degraded_sites.add(site)
        self._record(
            "degrade",
            site,
            detail=(
                f"{reason}; its share of {len(self._rules)} rule(s) now "
                f"matched in-parent"
            ),
        )
        if self.metrics.enabled:
            self.metrics.set_gauge("parulel_site_mode", 1, site=site)
        return self._parent_match(site)

    def _parent_match(self, site: int) -> SiteReply:
        """Serial in-parent match of one (degraded) site's share of the
        rules — compiled from the same ``(k, s)`` its worker compiled
        from: a full enumeration every cycle, so always a ``reset`` reply
        — whatever the site's worker last reported is replaced, never
        patched.

        Spans stay on the site's ``worker-<site>`` lane — the lane shows
        where the site's match work went, which after degradation is the
        parent's clock."""
        compiled = self._site_compiled.get(site)
        if compiled is None:
            compiled = compile_rules(self._rules, site=(self.n_workers, site))
            self._site_compiled[site] = compiled
        if self._parent_alpha is None:
            self._parent_alpha = AlphaCache(self.wm)
            self._parent_alpha.attach()
        out: List[MatchSummary] = []
        obs = self.metrics.enabled
        with self.tracer.span(
            "match (degraded, in-parent)", lane=f"worker-{site}", cycle=self._cycle
        ):
            for cr in compiled:
                t0 = time.perf_counter() if obs else 0.0
                out.extend(
                    _summary(inst)
                    for inst in enumerate_matches(
                        cr, self.wm, alpha_source=self._parent_alpha
                    )
                )
                if obs:
                    seconds = time.perf_counter() - t0
                    self.metrics.observe(
                        RULE_MATCH_SECONDS, seconds, rule=cr.name, site=site
                    )
                    self.metrics.inc(SITE_BUSY_SECONDS, seconds, site=site)
        return True, out, []

    def _respawn_and_match(self, site: int) -> SiteReply:
        """Replace a dead/wedged worker, catch it up, re-match.

        Respawns are immediate. The site is degraded instead once its
        respawn budget is spent, or after :data:`MAX_ATTEMPTS_PER_CYCLE`
        failed respawns within one cycle; the budget is checked first.
        """
        attempts = 0
        while True:
            used = self.site_respawns.get(site, 0)
            if self.respawn_limit is not None and used >= self.respawn_limit:
                return self._degrade(
                    site, f"respawn budget ({self.respawn_limit}) exhausted"
                )
            if attempts >= MAX_ATTEMPTS_PER_CYCLE:
                return self._degrade(
                    site, f"{attempts} consecutive respawns failed in one cycle"
                )
            attempts += 1
            self._kill(site)
            self._spawn(site)
            self.respawns += 1
            self.site_respawns[site] = used + 1
            self._record(
                "respawn",
                site,
                detail=f"attempt {used + 1}"
                + (
                    f" of {self.respawn_limit}"
                    if self.respawn_limit is not None
                    else ""
                ),
            )
            if self._catch_up_and_request(site):
                reply = self._recv(site)
                if reply is not None:
                    return reply

    def _catch_up_and_request(self, site: int) -> bool:
        """Bring a freshly (re)spawned worker current and ask it to match.

        Columnar mode: ship the attach spec (the worker scans the shared
        liveness snapshot) plus a cursor-only match request. Delta mode:
        ship the site's share of the live memory as one delta — this
        cycle's increment is already drained into it, and it is what the
        replica must hold, at a cost of the live size rather than the
        run's history. Either way the messages are pickled exactly once
        and their sizes feed the IPC byte metrics.
        """
        if self._shared:
            wm: ColumnarWorkingMemory = self.wm  # type: ignore[assignment]
            spec_blob = pickle.dumps(
                ("attach", wm.attach_spec()), protocol=pickle.HIGHEST_PROTOCOL
            )
            match_blob = pickle.dumps(
                ("match-shm", wm.refresh_info(), ()),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            if not self._try_send_bytes(site, spec_blob):
                return False
            self._attached.add(site)
            ok = self._try_send_bytes(site, match_blob)
            sent_bytes = len(spec_blob) + (len(match_blob) if ok else 0)
        else:
            share = self._router.deal(self.wm.snapshot())[site]
            blob = _match_request(share, (), ())
            ok = self._try_send_bytes(site, blob)
            sent_bytes = len(blob) if ok else 0
        if self.metrics.enabled and sent_bytes:
            self.metrics.inc("parulel_ipc_messages_total", direction="request")
            self.metrics.inc("parulel_ipc_bytes_total", sent_bytes, site=site)
        return ok

    def _inject_faults(self) -> None:
        """Apply this cycle's scheduled worker kills/wedges (real signals)."""
        assert self._injector is not None
        for kill in self._injector.kills_at(self._cycle):
            proc = self._procs.get(kill.site)
            if proc is not None and proc.is_alive():
                proc.kill()
                proc.join()
                self._record("kill", kill.site, detail="injected SIGKILL")
        if hasattr(signal, "SIGSTOP"):
            for wedge in self._injector.wedges_at(self._cycle):
                proc = self._procs.get(wedge.site)
                if proc is not None and proc.is_alive():
                    os.kill(proc.pid, signal.SIGSTOP)
                    self._record("wedge", wedge.site, detail="injected SIGSTOP")

    # -- the conflict set ---------------------------------------------------

    def conflict_set(self) -> List[Instantiation]:
        """The full conflict set, as a list in no promised order (the
        engine sorts what it fires; compare two of these as sets).

        Delta mode ships each live worker its share of the WM delta since
        the last call; columnar mode ships only journal cursors (workers
        read the shared columns directly). Each site replies with the
        change to its retained set, and the sets — disjoint by
        construction — are laid end to end. Crashed or unresponsive
        workers are respawned and caught up transparently; sites past
        their respawn budget are matched in-parent.
        """
        if self._closed:
            raise MatchError("ProcessMatchPool is closed")
        self._cycle += 1
        if self._injector is not None:
            self._inject_faults()

        # Fan the request out to every live worker before collecting any
        # reply, so sites match concurrently; then merge in deterministic
        # order (degraded sites are matched serially in-parent). Both modes
        # pickle each message exactly once and ship the bytes, so the IPC
        # byte metrics count precisely what crossed the pipes.
        metrics = self.metrics
        sent: Dict[int, bool] = {}
        # Each request carries its site's fired keys; a site that gets none
        # (degraded, or respawned and caught up afresh) has no use for them.
        fired, self._fired = self._fired, {}
        if self._shared:
            # Columnar mode: the data already lives in shared memory. The
            # per-cycle message is just journal/heap cursors plus any
            # structural (re)mount specs — a few hundred bytes regardless
            # of how many WMEs changed — and the site's fired keys.
            wm: ColumnarWorkingMemory = self.wm  # type: ignore[assignment]
            info = wm.cycle_info()
            spec_blob: Optional[bytes] = None
            for site in self.active_sites:
                if site in self.degraded_sites:
                    sent[site] = False
                    continue
                site_bytes = 0
                ok = True
                if site not in self._attached:
                    if spec_blob is None:
                        spec_blob = pickle.dumps(
                            ("attach", wm.attach_spec()),
                            protocol=pickle.HIGHEST_PROTOCOL,
                        )
                    ok = self._try_send_bytes(site, spec_blob)
                    if ok:
                        self._attached.add(site)
                        site_bytes += len(spec_blob)
                if ok:
                    match_blob = pickle.dumps(
                        ("match-shm", info, fired.get(site, ())),
                        protocol=pickle.HIGHEST_PROTOCOL,
                    )
                    ok = self._try_send_bytes(site, match_blob)
                    if ok:
                        site_bytes += len(match_blob)
                sent[site] = ok
                if ok and metrics.enabled:
                    metrics.inc("parulel_ipc_messages_total", direction="request")
                    metrics.inc("parulel_ipc_bytes_total", site_bytes, site=site)
        else:
            delta = self._recorder.drain()
            removed = [self._wme_by_ts.pop(ts) for ts in delta.removes]
            for wme in delta.adds:
                self._wme_by_ts[wme.timestamp] = wme
            adds = self._router.deal(delta.adds)
            removes = self._router.deal(removed)
            for site in self.active_sites:
                if site in self.degraded_sites:
                    sent[site] = False
                    continue
                blob = _match_request(
                    adds[site], removes[site], fired.get(site, ())
                )
                ok = self._try_send_bytes(site, blob)
                sent[site] = ok
                if ok and metrics.enabled:
                    metrics.inc("parulel_ipc_messages_total", direction="request")
                    metrics.inc("parulel_ipc_bytes_total", len(blob), site=site)
        merged: List[Instantiation] = []
        for site in self.active_sites:
            if site in self.degraded_sites:
                reply = self._parent_match(site)
            else:
                reply = self._recv(site) if sent[site] else None
                if reply is None:
                    reply = self._respawn_and_match(site)
            merged.extend(self._apply_reply(site, reply).values())
        return merged

    def _apply_reply(
        self, site: int, reply: SiteReply
    ) -> Dict[InstKey, Instantiation]:
        """Edit the site's retained set as its reply says; return it.

        Instantiations are rebuilt (against the parent's own WME objects)
        for the additions only."""
        reset, added, removed = reply
        if reset:
            self._retained[site] = {}
        retained = self._retained[site]
        for key in removed:
            retained.pop(key, None)
        wme_by_ts = self._wme_by_ts
        rules_by_name = self._rules_by_name
        for rule_name, timestamps, env in added:
            wmes = tuple(wme_by_ts[ts] if ts else None for ts in timestamps)
            inst = Instantiation(rules_by_name[rule_name], wmes, env)
            retained[inst.key] = inst
        return retained

    def consume(self, keys: Sequence[InstKey]) -> None:
        """Drop the fired instantiations ``keys`` from the sites' retained
        sets (disjoint, so each key leaves at most one). No message goes
        out now: each site's keys ride with its next match request, and
        its worker drops them before applying that request's delta."""
        sites = list(self._retained.items())
        for key in keys:
            for site, retained in sites:
                if retained.pop(key, None) is not None:
                    self._fired.setdefault(site, []).append(key)
                    break

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Stop all workers and detach from the working memory (idempotent).

        Bounded: each worker gets a 1 s grace join, then an unconditional
        SIGKILL — SIGKILL interrupts even a SIGSTOP'd worker, so close
        returns promptly no matter what state the workers are in.
        """
        if self._closed:
            return
        self._closed = True
        if self._recorder is not None:
            self._recorder.detach()
        if self._shared:
            try:
                self.wm.remove_listener(self._ts_listener)
            except ValueError:  # already removed (e.g. the WM was reset)
                pass
        if self._parent_alpha is not None:
            self._parent_alpha.detach()
        for site in list(self._procs):
            self._try_send(site, ("stop",))
        for site, proc in list(self._procs.items()):
            # Whatever joining/killing the worker does, its connection must
            # be closed — leaked pipe fds outlive the pool otherwise.
            try:
                proc.join(timeout=1.0)
                if proc.is_alive():
                    proc.kill()
                    proc.join()
            finally:
                conn = self._conns.get(site)
                if conn is not None:
                    try:
                        conn.close()
                    except OSError:
                        pass

    def __enter__(self) -> "ProcessMatchPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ProcessMatcher(Matcher):
    """The process pool behind the standard :class:`Matcher` interface.

    WM changes only mark the conflict set dirty; the pool ships the
    accumulated delta and collects the sites' changes lazily on
    :meth:`instantiations` — once per engine cycle, exactly when the
    collect phase reads it.
    """

    name = "process"
    _dirty = True
    #: The pool's merged list as of the last collect.
    _current: List[Instantiation] = []

    def __init__(
        self,
        rules: Sequence[Rule],
        wm: WorkingMemory,
        n_workers: Optional[int] = None,
        config: Optional[PoolConfig] = None,
        tracer=None,
        metrics=None,
        flightrec=None,
    ) -> None:
        # The pool's recorder primes itself with the pre-existing WMEs, so
        # it must attach before Matcher.__init__ replays them through
        # _listener (which only marks the cache dirty here).
        if n_workers is None:
            n_workers = default_worker_count()
        self.pool = ProcessMatchPool(
            rules,
            wm,
            n_workers,
            config,
            tracer=tracer,
            metrics=metrics,
            flightrec=flightrec,
        )
        super().__init__(rules, wm)
        #: The workers keep no match counters (``_worker_main`` drops them,
        #: keeping per-candidate accounting off the hot path) and the
        #: parent does no matching, so there is no
        #: :class:`~repro.match.stats.MatchStats` to report.
        self.stats = None

    def _listener(self, wmes: Sequence[WME], added: bool) -> None:
        self._dirty = True

    def instantiations(self) -> List[Instantiation]:
        if self._dirty:
            self._current = self.pool.conflict_set()
            self._dirty = False
        return list(self._current)

    def consume(self, keys: Sequence[InstKey]) -> None:
        """Forwarded to :meth:`ProcessMatchPool.consume`. The list of the
        last collect is not rebuilt: it differs from the pool's sets only
        by what fired, which the engine filters out, and the next WM
        change replaces it."""
        self.pool.consume(keys)

    def drain_fault_events(self) -> List[FaultEvent]:
        """Respawn/degrade/injection events since the last drain — the
        engine attaches them to the cycle's report."""
        return self.pool.drain_fault_events()

    def detach(self) -> None:
        super().detach()
        self.pool.close()

    close = detach
