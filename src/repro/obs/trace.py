"""Span/event tracing with Chrome trace-event export.

The tracer answers the question PARULEL's whole case rests on — *where
does the cycle time go* — with real spans instead of ad-hoc
``perf_counter`` arithmetic:

- a **span** is a named interval on a **lane** (the engine, one worker
  process, one distributed site, the simulated network); spans nest;
- an **instant** is a point event on a lane (fault injections, recovery
  actions).

Recording is thread-safe (one lock around the event list) and
process-friendly: timestamps come from ``time.perf_counter_ns()``, whose
``CLOCK_MONOTONIC`` base is system-wide on the platforms we run on, so a
worker process can record spans locally, ship the raw event buffer back
over its result pipe, and the parent :meth:`Tracer.ingest`\\ s them onto a
worker lane of the same timeline.

Exports:

- :meth:`Tracer.to_chrome` / :meth:`Tracer.write_chrome` — the Chrome
  trace-event JSON object format (``{"traceEvents": [...]}``) with
  ``B``/``E`` duration events and ``i`` instants, loadable in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``. Lane names become
  thread-name metadata. Timestamps per lane are made *strictly*
  increasing at export time (equal stamps are nudged by a nanosecond-scale
  epsilon) so downstream tooling never sees a zero-width inversion.
- :meth:`Tracer.write_jsonl` — one event object per line, for ad-hoc
  ``jq``/pandas digestion.

:class:`NullTracer` is the default everywhere: every operation is a no-op
on shared singleton objects, so the disabled path costs an attribute load
and a truth test — nothing allocates, nothing locks.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "PhaseSpan",
    "Tracer",
    "TraceEvent",
    "validate_chrome_trace",
]

#: Histogram of per-cycle engine phase durations (seconds), labelled by
#: phase key — recorded by :class:`PhaseSpan` when metrics are enabled.
PHASE_SECONDS = "parulel_phase_seconds"

#: One recorded event: ``(phase, name, lane, ts_ns, args)`` where ``phase``
#: is ``"B"`` (span begin), ``"E"`` (span end) or ``"i"`` (instant) and
#: ``ts_ns`` is an absolute ``perf_counter_ns`` stamp. Plain tuples keep
#: the buffer picklable for worker → parent shipping.
TraceEvent = Tuple[str, str, str, int, Optional[Dict[str, Any]]]

#: Export-time epsilon (µs) used to break timestamp ties within a lane.
_EPSILON_US = 0.001


class _SpanHandle:
    """Context manager for one live span (allocated per enabled span)."""

    __slots__ = ("_tracer", "_name", "_lane", "_args")

    def __init__(self, tracer: "Tracer", name: str, lane: str, args: Optional[Dict[str, Any]]) -> None:
        self._tracer = tracer
        self._name = name
        self._lane = lane
        self._args = args

    def __enter__(self) -> "_SpanHandle":
        self._tracer._record("B", self._name, self._lane, self._args)
        return self

    def __exit__(self, *exc: object) -> None:
        self._tracer._record("E", self._name, self._lane, None)


class Tracer:
    """Thread-safe span/instant recorder on a shared monotonic timeline."""

    enabled = True

    def __init__(self, clock=time.perf_counter_ns) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._events: List[TraceEvent] = []
        #: Lanes in first-seen order (stable tid assignment in exports).
        self._lanes: List[str] = []
        self._lane_set: set = set()
        self.origin_ns = clock()

    # -- recording ----------------------------------------------------------

    def _record(self, ph: str, name: str, lane: str, args: Optional[Dict[str, Any]]) -> None:
        ts = self._clock()
        with self._lock:
            self._note_lane(lane)
            self._events.append((ph, name, lane, ts, args))

    def _note_lane(self, lane: str) -> None:
        if lane not in self._lane_set:
            self._lane_set.add(lane)
            self._lanes.append(lane)

    def declare_lane(self, lane: str) -> None:
        """Pre-register a lane so exports order it by declaration, not by
        whichever event happens to reach it first (distributed sites use
        this to keep ``site-0..P-1`` above the network lane)."""
        with self._lock:
            self._note_lane(lane)

    def span(self, name: str, lane: str = "engine", **args: Any) -> _SpanHandle:
        """Context manager recording a ``B``/``E`` pair on ``lane``."""
        return _SpanHandle(self, name, lane, args or None)

    def instant(self, name: str, lane: str = "engine", **args: Any) -> None:
        """Record a point event (fault injections, recovery actions...)."""
        self._record("i", name, lane, args or None)

    # -- cross-process ingestion -------------------------------------------

    def drain_events(self) -> List[TraceEvent]:
        """Remove and return the raw buffer (worker-side shipping hook)."""
        with self._lock:
            out, self._events = self._events, []
            return out

    def ingest(self, events: Iterable[TraceEvent], lane: Optional[str] = None) -> None:
        """Merge raw events from another tracer (typically a worker
        process) onto this timeline, optionally rewriting their lane.

        Worker stamps share this tracer's clock base, so they drop into
        place; anything recorded before this tracer's origin clamps to it
        at export time rather than going negative.
        """
        with self._lock:
            for ph, name, evlane, ts, args in events:
                target = lane if lane is not None else evlane
                self._note_lane(target)
                self._events.append((ph, name, target, ts, args))

    # -- queries ------------------------------------------------------------

    def events(self) -> List[TraceEvent]:
        with self._lock:
            return list(self._events)

    def lanes(self) -> List[str]:
        with self._lock:
            return list(self._lanes)

    # -- export -------------------------------------------------------------

    def _export_rows(self) -> List[Dict[str, Any]]:
        """Events as JSON-able dicts with per-lane strictly-increasing µs
        timestamps (ties broken by a sub-µs epsilon, order preserved)."""
        with self._lock:
            events = list(self._events)
            lanes = list(self._lanes)
        tid_of = {lane: i + 1 for i, lane in enumerate(lanes)}
        last_ts: Dict[str, float] = {}
        rows: List[Dict[str, Any]] = []
        for ph, name, lane, ts_ns, args in events:
            ts_us = max(0, ts_ns - self.origin_ns) / 1000.0
            floor = last_ts.get(lane)
            if floor is not None and ts_us <= floor:
                ts_us = floor + _EPSILON_US
            last_ts[lane] = ts_us
            row: Dict[str, Any] = {
                "name": name,
                "ph": ph,
                "ts": ts_us,
                "pid": 1,
                "tid": tid_of[lane],
                "cat": "parulel",
            }
            if ph == "i":
                row["s"] = "t"  # thread-scoped instant
            if args:
                row["args"] = dict(args)
            rows.append(row)
        return rows

    def to_chrome(self) -> Dict[str, Any]:
        """The Chrome trace-event *JSON object format* document."""
        with self._lock:
            lanes = list(self._lanes)
        meta: List[Dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "tid": 0,
                "args": {"name": "parulel"},
            }
        ]
        for i, lane in enumerate(lanes):
            meta.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": i + 1,
                    "args": {"name": lane},
                }
            )
            meta.append(
                {
                    "name": "thread_sort_index",
                    "ph": "M",
                    "pid": 1,
                    "tid": i + 1,
                    "args": {"sort_index": i},
                }
            )
        return {
            "traceEvents": meta + self._export_rows(),
            "displayTimeUnit": "ms",
        }

    def write_chrome(self, path: str) -> None:
        import json

        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_chrome(), fh)

    def write_jsonl(self, path: str) -> None:
        """One event object per line (lane names inline, not tids)."""
        import json

        with self._lock:
            events = list(self._events)
        with open(path, "w", encoding="utf-8") as fh:
            for ph, name, lane, ts_ns, args in events:
                fh.write(
                    json.dumps(
                        {
                            "ph": ph,
                            "name": name,
                            "lane": lane,
                            "ts_us": max(0, ts_ns - self.origin_ns) / 1000.0,
                            "args": args or {},
                        }
                    )
                )
                fh.write("\n")


class PhaseSpan:
    """Measures one engine phase once and fans the measurement out.

    One ``perf_counter`` pair feeds up to four consumers: the engine's
    ``phase_times`` counter (always — it stays populated with tracing
    off; the engine runs its phases on one thread), the tracer (as a
    span named ``name`` on ``lane``, when enabled), the metrics registry
    (as a :data:`PHASE_SECONDS` observation labelled ``phase``, when
    enabled), and the flight recorder (as an ``EV_PHASE`` ring record with
    the duration in nanoseconds, when one is attached).
    """

    __slots__ = (
        "_times", "_tracer", "_metrics", "_name", "_phase", "_lane",
        "_args", "_t0", "_span", "_flightrec", "_flight_cycle", "_flight_code",
    )

    def __init__(
        self,
        times: Counter,
        tracer,
        metrics,
        name: str,
        phase: str,
        lane: str = "engine",
        flightrec=None,
        flight_cycle: int = 0,
        flight_code: int = 0,
        **args: Any,
    ) -> None:
        self._times = times
        self._tracer = tracer
        self._metrics = metrics
        self._name = name
        self._phase = phase
        self._lane = lane
        self._args = args
        self._span = None
        self._flightrec = flightrec
        self._flight_cycle = flight_cycle
        self._flight_code = flight_code

    def __enter__(self) -> "PhaseSpan":
        if self._tracer.enabled:
            self._span = self._tracer.span(self._name, self._lane, **self._args)
            self._span.__enter__()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        elapsed = time.perf_counter() - self._t0
        if self._span is not None:
            self._span.__exit__(*exc)
        self._times[self._phase] += elapsed
        if self._metrics.enabled:
            self._metrics.observe(PHASE_SECONDS, elapsed, phase=self._phase)
        if self._flightrec is not None:
            self._flightrec.record(
                2,  # flightrec.EV_PHASE (literal: obs.trace must stay import-light)
                self._flight_cycle,
                code=self._flight_code,
                a=int(elapsed * 1e9),
            )


class _NullSpan:
    """Reusable no-op context manager (one shared instance, no state)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The zero-cost disabled tracer: every call is a constant no-op."""

    enabled = False

    def declare_lane(self, lane: str) -> None:
        return None

    def span(self, name: str, lane: str = "engine", **args: Any) -> _NullSpan:
        return _NULL_SPAN

    def instant(self, name: str, lane: str = "engine", **args: Any) -> None:
        return None

    def ingest(self, events: Iterable[TraceEvent], lane: Optional[str] = None) -> None:
        return None

    def drain_events(self) -> List[TraceEvent]:
        return []

    def events(self) -> List[TraceEvent]:
        return []

    def lanes(self) -> List[str]:
        return []


#: Shared default instance — engines/backends hold this when tracing is off.
NULL_TRACER = NullTracer()


def validate_chrome_trace(doc: Dict[str, Any]) -> None:
    """Validate a Chrome trace-event document (the shape our exporter and
    the trace-event spec agree on); raise :class:`ValueError` on the first
    violation. Checked properties:

    - top level is an object with a ``traceEvents`` list;
    - every event carries ``name``/``ph``/``pid``/``tid`` (and ``ts`` for
      non-metadata events);
    - per (pid, tid) lane, ``B``/``E`` events pair up like a well-formed
      bracket sequence with matching names;
    - per lane, timestamps are strictly increasing.
    """
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        raise ValueError("trace document must be an object with a 'traceEvents' list")
    stacks: Dict[Tuple[int, int], List[str]] = {}
    last_ts: Dict[Tuple[int, int], float] = {}
    for i, ev in enumerate(doc["traceEvents"]):
        if not isinstance(ev, dict):
            raise ValueError(f"event #{i} is not an object")
        for field in ("name", "ph", "pid", "tid"):
            if field not in ev:
                raise ValueError(f"event #{i} is missing required field {field!r}")
        ph = ev["ph"]
        if ph == "M":
            continue
        if "ts" not in ev:
            raise ValueError(f"event #{i} ({ev['name']!r}) has no 'ts'")
        lane = (ev["pid"], ev["tid"])
        ts = float(ev["ts"])
        if lane in last_ts and ts <= last_ts[lane]:
            raise ValueError(
                f"event #{i} ({ev['name']!r}): ts {ts} not strictly greater "
                f"than previous ts {last_ts[lane]} on lane pid={lane[0]} "
                f"tid={lane[1]}"
            )
        last_ts[lane] = ts
        if ph == "B":
            stacks.setdefault(lane, []).append(ev["name"])
        elif ph == "E":
            stack = stacks.get(lane)
            if not stack:
                raise ValueError(
                    f"event #{i}: 'E' for {ev['name']!r} with no open span "
                    f"on lane pid={lane[0]} tid={lane[1]}"
                )
            opened = stack.pop()
            if opened != ev["name"]:
                raise ValueError(
                    f"event #{i}: 'E' for {ev['name']!r} does not match the "
                    f"open span {opened!r}"
                )
        elif ph not in ("i", "I", "X", "C"):
            raise ValueError(f"event #{i}: unsupported phase {ph!r}")
    for lane, stack in stacks.items():
        if stack:
            raise ValueError(
                f"unclosed span(s) {stack!r} on lane pid={lane[0]} tid={lane[1]}"
            )
