"""Per-layer attribution of one traced execution.

A layer is a module of ``repro``; ``_s`` metrics are seconds, bare names
exact counts. Every span's *self time* (its duration minus its child
spans') goes to exactly one row of :data:`PARTITION`, so the rows sum to
the traced wall time, with ``cli.unattributed_s`` — the self time of
``cli.main`` and of the root — as the explicit remainder. All stamps are
``time.monotonic()`` readings, the clock of the end-to-end metrics. A few
rows depend on where the span ran: store writes and matcher listeners
count as load before ``ParulelEngine.run`` and as run inside it, and
store writes under ``MetaLevel.redact`` are reification.
"""

from __future__ import annotations

import re
import statistics
from typing import Dict, List, Sequence

from .spans import Span

__all__ = ["PARTITION", "PER_LAYER", "TraceError", "attribute", "with_root"]

#: span name -> row, for spans whose row does not depend on context.
_ROW = {
    "root": "cli.unattributed_s",
    "cli.main": "cli.unattributed_s",
    "cli.startup": "cli.startup_s",
    "cli.import": "cli.import_s",
    "cli.exit": "cli.exit_s",
    "trace.install": "cli.trace_self_s",
    "trace.write": "cli.trace_self_s",
    "trace.probe": "cli.trace_self_s",
    "cli.parse_program": "lang.parse_s",
    "cli.analyze_program": "lang.parse_s",
    "cli.parse_facts": "wm.io.parse_facts_s",
    "cli.dump_wm_text": "wm.io.dump_s",
    "engine.__init__": "core.engine.build_s",
    "create_matcher": "match.build_s",
    "pool.__init__": "parallel.process.spawn_s",
    "engine.make": "core.engine.load_s",
    "pool.listener": "parallel.process.record_s",
    "match.instantiations": "match.collect_s",
    "pool.conflict_set": "match.collect_s",
    "meta.instantiations": "core.redaction.meta_match_s",
    "redaction.redact": "core.redaction.self_s",
    "actions.evaluate": "core.actions.evaluate_s",
    "delta.merge": "core.delta.merge_s",
    "flightrec.record": "obs.flightrec.record_s",
    "engine.run": "core.engine.loop_self_s",
    "engine.step": "core.engine.loop_self_s",
    "engine.close": "core.engine.close_s",
    "pool.close": "parallel.process.close_s",
}

#: The rows that partition the traced wall time, in pipeline order.
PARTITION = (
    "cli.startup_s", "cli.import_s", "lang.parse_s", "wm.io.parse_facts_s",
    "core.engine.build_s", "match.build_s", "parallel.process.spawn_s",
    "core.engine.load_s", "wm.store.load_s", "match.maintain_load_s",
    "parallel.process.record_s", "match.maintain_run_s", "match.collect_s",
    "core.redaction.self_s", "core.redaction.reify_s",
    "core.redaction.meta_match_s", "core.actions.evaluate_s",
    "core.delta.merge_s", "wm.store.run_s", "obs.flightrec.record_s",
    "core.engine.loop_self_s", "wm.io.dump_s", "core.engine.close_s",
    "parallel.process.close_s", "cli.exit_s", "cli.trace_self_s",
    "cli.unattributed_s",
)

#: Every per-layer metric and its unit: the partition, then sums and
#: differences of its rows, then counts and worker-side numbers.
PER_LAYER: Dict[str, str] = {
    **{row: "s" for row in PARTITION},
    "cli.traced_wall_s": "s",
    "cli.teardown_s": "s",
    "cli.trace_overhead_ratio": "ratio",
    "core.redaction.redact_s": "s",
    "parallel.process.wait_s": "s",
    "parallel.process.worker_busy_max_s": "s",
    "parallel.process.worker_busy_sum_s": "s",
    "parallel.process.worker_cpu_s": "s",
    "parallel.process.worker_peak_rss_mb": "MiB",
    "parallel.process.ipc_bytes": "B",
    "parallel.process.ipc_messages": "count",
    "wm.columnar.shm_mb": "MiB",
    "wm.columnar.leaked_segments": "count",
    "lang.rules": "count",
    "wm.io.facts": "count",
    "match.join_ops": "count",
    "match.hash_probes": "count",
    "match.tokens": "count",
    "match.instantiations": "count",
    "core.redaction.candidates": "count",
    "core.redaction.redacted": "count",
    "core.redaction.meta_cycles": "count",
    "core.actions.firings": "count",
    "wm.store.makes": "count",
    "wm.store.removes": "count",
    "obs.flightrec.records": "count",
    "core.engine.cycles": "count",
    "core.engine.cycle_p50_ms": "ms",
    "core.engine.cycle_max_ms": "ms",
}


class TraceError(Exception):
    """A trace invariant does not hold (unclosed or badly nested span,
    rows not summing to wall time, too much unattributed)."""


def with_root(
    spans: Sequence[Span], popen: float, reaped: float,
    at: Dict[str, float],
) -> List[Span]:
    """The child's spans under one root ``[popen, reaped]``, with the
    launcher's stamps ``at`` turned into the top-level spans around
    ``main``."""
    out = [
        Span("root", popen, reaped, -1),
        Span("cli.startup", popen, at["start"], 0),
        Span("cli.import", at["start"], at["imported"], 0),
        Span("trace.install", at["imported"], at["installed"], 0),
        Span("cli.main", at["main_enter"], at["main_exit"], 0),
        Span("trace.write", at["main_exit"], at["spans_written"], 0),
        Span("cli.exit", at["spans_written"], reaped, 0),
    ]
    main = 4
    shift = len(out)
    out.extend(
        s._replace(parent=main if s.parent < 0 else s.parent + shift)
        for s in spans
    )
    return out


def _self_times(spans: Sequence[Span]) -> List[float]:
    """Self time per span; raises unless every span is closed and lies
    inside its parent after its previous sibling."""
    self_s = [s.end - s.start for s in spans]
    cursor = [s.start for s in spans]  # end of the last child seen
    for i, s in enumerate(spans):
        if s.end < s.start:
            raise TraceError(f"span {i} ({s.name}) was never closed")
        if s.parent < 0:
            continue
        if s.parent >= i:
            raise TraceError(f"span {i} ({s.name}) precedes its parent")
        p = spans[s.parent]
        if s.start < cursor[s.parent] or s.end > p.end:
            raise TraceError(
                f"span {i} ({s.name}) is not nested in its parent "
                f"{s.parent} ({p.name}) after its siblings"
            )
        cursor[s.parent] = s.end
        self_s[s.parent] -= s.end - s.start
    return self_s


def _stats_counts(stderr: str) -> Dict[str, int]:
    """The ``--stats`` line ``match: MatchStats(a=1, b=2, ...)``."""
    found = re.search(r"match: MatchStats\((.*)\)", stderr)
    pairs = re.findall(r"(\w+)=(\d+)", found.group(1)) if found else []
    return {k: int(v) for k, v in pairs}


def _worker_busy(blackbox_path: str) -> List[Dict[int, float]]:
    """Per cycle, each site's match-request -> reply window in seconds,
    from the worker flight rings (stamped with ``perf_counter_ns``, on
    Linux the clock ``time.monotonic`` reads)."""
    from repro.obs.blackbox import load_blackbox
    from repro.obs.flightrec import EV_MATCH_REPLY, EV_MATCH_REQ

    cycles: Dict[int, Dict[int, float]] = {}
    for ring in load_blackbox(blackbox_path).rings:
        if ring.site < 0:
            continue
        requested = None
        for rec in ring.records:
            if rec["kind"] == EV_MATCH_REQ:
                requested = rec["ts_ns"]
            elif rec["kind"] == EV_MATCH_REPLY and requested is not None:
                cycles.setdefault(rec["cycle"], {})[ring.site] = (
                    rec["ts_ns"] - requested
                ) / 1e9
                requested = None
    return [cycles[c] for c in sorted(cycles)]


def attribute(
    spans: Sequence[Span],
    *,
    stderr: str,
    metrics: Dict,
    side: Dict,
    blackbox_path: str,
    n_rules: int,
    n_facts: int,
    leaked_segments: int,
    untraced_wall_s: float,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced execution. ``spans``
    come from :func:`with_root`; ``metrics`` is the ``--metrics-out``
    snapshot, ``side`` the launcher's side file and ``untraced_wall_s``
    the wall time of an untraced execution of the same workload."""
    self_s = _self_times(spans)
    rows = dict.fromkeys(PARTITION, 0.0)
    in_run = [False] * len(spans)
    in_redact = [False] * len(spans)
    redact_s = 0.0
    steps: List[float] = []
    records = 0
    for i, s in enumerate(spans):
        if s.parent >= 0:
            in_run[i] = in_run[s.parent] or spans[s.parent].name == "engine.run"
            in_redact[i] = (
                in_redact[s.parent] or spans[s.parent].name == "redaction.redact"
            )
        if s.name in ("wm.make", "wm.remove"):
            row = (
                "core.redaction.reify_s" if in_redact[i]
                else "wm.store.run_s" if in_run[i]
                else "wm.store.load_s"
            )
        elif s.name == "match.listener":
            row = "match.maintain_run_s" if in_run[i] else "match.maintain_load_s"
        elif s.name == "meta.listener":
            row = (
                "core.redaction.meta_match_s" if in_run[i]
                else "match.maintain_load_s"
            )
        else:
            row = _ROW[s.name]
        rows[row] += self_s[i]
        if s.name == "redaction.redact":
            redact_s += s.end - s.start
        elif s.name == "engine.step":
            steps.append((s.end - s.start) * 1e3)
        elif s.name == "flightrec.record":
            records += 1

    wall = spans[0].end - spans[0].start
    if abs(sum(rows.values()) - wall) > 1e-6:
        raise TraceError(
            f"rows sum to {sum(rows.values()):.6f}s, traced wall is {wall:.6f}s"
        )
    if rows["cli.unattributed_s"] > 0.10 * wall:
        raise TraceError(
            f"cli.unattributed_s is {rows['cli.unattributed_s'] / wall:.1%} "
            f"of the traced wall"
        )

    counters = metrics["counters"]

    def counter(name: str) -> float:
        return sum(
            v for k, v in counters.items()
            if k == name or k.startswith(name + "{")
        )

    stats = _stats_counts(stderr)
    busy = _worker_busy(blackbox_path) if "pool.close" in {
        s.name for s in spans
    } else []
    busy_max = sum(max(c.values()) for c in busy)
    out: Dict[str, float] = dict(rows)
    out.update({
        "cli.traced_wall_s": wall,
        "cli.teardown_s": rows["wm.io.dump_s"] + rows["core.engine.close_s"]
        + rows["parallel.process.close_s"] + rows["cli.exit_s"],
        "cli.trace_overhead_ratio": wall / untraced_wall_s - 1.0,
        "core.redaction.redact_s": redact_s,
        "parallel.process.wait_s": (
            rows["match.collect_s"] - busy_max if busy else 0.0
        ),
        "parallel.process.worker_busy_max_s": busy_max,
        "parallel.process.worker_busy_sum_s": sum(
            sum(c.values()) for c in busy
        ),
        "parallel.process.worker_cpu_s": side["children"]["cpu_s"],
        "parallel.process.worker_peak_rss_mb": side["children"]["maxrss_kb"] / 1024,
        "parallel.process.ipc_bytes": counter("parulel_ipc_bytes_total"),
        "parallel.process.ipc_messages": counter("parulel_ipc_messages_total"),
        "wm.columnar.shm_mb": side["extra"]["shm_bytes"] / 2**20,
        "wm.columnar.leaked_segments": leaked_segments,
        "lang.rules": n_rules,
        "wm.io.facts": n_facts,
        "match.join_ops": stats.get("join_probes", 0) + stats.get("join_checks", 0),
        "match.hash_probes": stats.get("hash_probes", 0),
        "match.tokens": stats.get("tokens", 0),
        "match.instantiations": stats.get("instantiations", 0),
        "core.redaction.candidates": counter("parulel_candidates_total"),
        "core.redaction.redacted": counter("parulel_redacted_total"),
        "core.redaction.meta_cycles": counter("parulel_meta_cycles_total"),
        "core.actions.firings": counter("parulel_firings_total"),
        "wm.store.makes": counter("parulel_delta_makes_total"),
        "wm.store.removes": counter("parulel_delta_removes_total"),
        "obs.flightrec.records": records,
        "core.engine.cycles": counter("parulel_cycles_total"),
        # Over every ParulelEngine.step call, the last (quiescent) included.
        "core.engine.cycle_p50_ms": statistics.median(steps),
        "core.engine.cycle_max_ms": max(steps),
    })
    if out.keys() != PER_LAYER.keys():
        raise TraceError(f"metric names drifted: {out.keys() ^ PER_LAYER.keys()}")
    return out
