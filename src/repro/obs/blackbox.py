"""Decode ``*.blackbox`` flight-recorder dumps: timelines, skew, diffs.

A dump (written by :meth:`repro.obs.flightrec.FlightRecorder.dump`) is a
JSON header plus the raw bytes of every ring the recorder owned. This
module turns that into:

- :func:`load_blackbox` — parse and sequence-check every ring,
- :meth:`Blackbox.timeline` — one merged, timestamp-ordered causal
  timeline across the engine and all worker rings,
- :func:`skew_report` — per-site busy-time skew and per-rule time share
  with p50/p95 cycle-phase percentiles, exportable into a
  :class:`~repro.obs.metrics.MetricsRegistry` as the
  ``parulel_site_skew_ratio`` / ``parulel_rule_time_share`` gauges the
  future adaptive scheduler consumes,
- :func:`diff_blackbox` — first diverging event between two recordings,
  comparing only deterministic projections (rule/cycle/count fields,
  never wall-clock durations), so two same-seed runs diff clean and a
  seeded fault run pinpoints exactly where byte-identity broke.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import BlackboxCorruptError
from repro.obs.flightrec import (
    BLACKBOX_MAGIC,
    EV_ATTACH,
    EV_CHECKPOINT,
    EV_CHURN,
    EV_CYCLE,
    EV_DUMP,
    EV_FAULT,
    EV_FIRE,
    EV_HALT,
    EV_MATCH_REPLY,
    EV_MATCH_REQ,
    EV_PHASE,
    EV_REDACT,
    EV_RULE_BEGIN,
    EV_RULE_END,
    EV_VECTOR_SCAN,
    EV_WORKER_EXIT,
    EV_WORKER_START,
    KIND_NAMES,
    decode_ring,
)

from repro.obs.profile import RULE_TIME_SHARE, SITE_SKEW_RATIO

__all__ = [
    "Blackbox",
    "DiffResult",
    "RingDump",
    "diff_blackbox",
    "load_blackbox",
    "skew_report",
]


@dataclass
class RingDump:
    """One decoded ring."""

    site: int
    name: Optional[str]
    capacity: int
    seq: int
    dropped: int
    torn: int
    records: List[Dict[str, int]] = field(default_factory=list)


class Blackbox:
    """A parsed dump: header metadata plus every decoded ring."""

    def __init__(self, header: Dict[str, Any], rings: List[RingDump]) -> None:
        self.header = header
        self.rings = rings
        manifest = header.get("manifest", {})
        self.rules: List[str] = list(manifest.get("rules", []))
        self.strings: List[str] = list(manifest.get("strings", []))
        self.phases: List[str] = list(manifest.get("phases", []))

    # -- lookups ----------------------------------------------------------

    @property
    def reason(self) -> str:
        return str(self.header.get("reason", ""))

    def ring(self, site: int) -> Optional[RingDump]:
        for r in self.rings:
            if r.site == site:
                return r
        return None

    @property
    def main(self) -> Optional[RingDump]:
        return self.ring(-1)

    def rule_name(self, code: int) -> str:
        if 0 <= code < len(self.rules):
            return self.rules[code]
        return f"rule#{code}"

    def string(self, code: int) -> str:
        if 0 <= code < len(self.strings):
            return self.strings[code]
        return f"str#{code}"

    def phase_name(self, code: int) -> str:
        if 0 <= code < len(self.phases):
            return self.phases[code]
        return f"phase#{code}"

    # -- rendering --------------------------------------------------------

    def describe(self, rec: Dict[str, int]) -> str:
        """One human line for a record (without the timestamp column)."""
        kind, code, a, b = rec["kind"], rec["code"], rec["a"], rec["b"]
        if kind == EV_CYCLE:
            return f"cycle {rec['cycle']} done: fired={a} conflict_set={b}"
        if kind == EV_PHASE:
            return f"phase {self.phase_name(code)} {a / 1e6:.3f}ms"
        if kind == EV_FIRE:
            return f"fire {self.rule_name(code)} ×{b} ({a / 1e6:.3f}ms)"
        if kind == EV_REDACT:
            return f"redact: candidates={a} redacted={b}"
        if kind == EV_CHURN:
            return f"churn: fired-dropped={a} candidates={b}"
        if kind == EV_CHECKPOINT:
            return f"checkpoint ({'full' if code == 0 else 'delta'})"
        if kind == EV_FAULT:
            return f"fault {self.string(code)} site={a}"
        if kind == EV_HALT:
            return "halt"
        if kind == EV_DUMP:
            return f"dump: {self.string(code)}"
        if kind == EV_WORKER_START:
            return f"worker up (pid {a})"
        if kind == EV_WORKER_EXIT:
            return "worker stop"
        if kind == EV_MATCH_REQ:
            return "match request (shm refresh)" if a < 0 else f"match request ({a} deltas)"
        if kind == EV_RULE_BEGIN:
            return f"matching {self.rule_name(code)}"
        if kind == EV_RULE_END:
            return f"matched {self.rule_name(code)}: {a} inst"
        if kind == EV_MATCH_REPLY:
            return f"reply ({a} summaries)"
        if kind == EV_ATTACH:
            return "attach"
        if kind == EV_VECTOR_SCAN:
            return (
                f"vector scan: {a} rows, {b} materialized, "
                f"{code} fallback probe(s)"
            )
        return f"{KIND_NAMES.get(kind, f'kind#{kind}')} code={code} a={a} b={b}"

    # -- timeline ---------------------------------------------------------

    def timeline(self) -> List[Tuple[int, int, Dict[str, int]]]:
        """All records from all rings merged by timestamp: a list of
        ``(ts_ns, effective_site, record)`` tuples. The effective site is
        the record's own site tag when set, else the ring's."""
        merged: List[Tuple[int, int, Dict[str, int]]] = []
        for ring in self.rings:
            for rec in ring.records:
                site = rec["site"] if rec["site"] >= 0 else ring.site
                merged.append((rec["ts_ns"], site, rec))
        merged.sort(key=lambda t: (t[0], t[1]))
        return merged

    def last_in_flight(self, site: int) -> Optional[Tuple[str, bool]]:
        """The last rule a site was matching: ``(rule name, completed)``
        from the newest ``rule-begin`` record in the site's ring (its own
        or site-tagged engine-ring records), or ``None`` if the site never
        began matching a rule. ``completed`` is False when no matching
        ``rule-end`` follows — the worker died mid-rule."""
        best: Optional[Dict[str, int]] = None
        ended = False
        for ring in self.rings:
            for rec in ring.records:
                rsite = rec["site"] if rec["site"] >= 0 else ring.site
                if rsite != site:
                    continue
                if rec["kind"] == EV_RULE_BEGIN:
                    if best is None or rec["ts_ns"] >= best["ts_ns"]:
                        best = rec
                        ended = False
                elif rec["kind"] == EV_RULE_END and best is not None:
                    if rec["code"] == best["code"] and rec["ts_ns"] >= best["ts_ns"]:
                        ended = True
        if best is None:
            return None
        return self.rule_name(best["code"]), ended


def load_blackbox(path: str) -> Blackbox:
    """Parse a ``*.blackbox`` file, raising
    :class:`~repro.errors.BlackboxCorruptError` on any framing, header or
    ring-structure damage (torn *records* are tolerated and counted)."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise BlackboxCorruptError(f"cannot read blackbox {path!r}: {exc}") from exc
    if len(raw) < len(BLACKBOX_MAGIC) + 8 or not raw.startswith(BLACKBOX_MAGIC):
        raise BlackboxCorruptError(f"{path!r} is not a blackbox dump (bad magic)")
    (hlen,) = struct.unpack_from("<Q", raw, len(BLACKBOX_MAGIC))
    off = len(BLACKBOX_MAGIC) + 8
    if off + hlen > len(raw):
        raise BlackboxCorruptError(f"{path!r}: truncated header")
    try:
        header = json.loads(raw[off:off + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BlackboxCorruptError(f"{path!r}: corrupt header JSON: {exc}") from exc
    off += hlen
    rings: List[RingDump] = []
    for entry in header.get("rings", []):
        length = int(entry.get("length", 0))
        blob = raw[off:off + length]
        if len(blob) != length:
            raise BlackboxCorruptError(f"{path!r}: truncated ring blob")
        off += length
        try:
            decoded = decode_ring(blob)
        except ValueError as exc:
            raise BlackboxCorruptError(f"{path!r}: {exc}") from exc
        rings.append(
            RingDump(
                site=int(entry.get("site", decoded["site"])),
                name=entry.get("name"),
                capacity=decoded["capacity"],
                seq=decoded["seq"],
                dropped=decoded["dropped"],
                torn=decoded["torn"],
                records=decoded["records"],
            )
        )
    return Blackbox(header, rings)


# -- skew analytics -----------------------------------------------------------


def _percentile(sorted_vals: Sequence[float], q: float) -> float:
    if not sorted_vals:
        return 0.0
    if len(sorted_vals) == 1:
        return sorted_vals[0]
    pos = q * (len(sorted_vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    frac = pos - lo
    return sorted_vals[lo] * (1 - frac) + sorted_vals[hi] * frac


def skew_report(bb: Blackbox, registry: Any = None) -> Dict[str, Any]:
    """Per-site / per-rule skew analytics over one recording.

    - ``phases``: p50/p95/mean/max duration (seconds) per engine phase,
      from the main ring's ``phase`` records.
    - ``sites``: per worker site, busy seconds (match-request→reply),
      cycles served, mean busy per cycle, and ``skew_ratio`` — the site's
      mean busy time over the all-site mean (1.0 = perfectly balanced).
      Sites running the vectorized probe kernel additionally report
      ``vector_scan_rows`` / ``vector_materialized`` /
      ``vector_fallback_probes`` totals, so match time can be attributed
      to column scanning vs WME decoding.
    - ``rules``: per rule, total evaluation + match nanoseconds and
      ``share`` of the all-rule total.

    When ``registry`` (a MetricsRegistry) is given, exports
    ``parulel_site_skew_ratio{site=...}`` and
    ``parulel_rule_time_share{rule=...}`` gauges.
    """
    phase_durs: Dict[str, List[float]] = {}
    rule_ns: Dict[str, int] = {}
    main = bb.main
    if main is not None:
        for rec in main.records:
            if rec["kind"] == EV_PHASE:
                phase_durs.setdefault(bb.phase_name(rec["code"]), []).append(
                    rec["a"] / 1e9
                )
            elif rec["kind"] == EV_FIRE:
                name = bb.rule_name(rec["code"])
                rule_ns[name] = rule_ns.get(name, 0) + max(rec["a"], 0)

    # Worker-side busy windows: request→reply per cycle, plus per-rule
    # match time from rule-begin→rule-end/next-record deltas.
    site_busy: Dict[int, List[float]] = {}
    site_vector: Dict[int, Dict[str, int]] = {}
    for ring in bb.rings:
        if ring.site < 0:
            continue
        req_ts: Optional[int] = None
        begin: Optional[Dict[str, int]] = None
        for rec in ring.records:
            kind = rec["kind"]
            if kind == EV_VECTOR_SCAN:
                vec = site_vector.setdefault(
                    ring.site,
                    {
                        "vector_scan_rows": 0,
                        "vector_materialized": 0,
                        "vector_fallback_probes": 0,
                    },
                )
                vec["vector_scan_rows"] += max(rec["a"], 0)
                vec["vector_materialized"] += max(rec["b"], 0)
                vec["vector_fallback_probes"] += max(rec["code"], 0)
                continue
            if begin is not None and kind in (EV_RULE_END, EV_RULE_BEGIN, EV_MATCH_REPLY):
                name = bb.rule_name(begin["code"])
                rule_ns[name] = rule_ns.get(name, 0) + max(
                    rec["ts_ns"] - begin["ts_ns"], 0
                )
                begin = None
            if kind == EV_MATCH_REQ:
                req_ts = rec["ts_ns"]
            elif kind == EV_RULE_BEGIN:
                begin = rec
            elif kind == EV_MATCH_REPLY and req_ts is not None:
                site_busy.setdefault(ring.site, []).append(
                    max(rec["ts_ns"] - req_ts, 0) / 1e9
                )
                req_ts = None

    # Threaded pools tag engine-ring records with a site instead of
    # writing a separate ring; fold those in the same way.
    if main is not None:
        req_by_site: Dict[int, int] = {}
        for rec in main.records:
            site = rec["site"]
            if site < 0:
                continue
            if rec["kind"] == EV_MATCH_REQ:
                req_by_site[site] = rec["ts_ns"]
            elif rec["kind"] == EV_MATCH_REPLY and site in req_by_site:
                site_busy.setdefault(site, []).append(
                    max(rec["ts_ns"] - req_by_site.pop(site), 0) / 1e9
                )

    phases = {
        name: {
            "n": len(vals),
            "p50": _percentile(sorted(vals), 0.50),
            "p95": _percentile(sorted(vals), 0.95),
            "mean": sum(vals) / len(vals),
            "max": max(vals),
        }
        for name, vals in phase_durs.items()
        if vals
    }

    site_mean = {
        site: (sum(vals) / len(vals)) for site, vals in site_busy.items() if vals
    }
    overall = (sum(site_mean.values()) / len(site_mean)) if site_mean else 0.0
    sites = {
        site: {
            "cycles": len(site_busy[site]),
            "busy_s": sum(site_busy[site]),
            "mean_busy_s": mean,
            "skew_ratio": (mean / overall) if overall > 0 else 1.0,
            **site_vector.get(site, {}),
        }
        for site, mean in sorted(site_mean.items())
    }

    total_rule_ns = sum(rule_ns.values())
    rules = {
        name: {
            "total_ns": ns,
            "share": (ns / total_rule_ns) if total_rule_ns else 0.0,
        }
        for name, ns in sorted(rule_ns.items(), key=lambda kv: -kv[1])
    }

    report = {
        "reason": bb.reason,
        "phases": phases,
        "sites": sites,
        "rules": rules,
        "rings": [
            {
                "site": r.site,
                "records": len(r.records),
                "dropped": r.dropped,
                "torn": r.torn,
            }
            for r in bb.rings
        ],
    }
    if registry is not None:
        for site, stats in sites.items():
            registry.set_gauge(SITE_SKEW_RATIO, stats["skew_ratio"], site=str(site))
        for name, stats in rules.items():
            registry.set_gauge(RULE_TIME_SHARE, stats["share"], rule=name)
    return report


# -- diffing ------------------------------------------------------------------


@dataclass
class DiffResult:
    """The first diverging event between two recordings."""

    index: int
    left: Optional[Dict[str, int]]
    right: Optional[Dict[str, int]]
    left_text: str
    right_text: str


def _projection(rec: Dict[str, int]) -> Tuple[int, ...]:
    """The deterministic shadow of a record: everything except wall-clock
    durations and timestamps, which legitimately differ across runs."""
    kind = rec["kind"]
    if kind == EV_PHASE:
        return (kind, rec["cycle"], rec["code"])
    if kind == EV_FIRE:
        return (kind, rec["cycle"], rec["code"], rec["b"])
    if kind == EV_DUMP:
        return (kind,)
    return (kind, rec["cycle"], rec["code"], rec["a"], rec["b"])


def diff_blackbox(left: Blackbox, right: Blackbox) -> Optional[DiffResult]:
    """First diverging engine-ring event between two recordings, or
    ``None`` when their deterministic projections are identical. Worker
    rings are excluded — scheduling jitter legitimately reorders them; the
    engine ring is the canonical, deterministically ordered record."""
    lmain, rmain = left.main, right.main
    lrecs = lmain.records if lmain else []
    rrecs = rmain.records if rmain else []
    for i in range(max(len(lrecs), len(rrecs))):
        lrec = lrecs[i] if i < len(lrecs) else None
        rrec = rrecs[i] if i < len(rrecs) else None
        lproj = _projection(lrec) if lrec else None
        rproj = _projection(rrec) if rrec else None
        if lproj != rproj:
            return DiffResult(
                index=i,
                left=lrec,
                right=rrec,
                left_text=left.describe(lrec) if lrec else "<end of recording>",
                right_text=right.describe(rrec) if rrec else "<end of recording>",
            )
    return None
