"""Per-rule profiling: the hot-rule table.

The engine and match backends publish per-rule series into a
:class:`~repro.obs.metrics.MetricsRegistry` (see the metric catalog in
``docs/OBSERVABILITY.md``); this module folds them into one table per
rule — match time where the backend can attribute it (process workers,
the threaded pool), RHS evaluation time,
candidate counts, firings, and redactions — sorted hottest first. This
is the artifact ``parulel profile`` prints, and the answer to "which rule
should the next optimization PR attack". Meta-rules follow the object
rules, each with the join work :attr:`MetaLevel.stats
<repro.core.redaction.MetaLevel.stats>` counted for it.

Two more lines of ``parulel profile`` come from here: the process pool's
per-site busy seconds (:func:`site_busy_line` — how evenly the sites'
shares of the rules came out) and the cyclic collector's passes and
seconds per generation (:class:`CollectorLog`), time no phase owns.
"""

from __future__ import annotations

import gc
import time
from typing import TYPE_CHECKING, Dict, List, Optional

from repro._record import Record
from repro.match.stats import MatchStats
from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:
    from repro.obs.report import Table

__all__ = [
    "CollectorLog",
    "RuleProfile",
    "hot_rule_table",
    "rule_profiles",
    "site_busy_line",
]

#: Metric names the profiler consumes (kept in one place so the engine,
#: backends, docs, and tests agree).
RULE_CANDIDATES = "parulel_rule_candidates_total"
RULE_FIRINGS = "parulel_rule_firings_total"
RULE_REDACTIONS = "parulel_rule_redactions_total"
RULE_EVAL_SECONDS = "parulel_rule_eval_seconds"
RULE_MATCH_SECONDS = "parulel_rule_match_seconds"
#: Per-op match-kernel work counters (``op`` label = a
#: :data:`repro.match.stats.COUNTER_NAMES` entry), exported by the engine
#: as per-cycle deltas of the matcher's MatchStats totals.
MATCH_OPS = "parulel_match_ops_total"
#: Rows the vectorized probe kernel scanned column-natively (``site``
#: label), and probes that left the packed-key path for decoded
#: comparison — the scan-vs-decode attribution the skew reports read.
VECTOR_SCAN_ROWS = "parulel_vector_scan_rows_total"
VECTOR_PROBE_FALLBACK = "parulel_vector_probe_fallback_total"
#: Gauges exported by ``parulel blackbox report``
#: (:func:`repro.obs.blackbox.skew_report`): a site's mean per-cycle busy
#: time over the all-site mean, and a rule's share of total attributed
#: time — the skew signal the adaptive-scheduling roadmap item consumes.
SITE_SKEW_RATIO = "parulel_site_skew_ratio"
RULE_TIME_SHARE = "parulel_rule_time_share"
#: Seconds each process-pool site spent on match requests (``site``
#: label): in a worker from taking the request off the pipe to handing
#: the reply over.
SITE_BUSY_SECONDS = "parulel_site_busy_seconds_total"


class RuleProfile(Record):
    """Aggregated per-rule observations for one run."""

    __slots__ = (
        "rule", "candidates", "fired", "redacted", "eval_seconds",
        "match_seconds", "sites",
    )

    def __init__(
        self,
        rule: str,
        candidates: int = 0,
        fired: int = 0,
        redacted: int = 0,
        eval_seconds: float = 0.0,
        match_seconds: Optional[float] = None,
        sites: Optional[List[str]] = None,
    ) -> None:
        self.rule = rule
        self.candidates = candidates
        self.fired = fired
        self.redacted = redacted
        self.eval_seconds = eval_seconds
        #: ``None`` when no backend attributed match time to this rule (the
        #: incremental RETE/TREAT engines cannot split their network work per
        #: rule; the process/threaded/naive paths can).
        self.match_seconds = match_seconds
        self.sites = [] if sites is None else sites

    @property
    def total_seconds(self) -> float:
        return (self.match_seconds or 0.0) + self.eval_seconds


def _rule_of(labels) -> Optional[str]:
    return dict(labels).get("rule")


def rule_profiles(metrics: MetricsRegistry) -> List[RuleProfile]:
    """Fold the registry's per-rule series into :class:`RuleProfile`\\ s,
    hottest (most attributed time, then most candidates) first."""
    profiles: Dict[str, RuleProfile] = {}

    def get(rule: str) -> RuleProfile:
        profile = profiles.get(rule)
        if profile is None:
            profile = profiles[rule] = RuleProfile(rule)
        return profile

    for labels, value in metrics.series(RULE_CANDIDATES).items():
        rule = _rule_of(labels)
        if rule is not None:
            get(rule).candidates += int(value)
    for labels, value in metrics.series(RULE_FIRINGS).items():
        rule = _rule_of(labels)
        if rule is not None:
            get(rule).fired += int(value)
    for labels, value in metrics.series(RULE_REDACTIONS).items():
        rule = _rule_of(labels)
        if rule is not None:
            get(rule).redacted += int(value)
    for labels, summary in metrics.histogram_series(RULE_EVAL_SECONDS).items():
        rule = _rule_of(labels)
        if rule is not None:
            get(rule).eval_seconds += summary["sum"]
    for labels, summary in metrics.histogram_series(RULE_MATCH_SECONDS).items():
        rule = _rule_of(labels)
        if rule is None:
            continue
        profile = get(rule)
        profile.match_seconds = (profile.match_seconds or 0.0) + summary["sum"]
        site = dict(labels).get("site")
        if site is not None and site not in profile.sites:
            profile.sites.append(site)
    return sorted(
        profiles.values(),
        key=lambda p: (-p.total_seconds, -p.candidates, p.rule),
    )


#: The meta-level join counters the hot-rule table lists per meta-rule.
META_JOIN_COUNTERS = ("join_probes", "tokens", "instantiations")


def hot_rule_table(
    metrics: MetricsRegistry,
    top: Optional[int] = None,
    meta_stats: Optional[MatchStats] = None,
) -> Table:
    """The hot-rule table (times in ms; ``-`` where a backend could not
    attribute match time per rule).

    With ``meta_stats`` (a meta level's join counters) that list any
    meta-rule, three count columns are added and one row per meta-rule
    follows the object rules, most join probes first; ``top`` limits the
    object rules only.
    """
    from repro.obs.report import Table

    meta = meta_stats.per_rule if meta_stats is not None else {}
    headers = ("rule", "match_ms", "eval_ms", "candidates", "fired", "redacted")
    table = Table(
        "hot rules (most attributed time first)",
        headers + META_JOIN_COUNTERS if meta else headers,
        precision=3,
    )
    rows = rule_profiles(metrics)
    if top is not None:
        rows = rows[:top]
    blank = (None,) * len(META_JOIN_COUNTERS) if meta else ()
    for p in rows:
        table.add(
            p.rule,
            None if p.match_seconds is None else p.match_seconds * 1000.0,
            p.eval_seconds * 1000.0,
            p.candidates,
            p.fired,
            p.redacted,
            *blank,
        )
    for rule in sorted(meta, key=lambda r: (-meta[r]["join_probes"], r)):
        table.add(
            rule,
            *(None,) * (len(headers) - 1),
            *(meta[rule][c] for c in META_JOIN_COUNTERS),
        )
    return table


def site_busy_line(metrics: MetricsRegistry) -> Optional[str]:
    """One line on how the process pool's match work fell across its
    sites — each site's busy seconds and share of their sum, and the
    largest over the sum (1/k when k sites are level, 1.0 when one did
    everything) — or ``None`` for a run that had no pool."""
    busy = {
        int(dict(labels)["site"]): seconds
        for labels, seconds in metrics.series(SITE_BUSY_SECONDS).items()
    }
    total = sum(busy.values())
    if not total:
        return None
    sites = ", ".join(
        f"site {site} {busy[site]:.3f} s ({busy[site] / total:.1%})"
        for site in sorted(busy)
    )
    return (
        f"sites: busy-max {max(busy.values()):.3f} s of busy-sum {total:.3f} s "
        f"({max(busy.values()) / total:.2f}); {sites}"
    )


class CollectorLog:
    """A ``gc.callbacks`` hook counting the cyclic collector's passes and
    seconds per generation between :meth:`install` and :meth:`remove` —
    in this process only, and installed by ``parulel profile`` only (a
    callback costs every pass two Python calls)."""

    def __init__(self) -> None:
        self.passes = [0, 0, 0]
        self.seconds = [0.0, 0.0, 0.0]
        self._t0 = 0.0

    def __call__(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._t0 = time.perf_counter()
        else:
            generation = info["generation"]
            self.passes[generation] += 1
            self.seconds[generation] += time.perf_counter() - self._t0

    def install(self) -> None:
        gc.callbacks.append(self)

    def remove(self) -> None:
        gc.callbacks.remove(self)

    def line(self) -> str:
        per_generation = ", ".join(
            f"gen{g} {n} / {secs * 1000:.1f} ms"
            for g, (n, secs) in enumerate(zip(self.passes, self.seconds))
        )
        return (
            f"collector: {sum(self.passes)} passes, "
            f"{sum(self.seconds) * 1000:.1f} ms ({per_generation})"
        )
