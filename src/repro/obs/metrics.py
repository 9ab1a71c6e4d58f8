"""Counters, gauges and histograms with JSON and Prometheus exposition.

A :class:`MetricsRegistry` is a thread-safe bag of labelled series:

- **counters** — monotonically increasing floats (``inc``),
- **gauges** — last-write-wins floats (``set_gauge``),
- **histograms** — observation series (``observe``) that expose count,
  sum, min/max, p50/p95 percentiles, and Prometheus cumulative buckets.

Series identity is ``(name, sorted(labels))``, so
``inc("parulel_rule_firings_total", rule="tc-extend")`` and the same call
with a different rule are distinct series of one metric — exactly the
Prometheus data model.

Cross-process story: worker processes keep their own registry, ship
:meth:`MetricsRegistry.dump` (a picklable dict) back with their results,
and the parent :meth:`MetricsRegistry.merge`\\ s it — counters add,
gauges last-write-wins, histogram observations concatenate. Counts stay
*exact* under this scheme (the concurrency tests hammer it from threads
and real worker processes).

:class:`NullMetrics` is the free disabled default; hot paths guard any
per-item work with ``metrics.enabled``.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = ["NULL_METRICS", "MetricsRegistry", "NullMetrics", "percentile"]

#: A series key: metric name + canonicalized label pairs.
SeriesKey = Tuple[str, Tuple[Tuple[str, str], ...]]

#: Default histogram buckets (seconds) for the Prometheus exposition —
#: tuned for phase/rule timings: 10µs .. 10s.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-5, 1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1.0, 5.0, 10.0,
)

#: Cap on raw observations kept per histogram series; past it the series
#: keeps exact count/sum/min/max but percentiles reflect the first N.
MAX_OBSERVATIONS = 65_536


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 100]; 0 when
    empty). Deterministic and dependency-free — shared by the histograms
    and the cycle summaries (:func:`repro.obs.report.summarize_cycles`)."""
    if not values:
        return 0.0
    if not 0 <= q <= 100:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, int(-(-q * len(ordered) // 100)))  # ceil without math
    return float(ordered[min(rank, len(ordered)) - 1])


def _key(name: str, labels: Mapping[str, Any]) -> SeriesKey:
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


def _labels_str(labels: Tuple[Tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return "{" + inner + "}"


class _Histogram:
    __slots__ = ("count", "total", "vmin", "vmax", "values")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.vmin: Optional[float] = None
        self.vmax: Optional[float] = None
        self.values: List[float] = []

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.vmin = value if self.vmin is None else min(self.vmin, value)
        self.vmax = value if self.vmax is None else max(self.vmax, value)
        if len(self.values) < MAX_OBSERVATIONS:
            self.values.append(value)

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.vmin if self.vmin is not None else 0.0,
            "max": self.vmax if self.vmax is not None else 0.0,
            "p50": percentile(self.values, 50),
            "p95": percentile(self.values, 95),
        }


class MetricsRegistry:
    """Thread-safe labelled counters/gauges/histograms."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[SeriesKey, float] = {}
        self._gauges: Dict[SeriesKey, float] = {}
        self._hists: Dict[SeriesKey, _Histogram] = {}

    # -- recording ----------------------------------------------------------

    def inc(self, name: str, value: float = 1.0, **labels: Any) -> None:
        key = _key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + value

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        with self._lock:
            self._gauges[_key(name, labels)] = float(value)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        key = _key(name, labels)
        with self._lock:
            hist = self._hists.get(key)
            if hist is None:
                hist = self._hists[key] = _Histogram()
            hist.observe(float(value))

    # -- queries ------------------------------------------------------------

    def counter_value(self, name: str, **labels: Any) -> float:
        with self._lock:
            return self._counters.get(_key(name, labels), 0.0)

    def gauge_value(self, name: str, **labels: Any) -> Optional[float]:
        with self._lock:
            return self._gauges.get(_key(name, labels))

    def histogram_summary(self, name: str, **labels: Any) -> Dict[str, float]:
        with self._lock:
            hist = self._hists.get(_key(name, labels))
            return hist.summary() if hist is not None else _Histogram().summary()

    def series(self, name: str) -> Dict[Tuple[Tuple[str, str], ...], float]:
        """All counter series of ``name`` (labels tuple → value) — what
        the per-rule profiler iterates."""
        with self._lock:
            return {
                labels: v
                for (n, labels), v in self._counters.items()
                if n == name
            }

    def histogram_series(self, name: str) -> Dict[Tuple[Tuple[str, str], ...], Dict[str, float]]:
        with self._lock:
            return {
                labels: h.summary()
                for (n, labels), h in self._hists.items()
                if n == name
            }

    # -- cross-process merge -------------------------------------------------

    def dump(self) -> Dict[str, Any]:
        """Picklable full state (worker → parent shipping)."""
        with self._lock:
            return {
                "counters": [(n, list(l), v) for (n, l), v in self._counters.items()],
                "gauges": [(n, list(l), v) for (n, l), v in self._gauges.items()],
                "hists": [
                    (n, list(l), h.count, h.total, h.vmin, h.vmax, list(h.values))
                    for (n, l), h in self._hists.items()
                ],
            }

    def merge(self, dumped: Mapping[str, Any]) -> None:
        """Fold another registry's :meth:`dump` in: counters add, gauges
        last-write-wins, histogram observations concatenate."""
        with self._lock:
            for n, labels, v in dumped.get("counters", ()):
                key = (n, tuple((k, s) for k, s in labels))
                self._counters[key] = self._counters.get(key, 0.0) + v
            for n, labels, v in dumped.get("gauges", ()):
                self._gauges[(n, tuple((k, s) for k, s in labels))] = v
            for n, labels, count, total, vmin, vmax, values in dumped.get("hists", ()):
                key = (n, tuple((k, s) for k, s in labels))
                hist = self._hists.get(key)
                if hist is None:
                    hist = self._hists[key] = _Histogram()
                hist.count += count
                hist.total += total
                if vmin is not None:
                    hist.vmin = vmin if hist.vmin is None else min(hist.vmin, vmin)
                if vmax is not None:
                    hist.vmax = vmax if hist.vmax is None else max(hist.vmax, vmax)
                room = MAX_OBSERVATIONS - len(hist.values)
                if room > 0:
                    hist.values.extend(values[:room])

    # -- exposition ----------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able snapshot: series keyed by ``name{label="v",...}``."""
        with self._lock:
            counters = {
                f"{n}{_labels_str(l)}": v for (n, l), v in sorted(self._counters.items())
            }
            gauges = {
                f"{n}{_labels_str(l)}": v for (n, l), v in sorted(self._gauges.items())
            }
            hists = {
                f"{n}{_labels_str(l)}": h.summary()
                for (n, l), h in sorted(self._hists.items())
            }
        return {"counters": counters, "gauges": gauges, "histograms": hists}

    def write_json(self, path: str) -> None:
        import json

        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh, indent=2, sort_keys=True)

    def to_prometheus(self, buckets: Iterable[float] = DEFAULT_BUCKETS) -> str:
        """Prometheus text exposition format (v0.0.4).

        Histograms render with cumulative ``_bucket`` series over
        ``buckets`` plus ``+Inf``, ``_sum`` and ``_count`` — computed from
        the stored observations at exposition time.
        """
        bucket_bounds = sorted(buckets)
        lines: List[str] = []
        with self._lock:
            counter_items = sorted(self._counters.items())
            gauge_items = sorted(self._gauges.items())
            hist_items = sorted(
                (key, h.count, h.total, list(h.values))
                for key, h in self._hists.items()
            )
        seen_types: set = set()
        for (name, labels), value in counter_items:
            if name not in seen_types:
                seen_types.add(name)
                lines.append(f"# TYPE {name} counter")
            lines.append(f"{name}{_labels_str(labels)} {_fmt(value)}")
        for (name, labels), value in gauge_items:
            if name not in seen_types:
                seen_types.add(name)
                lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name}{_labels_str(labels)} {_fmt(value)}")
        for (name, labels), count, total, values in hist_items:
            if name not in seen_types:
                seen_types.add(name)
                lines.append(f"# TYPE {name} histogram")
            cumulative = 0
            remaining = sorted(values)
            idx = 0
            for bound in bucket_bounds:
                while idx < len(remaining) and remaining[idx] <= bound:
                    idx += 1
                cumulative = idx
                le_labels = labels + (("le", _fmt(bound)),)
                lines.append(f"{name}_bucket{_labels_str(le_labels)} {cumulative}")
            inf_labels = labels + (("le", "+Inf"),)
            lines.append(f"{name}_bucket{_labels_str(inf_labels)} {count}")
            lines.append(f"{name}_sum{_labels_str(labels)} {_fmt(total)}")
            lines.append(f"{name}_count{_labels_str(labels)} {count}")
        return "\n".join(lines) + ("\n" if lines else "")

    def write_prometheus(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_prometheus())


def _fmt(value: float) -> str:
    """Render ints without a trailing ``.0`` (Prometheus-friendly)."""
    f = float(value)
    return str(int(f)) if f.is_integer() else repr(f)


class NullMetrics:
    """The zero-cost disabled registry: every call is a constant no-op."""

    enabled = False

    def inc(self, name: str, value: float = 1.0, **labels: Any) -> None:
        return None

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        return None

    def observe(self, name: str, value: float, **labels: Any) -> None:
        return None

    def counter_value(self, name: str, **labels: Any) -> float:
        return 0.0

    def gauge_value(self, name: str, **labels: Any) -> Optional[float]:
        return None

    def series(self, name: str) -> Dict[Tuple[Tuple[str, str], ...], float]:
        return {}

    def histogram_series(self, name: str) -> Dict[Tuple[Tuple[str, str], ...], Dict[str, float]]:
        return {}

    def dump(self) -> Dict[str, Any]:
        return {"counters": [], "gauges": [], "hists": []}

    def merge(self, dumped: Mapping[str, Any]) -> None:
        return None

    def snapshot(self) -> Dict[str, Any]:
        return {"counters": {}, "gauges": {}, "histograms": {}}


#: Shared default instance — engines/backends hold this when metrics are off.
NULL_METRICS = NullMetrics()
