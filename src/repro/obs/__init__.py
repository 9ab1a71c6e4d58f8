"""Unified observability: tracing, metrics, and per-rule profiling.

PARULEL's argument is about *where the cycle time goes* — match vs.
redaction vs. act vs. communication. This package is the layer that makes
every execution substrate show its work:

- :mod:`repro.obs.trace` — monotonic-clock spans and instants on named
  lanes (engine, worker processes, distributed sites, the simulated
  network), thread/process-safe, exported as Chrome trace-event JSON
  (open it in Perfetto or ``chrome://tracing``) or JSONL;
- :mod:`repro.obs.metrics` — a labelled counter/gauge/histogram registry
  with JSON snapshots and Prometheus text exposition, with exact
  cross-process merging for worker-shipped counts;
- :mod:`repro.obs.profile` — the per-rule hot-rule table
  (``parulel profile``);
- :mod:`repro.obs.report` — fixed-width text tables, CSV output and
  cycle summaries (the experiment suite prints paper-style tables with
  these).

- :mod:`repro.obs.flightrec` / :mod:`repro.obs.blackbox` — the always-on
  black-box flight recorder: bounded shared-memory event rings that
  survive worker SIGKILLs, ``*.blackbox`` crash dumps, merged causal
  timelines, per-site/per-rule skew analytics, and recording diffs
  (``parulel blackbox dump/report/diff``).

Everything defaults to the no-op :data:`NULL_TRACER` /
:data:`NULL_METRICS` singletons, so the disabled path costs an attribute
load and a branch — the overhead benchmark holds the enabled path under
5% on the ``tc`` and ``manners`` workloads.
"""

from repro._lazy import lazy_exports
from repro.obs.metrics import NULL_METRICS, MetricsRegistry, NullMetrics
from repro.obs.profile import RuleProfile, hot_rule_table, rule_profiles
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    validate_chrome_trace,
)

__all__ = [
    "Blackbox",
    "FlightRecorder",
    "FlightRing",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_TRACER",
    "NullMetrics",
    "NullTracer",
    "RuleProfile",
    "Table",
    "Tracer",
    "diff_blackbox",
    "fault_table",
    "format_table",
    "hot_rule_table",
    "load_blackbox",
    "rule_profiles",
    "skew_report",
    "summarize_cycles",
    "validate_chrome_trace",
    "write_csv",
]

#: Flight-recorder names resolve lazily (PEP 562) so importing
#: ``repro.obs`` never drags in ``multiprocessing.shared_memory`` — the
#: engine's default dict-WM path stays import-light — and the report
#: helpers load only for the experiment suite and ``parulel profile``.
__getattr__ = lazy_exports(
    __name__,
    {
        "FlightRecorder": "repro.obs.flightrec",
        "FlightRing": "repro.obs.flightrec",
        "Blackbox": "repro.obs.blackbox",
        "load_blackbox": "repro.obs.blackbox",
        "skew_report": "repro.obs.blackbox",
        "diff_blackbox": "repro.obs.blackbox",
        "Table": "repro.obs.report",
        "fault_table": "repro.obs.report",
        "format_table": "repro.obs.report",
        "summarize_cycles": "repro.obs.report",
        "write_csv": "repro.obs.report",
    },
)
