"""Instrumentation and reporting helpers for the experiment suite.

- :mod:`repro.metrics.timers` — phase timers and cycle statistics,
- :mod:`repro.metrics.report` — fixed-width text tables (the benches print
  paper-style tables with these) and CSV emission.
"""

from repro._lazy import lazy_exports

#: Resolved on first use (PEP 562): the engine needs the timers, only the
#: experiment suite and ``parulel profile`` the table helpers.
__getattr__ = lazy_exports(
    __name__,
    {
        "Table": "repro.metrics.report",
        "fault_table": "repro.metrics.report",
        "format_table": "repro.metrics.report",
        "write_csv": "repro.metrics.report",
        "PhaseTimer": "repro.metrics.timers",
        "summarize_cycles": "repro.metrics.timers",
    },
)

__all__ = [
    "PhaseTimer",
    "Table",
    "fault_table",
    "format_table",
    "summarize_cycles",
    "write_csv",
]
