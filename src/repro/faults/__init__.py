"""Fault injection and recovery instrumentation.

PARULEL's successor environment (PARADISER) targeted distributed machines
whose sites, workers, and messages actually fail. This package provides the
deterministic fault layer the execution substrates inject from:

- :mod:`repro.faults.plan` — seeded :class:`FaultPlan` descriptions (site
  crashes with optional rejoin, message drop/duplication/delay, straggler
  sites, real worker kills/wedges) and the per-run :class:`FaultInjector`;
- :mod:`repro.faults.events` — the structured :class:`FaultEvent` records
  every injection and recovery action leaves behind, surfaced on
  :class:`~repro.parallel.distributed.DistResult` and
  :class:`~repro.core.engine.CycleReport`.

Recovery itself lives with each substrate: the distributed machine
re-hosts a dead site's rules on survivors and charges a rejoining site the
replay of the cumulative delta log; the process pool respawns crashed
workers within a budget and then degrades the site to an in-parent serial
matcher.
"""

from repro._lazy import lazy_exports

#: Resolved on first use (PEP 562): recording a fault event does not load
#: the seeded plan machinery (and ``random``).
__getattr__ = lazy_exports(
    __name__,
    {
        "FaultEvent": "repro.faults.events",
        "summarize_faults": "repro.faults.events",
        "FaultInjector": "repro.faults.plan",
        "FaultPlan": "repro.faults.plan",
        "SiteCrash": "repro.faults.plan",
        "Straggler": "repro.faults.plan",
        "WorkerKill": "repro.faults.plan",
        "WorkerWedge": "repro.faults.plan",
    },
)

__all__ = [
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "SiteCrash",
    "Straggler",
    "WorkerKill",
    "WorkerWedge",
    "summarize_faults",
]
