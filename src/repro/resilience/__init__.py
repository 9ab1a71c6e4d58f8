"""Resilience subsystem: injected faults, durable checkpoints, recovery.

PARULEL's successor environment (PARADISER) targeted distributed machines
whose sites, workers, disks and operators actually fail. This package
holds both halves of that story (see ``docs/RESILIENCE.md``):

- :mod:`repro.resilience.plan` — seeded :class:`FaultPlan` descriptions
  (site crashes with optional rejoin, message drop/duplication/delay,
  straggler sites, real worker kills/wedges) and the per-run
  :class:`FaultInjector`;
- :mod:`repro.resilience.events` — the structured :class:`FaultEvent`
  records every injection and recovery action leaves behind, surfaced on
  :class:`~repro.lab.distributed.DistResult` and
  :class:`~repro.core.engine.CycleReport`;
- :mod:`repro.resilience.checkpoint` — atomic, digest-framed checkpoint
  envelopes; a keep-last-K rotating store with cheap delta checkpoints
  between full snapshots; last-good fallback on corruption;
- :mod:`repro.resilience.janitor` — startup sweep reclaiming orphaned
  ``/dev/shm`` segments left by SIGKILLed columnar-store owners.

Live recovery lives with each substrate: the distributed machine re-hosts
a dead site's rules on survivors and charges a rejoining site the replay
of the cumulative delta log; the process pool respawns crashed workers
within a budget and then degrades the site to an in-parent serial
matcher.

The chaos harness lives in :mod:`repro.resilience.chaos`; it imports the
engine, so it is deliberately *not* re-exported here.
"""

from repro._lazy import lazy_exports

#: Resolved on first use (PEP 562): the process pool needs the fault
#: types, not the checkpoint store or the janitor, and recording a fault
#: event does not load the seeded plan machinery (and ``random``).
__getattr__ = lazy_exports(
    __name__,
    {
        "CheckpointLoad": "repro.resilience.checkpoint",
        "CheckpointStore": "repro.resilience.checkpoint",
        "EngineCheckpointer": "repro.resilience.checkpoint",
        "apply_delta_state": "repro.resilience.checkpoint",
        "load_checkpoint_file": "repro.resilience.checkpoint",
        "read_envelope": "repro.resilience.checkpoint",
        "write_envelope": "repro.resilience.checkpoint",
        "FaultEvent": "repro.resilience.events",
        "summarize_faults": "repro.resilience.events",
        "DEFAULT_SHM_DIR": "repro.resilience.janitor",
        "JanitorReport": "repro.resilience.janitor",
        "sweep_orphans": "repro.resilience.janitor",
        "FaultInjector": "repro.resilience.plan",
        "FaultPlan": "repro.resilience.plan",
        "SiteCrash": "repro.resilience.plan",
        "Straggler": "repro.resilience.plan",
        "WorkerKill": "repro.resilience.plan",
        "WorkerWedge": "repro.resilience.plan",
    },
)

__all__ = [
    "CheckpointLoad",
    "CheckpointStore",
    "DEFAULT_SHM_DIR",
    "EngineCheckpointer",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "JanitorReport",
    "SiteCrash",
    "Straggler",
    "WorkerKill",
    "WorkerWedge",
    "apply_delta_state",
    "load_checkpoint_file",
    "read_envelope",
    "summarize_faults",
    "sweep_orphans",
    "write_envelope",
]
