"""Resilience subsystem: durable checkpoints and live recovery.

Two legs (see ``docs/RESILIENCE.md``):

- :mod:`repro.resilience.checkpoint` — atomic, digest-framed checkpoint
  envelopes; a keep-last-K rotating store with cheap delta checkpoints
  between full snapshots; last-good fallback on corruption.
- :mod:`repro.resilience.janitor` — startup sweep reclaiming orphaned
  ``/dev/shm`` segments left by SIGKILLed columnar-store owners.

The chaos harness lives in :mod:`repro.resilience.chaos`; it imports the
engine, so it is deliberately *not* re-exported here (importing it from
package ``__init__`` would cycle with :mod:`repro.core.engine`, which
lazily imports this package's checkpoint helpers).
"""

from repro.resilience.checkpoint import (
    CheckpointLoad,
    CheckpointStore,
    EngineCheckpointer,
    apply_delta_state,
    load_checkpoint_file,
    read_envelope,
    write_envelope,
)
from repro.resilience.janitor import DEFAULT_SHM_DIR, JanitorReport, sweep_orphans

__all__ = [
    "CheckpointLoad",
    "CheckpointStore",
    "EngineCheckpointer",
    "apply_delta_state",
    "load_checkpoint_file",
    "read_envelope",
    "write_envelope",
    "DEFAULT_SHM_DIR",
    "JanitorReport",
    "sweep_orphans",
]
