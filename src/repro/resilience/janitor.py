"""Startup janitor for orphaned shared-memory segments.

The columnar store (:mod:`repro.wm.columnar`) names every POSIX
shared-memory segment ``pwm...`` and the flight recorder
(:mod:`repro.obs.flightrec`) names its event rings ``pfr...`` — both
embed the creating pid the same way, and a default sweep covers both.
Cleanup is layered — ``close()``, a
pid-guarded finalizer, the stdlib ``resource_tracker`` — but a parent that
dies by ``SIGKILL`` executes none of them, stranding named segments in
``/dev/shm`` until the machine reboots (or fills).

This module reclaims such orphans *safely*:

- Segment names embed the creating pid (``pwm<pid:08x>p<token>...``, see
  :func:`repro.wm.columnar.parse_owner_pid`): a segment is an orphan
  exactly when its owner pid is gone. Pid recycling can only err on the
  side of *keeping* a segment (some unrelated live process wears the pid),
  never of deleting a live one. Unlinking only removes the name — any
  reader that still has the segment mapped keeps its mapping.
- A name under a swept prefix that carries no readable owner pid was not
  written by this program: it is foreign, and always kept.

``parulel janitor`` runs a sweep from the command line;
``scripts/check.sh`` calls it instead of the old fuser loop, and the chaos
harness (:mod:`repro.resilience.chaos`) runs it after every killed run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from repro.obs.flightrec import FLIGHT_PREFIX
from repro.wm.columnar import SEGMENT_PREFIX, parse_owner_pid

__all__ = [
    "JanitorReport",
    "sweep_orphans",
    "DEFAULT_SHM_DIR",
    "DEFAULT_PREFIXES",
]

DEFAULT_SHM_DIR = "/dev/shm"

#: Segment families a default sweep reclaims: columnar WM columns/journals
#: (``pwm``) and flight-recorder event rings (``pfr``). Both name formats
#: embed the owner pid identically, so one pid-liveness rule covers both.
DEFAULT_PREFIXES: Tuple[str, ...] = (SEGMENT_PREFIX, FLIGHT_PREFIX)


@dataclass
class JanitorReport:
    """One sweep's outcome: names removed, names kept (with the reason)."""

    removed: List[str] = field(default_factory=list)
    kept: List[Tuple[str, str]] = field(default_factory=list)
    dry_run: bool = False

    def __str__(self) -> str:
        verb = "would remove" if self.dry_run else "removed"
        return (
            f"janitor: {verb} {len(self.removed)} orphaned segment(s), "
            f"kept {len(self.kept)}"
        )


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - pid exists, not ours
        return True
    except OSError:  # pragma: no cover - conservative default
        return True
    return True


def sweep_orphans(
    shm_dir: str = DEFAULT_SHM_DIR,
    prefix: Union[str, Sequence[str]] = DEFAULT_PREFIXES,
    dry_run: bool = False,
) -> JanitorReport:
    """Reclaim orphaned ``<prefix>*`` segments under ``shm_dir``.

    ``prefix`` is one segment-family prefix or a sequence of them; the
    default sweeps both the columnar store's ``pwm`` and the flight
    recorder's ``pfr`` families. Safe by construction: a segment is
    unlinked (reported only, with ``dry_run``) only when its name embeds an
    owner pid and that process is gone; a live owner's segments and names
    with no readable pid are kept.
    """
    prefixes = (prefix,) if isinstance(prefix, str) else tuple(prefix)
    report = JanitorReport(dry_run=dry_run)
    try:
        names = sorted(os.listdir(shm_dir))
    except OSError:
        return report  # no shm dir on this platform: nothing to do
    for name in names:
        matched = next((p for p in prefixes if name.startswith(p)), None)
        if matched is None:
            continue
        path = os.path.join(shm_dir, name)
        pid = parse_owner_pid(name, prefix=matched)
        if pid is None:
            report.kept.append((name, "no owner pid in name"))
            continue
        if _pid_alive(pid):
            report.kept.append((name, f"owner pid {pid} is alive"))
            continue
        if not dry_run:
            # Plain unlink, no resource_tracker.unregister: the sweeping
            # process never registered these names (the dead owner's
            # tracker did, and died with it), so messaging our own tracker
            # would only spawn one to reject the name.
            try:
                os.unlink(path)
            except FileNotFoundError:
                continue  # swept concurrently
            except OSError as exc:  # pragma: no cover - permissions
                report.kept.append((name, f"unlink failed: {exc}"))
                continue
        report.removed.append(name)
    return report
