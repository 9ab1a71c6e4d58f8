"""A heap-sized schedule for CPython's cyclic collector, in the processes
this package owns.

A run's heap is almost all acyclic records — WMEs, attribute dicts,
instantiations, environments — that reference counting frees on its own.
The cyclic collector still walks them: at the stock gen-0 threshold (700
net container allocations) a 10,080-firing ``tc`` run makes 423 passes,
0.053 s of a 0.25 s run, and finds next to nothing (EXPERIMENTS.md,
"Collector"). :class:`CollectorSchedule` keeps the collector *enabled* —
a host function or a listener may well build cycles — and sizes its
schedule to the heap instead:

- the gen-0 threshold goes up to :data:`GEN0_THRESHOLD` for as long as
  the block runs, so young passes come once per tens of thousands of
  allocations, not hundreds;
- :meth:`~CollectorSchedule.freeze`, called once the facts are loaded and
  the matcher exists, moves everything allocated so far to the permanent
  generation: the loaded working memory is never traversed again (and, in
  a forked worker, its pages are never dirtied by the collector's
  bookkeeping);
- on exit the thresholds and the permanent generation are put back as
  found, whether or not the block raised — tier-1 and the benchmark
  launcher call :func:`repro.cli.main` in-process.

Entered by ``repro.cli.main`` for ``run`` and ``profile`` and by the
process pool's worker loop, and by nothing else: the engine, the matchers
and every library entry point leave ``gc`` alone, because the interpreter
they run in belongs to the caller. Deliberately no CLI argument,
environment variable or config field — there is nothing here to tune.
"""

from __future__ import annotations

import gc

__all__ = ["GEN0_THRESHOLD", "CollectorSchedule"]

#: Net container allocations between young-generation passes. On the
#: default ``tc`` cell 20,000 reads the same as the collector switched off
#: (``run_s`` 0.229 vs 0.228 s, against 0.29 s at the stock 700), so there
#: is nothing left to gain above it, while a cycle-making host function
#: still gets its garbage collected every few cycles of a large run.
GEN0_THRESHOLD = 20_000


class CollectorSchedule:
    """Context manager: raise the gen-0 threshold on entry, restore the
    collector's thresholds and permanent generation exactly on exit."""

    def __enter__(self) -> "CollectorSchedule":
        self._threshold = gc.get_threshold()
        #: Someone else's frozen objects cannot be told from ours at
        #: exit, so then we do not freeze at all.
        self._may_freeze = gc.get_freeze_count() == 0
        self._froze = False
        gc.set_threshold(GEN0_THRESHOLD, *self._threshold[1:])
        return self

    def freeze(self) -> None:
        """Move everything allocated so far out of the collector's sight
        (once; later calls do nothing)."""
        if self._may_freeze and not self._froze:
            gc.freeze()
            self._froze = True

    def __exit__(self, *exc: object) -> None:
        gc.set_threshold(*self._threshold)
        if self._froze:
            gc.unfreeze()
