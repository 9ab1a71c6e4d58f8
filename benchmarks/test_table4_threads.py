"""Table 4 — real concurrency: the GIL ceiling, and the escape from it.

The reproduction notes for this paper flag that CPython's GIL hides the
data-parallel benefits PARULEL showed on real multiprocessors. This bench
*measures* that instead of hand-waving, in two halves:

- ``threads`` rows — the ThreadedMatchPool fans per-site pure-Python
  matching (read-only) out to 1..8 threads. Expected shape: conflict sets
  identical at every count; wall-clock speedup far below linear (the GIL
  serializes pure-Python match work).
- ``process`` rows — the ProcessMatchPool runs the same partitioned match
  in persistent worker *processes* (one GIL each), kept current by WM
  delta shipping. On a multi-core host this is where real wall-clock
  speedup finally appears (>1.5x at 4 workers is asserted when >= 4 cores
  are actually usable; on fewer cores the shape is reported but cannot
  physically manifest, so the assertion is skipped).
"""

import os
import time

import pytest

from repro.obs import Table
from repro.parallel.process import ProcessMatchPool
from repro.parallel.threaded import ThreadedMatchPool
from repro.programs import build_join_workload

from .conftest import emit

WORKERS = (1, 2, 4, 8)
N_WMES = 120
BACKENDS = {"threads": ThreadedMatchPool, "process": ProcessMatchPool}


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def measure(backend, n_workers, repeats=3):
    jw = build_join_workload(n_rules=8, n_keys=30, seed=21)
    wm = jw.fresh_wm()
    jw.load(wm, N_WMES)
    with BACKENDS[backend](jw.program.rules, wm, n_workers) as pool:
        pool.conflict_set()  # warm-up (for process: ships the initial WM)
        best = float("inf")
        keys = None
        for _ in range(repeats):
            start = time.perf_counter()
            insts = pool.conflict_set()
            best = min(best, time.perf_counter() - start)
            keys = sorted(i.key for i in insts)
    return best, keys


@pytest.fixture(scope="module")
def table4():
    data = {
        (backend, w): measure(backend, w)
        for backend in BACKENDS
        for w in WORKERS
    }
    table = Table(
        f"Table 4: real-concurrency match fan-out, wall-clock "
        f"({usable_cores()} usable core(s))",
        ["backend", "workers", "best wall ms", "speedup", "efficiency"],
        precision=3,
    )
    for backend in BACKENDS:
        base = data[(backend, 1)][0]
        for w in WORKERS:
            wall, _keys = data[(backend, w)]
            table.add(backend, w, wall * 1000, base / wall, base / wall / w)
    emit(table, "table4_threads")
    return data


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("n_workers", WORKERS)
def test_table4_correctness(benchmark, table4, backend, n_workers):
    """Whatever the timing says, the answers must be identical — across
    worker counts AND across backends."""
    assert table4[(backend, n_workers)][1] == table4[("threads", 1)][1]
    benchmark(lambda: measure(backend, n_workers, repeats=1))


def test_table4_gil_ceiling(table4):
    """Pure-Python match cannot scale linearly under the GIL: by 8 threads
    the efficiency must have collapsed well below the ~0.9+ a real
    multiprocessor shows for this embarrassingly parallel workload."""
    base = table4[("threads", 1)][0]
    speedup8 = base / table4[("threads", 8)][0]
    assert speedup8 < 5.0, (
        f"unexpectedly linear threading speedup ({speedup8:.2f}x) — "
        f"free-threaded Python? Update EXPERIMENTS.md if so."
    )


def test_table4_process_escapes_gil(table4):
    """With >= 4 usable cores, 4 worker processes must deliver real
    wall-clock speedup (>1.5x) on the same workload the threads cannot
    accelerate. On fewer cores the speedup physically cannot appear, so
    only the correctness rows apply."""
    cores = usable_cores()
    if cores < 4:
        pytest.skip(
            f"only {cores} usable core(s): process-parallel speedup cannot "
            f"manifest; correctness asserted elsewhere"
        )
    base = table4[("process", 1)][0]
    speedup4 = base / table4[("process", 4)][0]
    assert speedup4 > 1.5, (
        f"process pool shows no real speedup at 4 workers "
        f"({speedup4:.2f}x) on {cores} cores"
    )
