"""Table 1 — benchmark program characteristics.

Columns: rules, meta-rules, WME classes, initial WMEs, peak WM size,
PARULEL cycles/firings to completion. (The size/shape table every
production-system paper of the era opens its evaluation with.)
"""

import pytest

from repro.core import ParulelEngine
from repro.obs import Table
from repro.programs import REGISTRY

from .conftest import emit

WORKLOADS = sorted(REGISTRY)


def characterize(name):
    wl = REGISTRY[name]()
    engine = ParulelEngine(wl.program)
    wl.setup(engine)
    initial = len(engine.wm)
    peak = initial
    result = None

    while True:
        report = engine.step()
        peak = max(peak, len(engine.wm))
        if report is None or report.halted:
            break

    assert wl.failed_checks(engine.wm) == []
    return {
        "rules": wl.n_rules,
        "meta": wl.n_meta_rules,
        "classes": len(wl.program.literalizes),
        "initial_wmes": initial,
        "peak_wm": peak,
        "cycles": engine.cycle,
        "firings": sum(r.fired for r in engine.reports),
    }


@pytest.fixture(scope="module")
def table1():
    rows = {name: characterize(name) for name in WORKLOADS}
    table = Table(
        "Table 1: benchmark program characteristics",
        ["program", "rules", "meta", "classes", "init WM", "peak WM", "cycles", "firings"],
    )
    for name in WORKLOADS:
        c = rows[name]
        table.add(
            name,
            c["rules"],
            c["meta"],
            c["classes"],
            c["initial_wmes"],
            c["peak_wm"],
            c["cycles"],
            c["firings"],
        )
    emit(table, "table1_programs")
    return rows


@pytest.mark.parametrize("name", WORKLOADS)
def test_table1_run_to_completion(benchmark, table1, name):
    """Benchmark: full PARULEL run of each program (engine build + run)."""

    def run():
        wl = REGISTRY[name]()
        engine = ParulelEngine(wl.program)
        wl.setup(engine)
        return engine.run(max_cycles=10_000)

    result = benchmark(run)
    # Shape: the characterization and the benchmarked run agree.
    assert result.cycles == table1[name]["cycles"]
    assert result.firings == table1[name]["firings"]
