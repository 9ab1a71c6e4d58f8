"""Ablation A7 — hash-indexed joins vs nested-loop enumeration.

Same engine, same plans, same conflict sets — the only thing ablated is
whether ``enumerate_matches`` probes the indexed alpha memories (what
every product engine runs) or scans them with the historical nested loops
(``indexed=False``, built by ``tests/nested_loop.py``). Run
end-to-end on tc and manners with both the TREAT engine and the naive
recompute oracle:

- tc stresses wide equijoin frontiers (the transitive-closure delta joins);
- manners stresses negated-CE blocking checks under meta-rule redaction.

Expected shape: large reductions in ``join_probes + join_checks``
everywhere (the manners floor is 5x), identical cycles/firings/final WM
(asserted here and, byte-for-byte, in the differential tests), wall-clock
advisory.
"""

import pytest

from repro.metrics import Table

from .conftest import emit
from .match_microbench import run_workload

WORKLOADS = ("tc", "manners")
ENGINES = ("treat", "naive")


@pytest.fixture(scope="module")
def ablation7():
    data = {}
    table = Table(
        "Ablation A7: indexed vs nested-loop joins (full engine runs)",
        ["workload", "engine", "indexed ops", "nested-loop ops", "reduction"],
    )
    for workload in WORKLOADS:
        for engine in ENGINES:
            idx = run_workload(workload, engine, True)
            scan = run_workload(workload, engine, False)
            data[(workload, engine)] = (idx, scan)
            table.add(
                workload,
                engine,
                idx["ops"],
                scan["ops"],
                f"{scan['ops'] / max(idx['ops'], 1):.1f}x",
            )
    emit(table, "ablation7_indexing")
    return data


def test_a7_semantics_preserved(benchmark, ablation7):
    for (workload, engine), (idx, scan) in ablation7.items():
        assert (idx["cycles"], idx["firings"]) == (scan["cycles"], scan["firings"]), (
            workload,
            engine,
        )
    benchmark(lambda: run_workload("tc", "treat", True))


def test_a7_work_reduction(benchmark, ablation7):
    for (workload, engine), (idx, scan) in ablation7.items():
        assert scan["ops"] > idx["ops"], (workload, engine)
    # The headline contract: >=5x less join work on manners.
    for engine in ENGINES:
        idx, scan = ablation7[("manners", engine)]
        assert scan["ops"] >= 5 * idx["ops"], (engine, idx["ops"], scan["ops"])
    benchmark(lambda: run_workload("manners", "treat", True))
