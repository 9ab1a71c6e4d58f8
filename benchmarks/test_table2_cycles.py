"""Table 2 — cycles-to-completion: PARULEL vs sequential OPS5.

The paper's headline: set-oriented firing removes the one-instantiation-
per-cycle bottleneck, cutting the cycle count by roughly the mean firing-
set size while executing exactly the same rule firings. Expected shape:

- parallel-friendly programs (tc, waltz, sort, sieve, manners): PARULEL
  cycles ≤ OPS5 cycles / 2, and the reduction factor tracks the mean
  firing-set size;
- inherently sequential programs (monkey): no reduction — honesty row.
"""

import pytest

from repro.baseline import OPS5Engine
from repro.core import ParulelEngine
from repro.obs import Table
from repro.programs import REGISTRY

from .conftest import emit

WORKLOADS = sorted(REGISTRY)
PARALLEL_FRIENDLY = ["circuit", "routing", "sieve", "sort", "sort-meta", "tc", "waltz"]
#: manners' frontier is one seat wide (hobby exposure is its only fan-out),
#: so its reduction is real but modest.
MODEST = {"manners": 1.5}


def run_both(name):
    wl = REGISTRY[name]()
    par = ParulelEngine(wl.program)
    wl.setup(par)
    pres = par.run(max_cycles=10_000)
    assert wl.failed_checks(par.wm) == []

    wl2 = REGISTRY[name]()
    ops = OPS5Engine(wl2.program)
    wl2.setup(ops)
    ores = ops.run(max_cycles=500_000)
    assert wl2.failed_checks(ops.wm) == []
    return pres, ores


@pytest.fixture(scope="module")
def table2():
    data = {name: run_both(name) for name in WORKLOADS}
    table = Table(
        "Table 2: cycles to completion (PARULEL set-oriented vs OPS5/LEX)",
        [
            "program",
            "parulel cycles",
            "ops5 cycles",
            "reduction",
            "mean firing set",
            "firings par/seq",
        ],
    )
    for name in WORKLOADS:
        pres, ores = data[name]
        firings = (
            str(pres.firings)
            if pres.firings == ores.firings
            else f"{pres.firings}/{ores.firings}"
        )
        table.add(
            name,
            pres.cycles,
            ores.cycles,
            ores.cycles / pres.cycles,
            pres.mean_firing_set,
            firings,
        )
    emit(table, "table2_cycles")
    return data


@pytest.mark.parametrize("name", WORKLOADS)
def test_table2_shape(benchmark, table2, name):
    pres, ores = table2[name]

    def parulel_run():
        wl = REGISTRY[name]()
        engine = ParulelEngine(wl.program)
        wl.setup(engine)
        return engine.run(max_cycles=10_000)

    benchmark(parulel_run)

    if name in PARALLEL_FRIENDLY:
        assert pres.cycles * 2 <= ores.cycles, (
            f"{name}: expected >=2x cycle reduction, got "
            f"{ores.cycles}/{pres.cycles}"
        )
        # Reduction factor is explained by the mean firing-set size
        # (PARULEL packs ~mean-firing-set sequential cycles into one).
        reduction = ores.cycles / pres.cycles
        assert reduction <= pres.mean_firing_set * 2.5 + 2
    elif name in MODEST:
        assert ores.cycles / pres.cycles >= MODEST[name]
    elif name == "monkey":
        assert pres.cycles == ores.cycles


def test_table2_firings_identical(table2):
    """Both engines execute the same logical work on confluent programs."""
    for name in ("tc", "waltz", "sieve", "sort", "circuit"):
        pres, ores = table2[name]
        assert pres.firings == ores.firings, name
