"""Figure 2 — copy-and-constrain scaling of a match-bound rule.

Fixes the workload (transitive closure on a random graph — one hot join
rule, ``tc-extend``) and the machine size (P = 16 sites), then varies the
number of constrained copies k ∈ {1, 2, 4, 8, 16} of the hot rule.

Expected shape: with k = 1 the hot rule serializes on one site regardless
of P (speedup ≈ 1); as k grows its match work spreads and simulated time
falls, with diminishing returns once per-site match work no longer
dominates broadcast + barrier. This is the data-parallelism half of the
paper's story (rule parallelism alone caps at the number of rules).
"""

import pytest

from repro.obs import Table
from repro.parallel import (
    SimMachine,
    SpeedupSeries,
    copy_and_constrain_program,
    hash_partitions,
)
from repro.programs import build_tc

from .conftest import emit

COPIES = (1, 2, 4, 8, 16)
N_SITES = 16


def run_with_copies(k):
    wl = build_tc(n_nodes=28, shape="random", seed=5, density=0.10)
    rule_name, ce_index, attr = wl.cc_hint
    domain = list(wl.domains[("path", "src")])
    program = (
        wl.program
        if k == 1
        else copy_and_constrain_program(
            wl.program, rule_name, ce_index, attr, hash_partitions(domain, k)
        )
    )
    machine = SimMachine(program, N_SITES)
    wl.setup(machine)
    result = machine.run(max_cycles=10_000)
    assert wl.failed_checks(machine.wm) == []
    return result


@pytest.fixture(scope="module")
def figure2():
    results = {k: run_with_copies(k) for k in COPIES}
    series = SpeedupSeries("copy-and-constrain")
    for k in COPIES:
        series.add(k, results[k].total_ticks)
    table = Table(
        f"Figure 2: copy-and-constrain of tc-extend on {N_SITES} sites",
        ["copies k", "ticks", "speedup vs k=1", "load imbalance"],
    )
    for k in COPIES:
        table.add(
            k,
            results[k].total_ticks,
            series.speedup(k),
            results[k].load_imbalance,
        )
    emit(table, "fig2_copy_constrain")
    return series, results


@pytest.mark.parametrize("k", COPIES)
def test_fig2_semantics_preserved(benchmark, figure2, k):
    """Every k produces the same closure; benchmark the simulation."""
    _series, results = figure2
    base = results[1]
    assert results[k].firings == base.firings
    assert results[k].cycles == base.cycles
    benchmark(lambda: run_with_copies(k))


def test_fig2_shape(benchmark, figure2):
    series, results = figure2
    # Splitting the hot rule must help substantially by k=8 ...
    assert series.speedup(8) > 1.5
    # ... monotonically (within slack) ...
    assert series.is_monotone_to(16, slack=0.10)
    # ... and reduce load imbalance relative to the unsplit program.
    assert results[8].load_imbalance < results[1].load_imbalance

    benchmark(lambda: run_with_copies(8))
