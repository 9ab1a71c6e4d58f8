"""Ablation A6 — analysis-driven rule partition vs round-robin.

The static analyzer's partition advisor (``assignment="analysis"``) cuts
the rule dependency graph so rules sharing working-memory classes land on
the same site. Under a multicast scatter each site only receives deltas
for classes its rules touch, so a lower-connectivity partition ships
fewer messages for the *same* run: identical cycles, firings and final
working memory, measured here per bundled workload at 4 sites.
"""

import pytest

from repro.obs import Table
from repro.parallel.distributed import DistributedMachine
from repro.programs import REGISTRY
from repro.wm.io import dumps

from .conftest import emit

N_SITES = 4

#: Workloads whose footprint structure the advisor provably exploits —
#: the acceptance floor is a strict message reduction on at least these.
EXPECT_IMPROVED = ("tc", "manners")


def run_workload(name, policy):
    workload = REGISTRY[name]()
    machine = DistributedMachine(
        workload.program, N_SITES, assignment=policy, multicast=True
    )
    workload.setup(machine)
    result = machine.run()
    return result, dumps(machine.wm)


@pytest.fixture(scope="module")
def ablation6():
    results = {}
    table = Table(
        "Ablation A6: analysis partition vs round-robin "
        f"(multicast, {N_SITES} sites)",
        ["workload", "rr msgs", "analysis msgs", "reduction", "same WM"],
    )
    for name in sorted(REGISTRY):
        rr, rr_wm = run_workload(name, "round-robin")
        adv, adv_wm = run_workload(name, "analysis")
        same = rr_wm == adv_wm
        reduction = (
            f"{(1 - adv.messages / rr.messages):.0%}" if rr.messages else "-"
        )
        table.add(name, rr.messages, adv.messages, reduction, same)
        results[name] = (rr, adv, same)
    emit(table, "ablation6_analysis_partition")
    return results


def test_a6_messages_never_worse(benchmark, ablation6):
    for name, (rr, adv, _same) in ablation6.items():
        assert adv.messages <= rr.messages, name
    benchmark(lambda: run_workload("tc", "analysis"))


def test_a6_strict_reduction_where_structure_allows(benchmark, ablation6):
    for name in EXPECT_IMPROVED:
        rr, adv, _same = ablation6[name]
        assert adv.messages < rr.messages, name
    benchmark(lambda: run_workload("manners", "analysis"))


def test_a6_same_answers(benchmark, ablation6):
    for name, (rr, adv, same) in ablation6.items():
        assert same, name
        assert rr.cycles == adv.cycles, name
        assert rr.firings == adv.firings, name
    benchmark(lambda: run_workload("tc", "round-robin"))
