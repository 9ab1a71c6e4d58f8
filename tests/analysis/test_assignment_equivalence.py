"""Acceptance: ``assignment="analysis"`` changes *where* rules run, never
*what* the run computes.

On every bundled workload the distributed machine must produce a
byte-identical final working memory under the analysis partition and
under round-robin. (The process match backend places no rules — every
worker matches its share of every rule — so it has no case here.)
"""

import pytest

from repro.lab.distributed import DistributedMachine
from repro.programs import REGISTRY
from repro.wm.io import dumps


def _final_wm(workload, policy: str) -> str:
    machine = DistributedMachine(
        workload.program, 4, assignment=policy, multicast=True
    )
    workload.setup(machine)
    machine.run()
    return dumps(machine.wm)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_distributed_final_wm_identical(name):
    workload = REGISTRY[name]()
    assert _final_wm(workload, "analysis") == _final_wm(
        workload, "round-robin"
    )


def test_analysis_never_costlier_in_messages():
    # The advisor's whole point: multicast scatter ships fewer deltas.
    from repro.lab.distributed import DistResult  # noqa: F401

    improved = 0
    for name in sorted(REGISTRY):
        workload = REGISTRY[name]()
        messages = {}
        for policy in ("round-robin", "analysis"):
            machine = DistributedMachine(
                workload.program, 4, assignment=policy, multicast=True
            )
            workload.setup(machine)
            messages[policy] = machine.run().messages
        assert messages["analysis"] <= messages["round-robin"], name
        if messages["analysis"] < messages["round-robin"]:
            improved += 1
    # The acceptance floor: a real reduction on at least two workloads.
    assert improved >= 2
