"""Ablation A1 — rule-to-site assignment: LPT (profiled) vs round-robin.

A multiprogram rule base (tc + waltz + sieve fused — their classes are
disjoint, so the union program runs all three workloads at once) is
distributed over 4 sites either blindly (round-robin) or by LPT bin
packing on weights measured in a 1-site calibration run. Expected shape:
LPT's makespan total is no worse than round-robin's, and its load
imbalance is lower — profiling pays for itself.
"""

import pytest

from repro.lang.ast import Program
from repro.obs import Table
from repro.parallel import (
    SimMachine,
    lpt_assignment,
    profile_rule_weights,
    round_robin_assignment,
)
from repro.programs import build_sieve, build_tc, build_waltz

from .conftest import emit

N_SITES = 4


def fused_workloads():
    tc = build_tc(n_nodes=16, shape="chain")
    waltz = build_waltz(n_drawings=6, chain_length=8)
    sieve = build_sieve(limit=40)
    parts = [tc, waltz, sieve]
    program = Program(
        literalizes=tuple(l for wl in parts for l in wl.program.literalizes),
        rules=tuple(r for wl in parts for r in wl.program.rules),
        meta_rules=(),
    )

    def setup(machine):
        for wl in parts:
            wl.setup(machine)

    def verify(wm):
        checks = {}
        for wl in parts:
            for key, ok in wl.verify(wm).items():
                checks[f"{wl.name}:{key}"] = ok
        return checks

    return program, setup, verify


def run_assignment(kind):
    program, setup, verify = fused_workloads()
    if kind == "round-robin":
        assignment = round_robin_assignment(program.rules, N_SITES)
    else:
        weights = profile_rule_weights(program, setup)
        assignment = lpt_assignment(program.rules, N_SITES, weights)
    machine = SimMachine(program, N_SITES, assignment=assignment)
    setup(machine)
    result = machine.run(max_cycles=10_000)
    assert all(verify(machine.wm).values())
    return result


@pytest.fixture(scope="module")
def ablation1():
    results = {kind: run_assignment(kind) for kind in ("round-robin", "lpt")}
    table = Table(
        "Ablation A1: site assignment policy (fused tc+waltz+sieve, 4 sites)",
        ["policy", "total ticks", "parallel ticks", "load imbalance"],
    )
    for kind, res in results.items():
        table.add(kind, res.total_ticks, res.parallel_ticks, res.load_imbalance)
    emit(table, "ablation1_partition")
    return results


def test_a1_lpt_no_worse(benchmark, ablation1):
    rr = ablation1["round-robin"]
    lpt = ablation1["lpt"]
    assert lpt.parallel_ticks <= rr.parallel_ticks * 1.02
    assert lpt.load_imbalance <= rr.load_imbalance * 1.05
    benchmark(lambda: run_assignment("lpt"))


def test_a1_same_answers(benchmark, ablation1):
    rr = ablation1["round-robin"]
    lpt = ablation1["lpt"]
    assert rr.cycles == lpt.cycles
    assert rr.firings == lpt.firings
    benchmark(lambda: run_assignment("round-robin"))
