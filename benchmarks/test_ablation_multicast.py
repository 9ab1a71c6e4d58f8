"""Ablation A4 — update distribution: broadcast vs interest multicast.

The SimMachine's default charges every WM change to every site (full
replication, as on the paper's shared-memory hardware). The PARADISER-era
refinement delivers a change only to sites whose rules *read* the changed
class. On a fused multi-application rule base (tc + waltz + sieve, whose
class sets are disjoint) most updates interest only a fraction of the
sites, so multicast cuts both message count and simulated time, without
changing any result.
"""

import pytest

from repro.lang.ast import Program
from repro.obs import Table
from repro.parallel import SimMachine
from repro.programs import build_sieve, build_tc, build_waltz

from .conftest import emit

N_SITES = 6


def fused():
    tc = build_tc(n_nodes=16, shape="chain")
    waltz = build_waltz(n_drawings=6, chain_length=8)
    sieve = build_sieve(limit=40)
    parts = [tc, waltz, sieve]
    program = Program(
        literalizes=tuple(l for wl in parts for l in wl.program.literalizes),
        rules=tuple(r for wl in parts for r in wl.program.rules),
    )
    return program, parts


def run(multicast):
    program, parts = fused()
    machine = SimMachine(program, N_SITES, multicast=multicast)
    for wl in parts:
        wl.setup(machine)
    result = machine.run(max_cycles=10_000)
    for wl in parts:
        assert wl.failed_checks(machine.wm) == []
    return result


@pytest.fixture(scope="module")
def ablation4():
    data = {"broadcast": run(False), "multicast": run(True)}
    table = Table(
        f"Ablation A4: update delivery on {N_SITES} sites (fused tc+waltz+sieve)",
        ["delivery", "messages", "total ticks", "parallel ticks"],
    )
    for kind, res in data.items():
        table.add(kind, res.messages, res.total_ticks, res.parallel_ticks)
    emit(table, "ablation4_multicast")
    return data


def test_a4_multicast_reduces_messages(benchmark, ablation4):
    bc, mc = ablation4["broadcast"], ablation4["multicast"]
    assert mc.messages < bc.messages * 0.8, (mc.messages, bc.messages)
    benchmark(lambda: run(True))


def test_a4_results_identical(benchmark, ablation4):
    bc, mc = ablation4["broadcast"], ablation4["multicast"]
    assert bc.cycles == mc.cycles
    assert bc.firings == mc.firings
    assert mc.total_ticks <= bc.total_ticks
    benchmark(lambda: run(False))
