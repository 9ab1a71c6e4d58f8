"""Ablation A2 — TREAT vs RETE under working-memory churn.

The churn workload repeatedly retracts and re-asserts a block of chain-head
WMEs. RETE pays to tear down and rebuild beta tokens on every delete/add
pair; TREAT retains no beta state — it re-derives seeded joins instead.
Measured quantities per engine: wall-clock over the churn phase, total
match operations, and retained beta tokens (RETE's state, TREAT's zero).

Expected shape (Miranker's trade): TREAT's retained state is zero while
RETE's grows with the join; their operation counts stay within a modest
factor of each other, with TREAT's retraction cost lower (conflict-set
scan) and its re-add cost higher (join re-derivation). Both always agree
on the conflict set.
"""

import time

import pytest

from repro.match.interface import create_matcher
from repro.match.stats import COUNTER_NAMES
from repro.obs import Table
from repro.programs import build_churn_workload

from .conftest import emit

CHURN_STEPS = 25


def run_churn(engine_name, chain_length=4, n_entities=24):
    cw = build_churn_workload(chain_length=chain_length, n_entities=n_entities)
    wm = cw.fresh_wm()
    matcher = create_matcher(engine_name, cw.program.rules, wm)
    block = cw.load(wm)
    matcher.instantiations()
    matcher.stats.reset()

    start = time.perf_counter()
    for step in range(CHURN_STEPS):
        block = cw.churn(wm, block, step)
        matcher.instantiations()
    wall = time.perf_counter() - start

    ops = sum(matcher.stats.totals[c] for c in COUNTER_NAMES)
    tokens = matcher.token_count() if hasattr(matcher, "token_count") else 0
    keys = sorted(i.key for i in matcher.instantiations())
    return wall, ops, tokens, keys


@pytest.fixture(scope="module")
def ablation2():
    data = {name: run_churn(name) for name in ("rete", "treat")}
    table = Table(
        f"Ablation A2: {CHURN_STEPS} churn steps, 4-way chain join, 24 entities",
        ["engine", "wall ms", "match ops", "retained beta tokens"],
    )
    for name, (wall, ops, tokens, _keys) in data.items():
        table.add(name, wall * 1000, ops, tokens)
    emit(table, "ablation2_treat_churn")
    return data


def test_a2_equivalence(benchmark, ablation2):
    assert ablation2["rete"][3] == ablation2["treat"][3]
    benchmark(lambda: run_churn("treat"))


def test_a2_state_footprint(benchmark, ablation2):
    """TREAT retains no beta state; RETE's token store is live join state
    that churn forces it to maintain."""
    assert ablation2["treat"][2] == 0
    assert ablation2["rete"][2] > 0
    benchmark(lambda: run_churn("rete"))


def test_a2_work_within_factor(ablation2):
    """Neither engine may blow up under churn: their match-op totals stay
    within an order of magnitude (the trade is state vs recomputation, not
    asymptotics, on this workload)."""
    rete_ops = ablation2["rete"][1]
    treat_ops = ablation2["treat"][1]
    assert treat_ops < rete_ops * 10
    assert rete_ops < treat_ops * 10
