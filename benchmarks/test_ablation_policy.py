"""Ablation A3 — conflict arbitration: meta-rules vs mechanical policies.

PARULEL's claim is that *declarative* conflict resolution (meta-rules) is
the right way to make a parallel firing set safe. This ablation strips the
shortest-path program's meta-rules and lets the engine's mechanical
interference policies arbitrate instead:

| variant | arbitration | expected |
|---|---|---|
| meta-rules + error | redaction picks each node's min | correct, parallel |
| none + error | abort on first conflicting modify | InterferenceError or silent corruption |
| none + first | earliest firing wins | wrong distances (duplicate seeds) |
| none + merge | last write wins | wrong distances (duplicate seeds) |
| OPS5 sequential | one firing per cycle | correct, slow |

Only redaction (or full serialization) yields correct results: mechanical
policies resolve *update* collisions but cannot express "only the minimum
may fire" — which is the paper's argument in one table.
"""

import pytest

from repro.errors import InterferenceError
from repro.baseline import OPS5Engine
from repro.core import EngineConfig, ParulelEngine
from repro.obs import Table
from repro.programs.routing import build_routing, routing_program

from .conftest import emit

SEEDS = (2, 5, 23, 31)


def run_variant(variant, seed):
    wl = build_routing(n_nodes=12, extra_edges=16, seed=seed)
    if variant == "ops5":
        engine = OPS5Engine(wl.program)
        wl.setup(engine)
        result = engine.run(max_cycles=100_000)
        return {
            "cycles": result.cycles,
            "correct": wl.verify_ok(engine.wm),
            "aborted": False,
        }
    if variant == "meta+error":
        program, cfg = wl.program, EngineConfig()
    else:
        policy = variant.split("+")[1]
        program = routing_program(with_meta_rules=False)
        cfg = EngineConfig(interference=policy)
    engine = ParulelEngine(program, cfg)
    wl.setup(engine)
    try:
        result = engine.run(max_cycles=2000)
    except InterferenceError:
        return {"cycles": None, "correct": False, "aborted": True}
    return {
        "cycles": result.cycles,
        "correct": wl.verify_ok(engine.wm),
        "aborted": False,
    }


VARIANTS = ("meta+error", "none+error", "none+first", "none+merge", "ops5")


@pytest.fixture(scope="module")
def ablation3():
    data = {
        variant: [run_variant(variant, seed) for seed in SEEDS]
        for variant in VARIANTS
    }
    table = Table(
        "Ablation A3: arbitration strategy on shortest paths (4 graph seeds)",
        ["variant", "correct runs", "aborted runs", "mean cycles (correct only)"],
    )
    for variant in VARIANTS:
        runs = data[variant]
        correct = [r for r in runs if r["correct"]]
        aborted = sum(1 for r in runs if r["aborted"])
        mean_cycles = (
            sum(r["cycles"] for r in correct) / len(correct) if correct else None
        )
        table.add(variant, len(correct), aborted, mean_cycles)
    emit(table, "ablation3_policy")
    return data


def test_a3_meta_rules_always_correct(benchmark, ablation3):
    assert all(r["correct"] for r in ablation3["meta+error"])
    benchmark(lambda: run_variant("meta+error", SEEDS[0]))


def test_a3_ops5_always_correct_but_sequential(benchmark, ablation3):
    assert all(r["correct"] for r in ablation3["ops5"])
    meta_cycles = [r["cycles"] for r in ablation3["meta+error"]]
    ops5_cycles = [r["cycles"] for r in ablation3["ops5"]]
    assert sum(ops5_cycles) > sum(meta_cycles) * 2
    benchmark(lambda: run_variant("ops5", SEEDS[0]))


def test_a3_mechanical_policies_fail_somewhere(benchmark, ablation3):
    """At least one graph must defeat each meta-rule-free variant —
    otherwise the redaction rules would be unnecessary decoration."""
    for variant in ("none+error", "none+first", "none+merge"):
        runs = ablation3[variant]
        assert any((not r["correct"]) or r["aborted"] for r in runs), variant
    benchmark(lambda: run_variant("none+first", SEEDS[0]))
