"""Ablation A5 — RETE beta-prefix sharing: state and work saved.

Classic OPS5 programs keep a *context/goal element* as the first CE of
every rule (the MEA idiom), which makes their beta prefixes highly
shareable. This ablation builds such a program — one context element,
``n_groups`` rule families of ``n_variants`` rules each sharing a
two-CE prefix — loads it, and compares plain RETE against ``rete-shared``
on retained tokens, match operations, and conflict-set equality.

Expected shape: sharing removes the duplicated prefix tokens and their
maintenance work (savings grow with the number of variants per family)
while producing the identical conflict set.
"""

import pytest

from repro.lang.builder import ProgramBuilder, v
from repro.match.rete import ReteMatcher, SharedReteMatcher
from repro.match.stats import COUNTER_NAMES
from repro.obs import Table
from repro.wm.memory import WorkingMemory

from .conftest import emit

N_GROUPS = 4
N_VARIANTS = 5
N_ITEMS = 30


def mea_style_program():
    pb = ProgramBuilder()
    for g in range(N_GROUPS):
        for variant in range(N_VARIANTS):
            (
                pb.rule(f"g{g}-v{variant}")
                .ce("context", phase=f"phase{g}")
                .ce(f"item{g}", key=v("k"), size=v("s"))
                .ce(f"detail{g}", key=v("k"), tag=variant)
                .halt()
            )
    return pb.build(analyze=False)


def load(wm: WorkingMemory) -> None:
    for g in range(N_GROUPS):
        wm.make("context", phase=f"phase{g}")
        for i in range(N_ITEMS):
            wm.make(f"item{g}", key=i, size=i % 7)
            wm.make(f"detail{g}", key=i, tag=i % N_VARIANTS)


def measure(shared: bool):
    program = mea_style_program()
    wm = WorkingMemory()
    cls = SharedReteMatcher if shared else ReteMatcher
    matcher = cls(program.rules, wm)
    load(wm)
    insts = sorted(i.key for i in matcher.instantiations())
    ops = sum(matcher.stats.totals[c] for c in COUNTER_NAMES)
    return {
        "tokens": matcher.token_count(),
        "ops": ops,
        "shared_nodes": matcher.shared_nodes,
        "conflict_set": insts,
    }


@pytest.fixture(scope="module")
def ablation5():
    data = {"plain": measure(False), "shared": measure(True)}
    table = Table(
        f"Ablation A5: beta-prefix sharing ({N_GROUPS}x{N_VARIANTS} "
        f"MEA-style rules, {N_ITEMS} items/group)",
        ["variant", "retained tokens", "match ops", "nodes reused"],
    )
    for kind, d in data.items():
        table.add(kind, d["tokens"], d["ops"], d["shared_nodes"])
    emit(table, "ablation5_beta_sharing")
    return data


def test_a5_identical_conflict_sets(benchmark, ablation5):
    assert ablation5["plain"]["conflict_set"] == ablation5["shared"]["conflict_set"]
    benchmark(lambda: measure(True))


def test_a5_sharing_saves_state_and_work(benchmark, ablation5):
    plain, shared = ablation5["plain"], ablation5["shared"]
    # Each family's two-CE prefix is built once instead of N_VARIANTS times.
    assert shared["shared_nodes"] == N_GROUPS * (N_VARIANTS - 1) * 2
    assert shared["tokens"] < plain["tokens"] * 0.6
    assert shared["ops"] < plain["ops"]
    benchmark(lambda: measure(False))
