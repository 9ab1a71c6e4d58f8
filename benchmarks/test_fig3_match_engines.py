"""Figure 3 — match-engine comparison: RETE vs TREAT vs naive.

Loads the synthetic equijoin workload at growing working-memory sizes and
measures, per engine, (a) wall-clock to incorporate the load and read the
conflict set, and (b) abstract match operations. Expected shape:

- naive's cost explodes with WM size (it recomputes full joins — the
  classic result motivating incremental match);
- RETE and TREAT stay within a small factor of each other here (append-
  only load, no churn — churn is Ablation A2's job);
- all engines produce identical conflict sets (asserted).

The classic comparison runs with ``indexed=False``: hash-indexed alpha
memories rescue naive's recompute enough to blunt the figure's point (that
is the *new* result, shown by the ``figure3_indexing`` continuation table
and Ablation A7 — here we reproduce the historical motivation).
"""

import time

import pytest

from repro.lab.rete import create_lab_matcher
from repro.match.interface import create_matcher
from repro.match.stats import COUNTER_NAMES
from repro.obs import Table
from repro.programs import build_join_workload
from tests.nested_loop import SERIAL_MATCHERS

from .conftest import emit
from .match_microbench import run_workload

SIZES = (50, 100, 200, 400)
ENGINES = ("rete", "treat", "naive")
INDEX_WORKLOADS = ("tc", "manners", "waltz")


def measure(engine_name, n_wmes):
    jw = build_join_workload(n_rules=3, n_keys=40, seed=9)
    wm = jw.fresh_wm()
    matcher = SERIAL_MATCHERS[engine_name](jw.program.rules, wm, indexed=False)
    start = time.perf_counter()
    jw.load(wm, n_wmes)
    insts = matcher.instantiations()
    wall = time.perf_counter() - start
    ops = sum(matcher.stats.totals[c] for c in COUNTER_NAMES)
    keys = sorted(i.key for i in insts)
    return wall, ops, keys


@pytest.fixture(scope="module")
def figure3():
    data = {}
    for engine in ENGINES:
        for n in SIZES:
            data[(engine, n)] = measure(engine, n)
    table = Table(
        "Figure 3: match cost vs WM size (3 equijoin rules, 40 keys)",
        ["engine", "WMEs/class", "wall ms", "match ops", "instantiations"],
    )
    for engine in ENGINES:
        for n in SIZES:
            wall, ops, keys = data[(engine, n)]
            table.add(engine, n, wall * 1000, ops, len(keys))
    emit(table, "fig3_match_engines")
    return data


@pytest.mark.parametrize("engine", ENGINES)
def test_fig3_benchmark_each_engine(benchmark, figure3, engine):
    benchmark(lambda: measure(engine, 200))
    # All engines agree on the conflict set at every size.
    for n in SIZES:
        assert figure3[(engine, n)][2] == figure3[("rete", n)][2]


def test_fig3_shape(benchmark, figure3):
    # Naive must do dramatically more work than RETE at the largest size.
    naive_ops = figure3[("naive", SIZES[-1])][1]
    rete_ops = figure3[("rete", SIZES[-1])][1]
    assert naive_ops > rete_ops * 3, (naive_ops, rete_ops)

    # Incremental engines' op counts grow roughly with output size, naive's
    # superlinearly with input: compare growth factors across sizes.
    def growth(engine):
        return figure3[(engine, SIZES[-1])][1] / max(
            figure3[(engine, SIZES[0])][1], 1
        )

    assert growth("naive") > growth("rete")

    benchmark(lambda: measure("rete", SIZES[-1]))


def test_fig3_naive_recompute_dominates(benchmark, figure3):
    """Repeated conflict-set reads after single-WME updates: the regime
    where incremental match wins by orders of magnitude."""

    def naive_reread():
        jw = build_join_workload(n_rules=2, n_keys=20, seed=9)
        wm = jw.fresh_wm()
        matcher = create_matcher("naive", jw.program.rules, wm)
        jw.load(wm, 100)
        matcher.instantiations()
        for i in range(10):
            wm.make("left0", key=i % 20, payload=1000 + i)
            matcher.instantiations()
        return matcher.stats.totals["join_probes"]

    def rete_reread():
        jw = build_join_workload(n_rules=2, n_keys=20, seed=9)
        wm = jw.fresh_wm()
        matcher = create_lab_matcher("rete", jw.program.rules, wm)
        jw.load(wm, 100)
        matcher.instantiations()
        for i in range(10):
            wm.make("left0", key=i % 20, payload=1000 + i)
            matcher.instantiations()
        return matcher.stats.totals["join_probes"]

    naive_probes = naive_reread()
    rete_probes = rete_reread()
    assert naive_probes > rete_probes * 5
    benchmark(rete_reread)


@pytest.fixture(scope="module")
def figure3_indexing():
    """Hash-indexed vs nested-loop joins, full engine runs on the
    registry workloads (TREAT, the paper's engine)."""
    data = {
        name: (run_workload(name, "treat", True), run_workload(name, "treat", False))
        for name in INDEX_WORKLOADS
    }
    table = Table(
        "Figure 3 (cont.): hash-indexed vs nested-loop joins (treat)",
        ["workload", "indexed ops", "nested-loop ops", "reduction", "indexed ms", "nested-loop ms"],
    )
    for name, (idx, scan) in data.items():
        table.add(
            name,
            idx["ops"],
            scan["ops"],
            f"{scan['ops'] / max(idx['ops'], 1):.1f}x",
            idx["wall_ms"],
            scan["wall_ms"],
        )
    emit(table, "fig3_join_indexing")
    return data


def test_fig3_indexing_win(benchmark, figure3_indexing):
    """Indexing cuts join work on every workload without changing a single
    cycle or firing; on manners the contract is a >=5x reduction."""
    for name, (idx, scan) in figure3_indexing.items():
        assert (idx["cycles"], idx["firings"]) == (scan["cycles"], scan["firings"]), name
        assert idx["ops"] < scan["ops"], name
    manners_idx, manners_scan = figure3_indexing["manners"]
    assert manners_scan["ops"] >= 5 * manners_idx["ops"], (
        manners_scan["ops"],
        manners_idx["ops"],
    )
    benchmark(lambda: run_workload("waltz", "treat", True))
