"""Table 3 — the cost of programmable conflict resolution.

For every meta-rule-bearing workload: redactions per cycle, meta-level
match cycles and firings, rule tries (reified candidates × meta-cycles —
what the meta level was offered, against what it fired), and the fraction
of engine wall time spent in the redaction phase. Expected shape:
redaction is a visible but modest fraction of the cycle (the paper's
argument that declarative conflict resolution is affordable) — asserted
as < 85% of wall time, > 0 work.
"""

import pytest

from repro.core import ParulelEngine
from repro.obs import Table, summarize_cycles
from repro.programs import REGISTRY

from .conftest import emit

META_WORKLOADS = ["manners", "routing", "sort-meta"]


def run_with_meta(name):
    wl = REGISTRY[name]()
    engine = ParulelEngine(wl.program)
    wl.setup(engine)
    result = engine.run(max_cycles=10_000)
    assert wl.failed_checks(engine.wm) == []
    total = sum(result.phase_times.values())
    redact_frac = result.phase_times["redact"] / total if total else 0.0
    summary = summarize_cycles(result.reports)
    return {
        "cycles": result.cycles,
        "candidates": sum(r.candidates for r in result.reports),
        "redacted": summary["total_redacted"],
        "redacted_per_cycle": summary["redacted_per_cycle"],
        "meta_cycles": summary["meta_cycles"],
        "meta_firings": sum(r.redaction.meta_firings for r in result.reports),
        "rule_tries": sum(r.redaction.rule_tries for r in result.reports),
        "redact_fraction": redact_frac,
    }


@pytest.fixture(scope="module")
def table3():
    data = {name: run_with_meta(name) for name in META_WORKLOADS}
    table = Table(
        "Table 3: meta-rule redaction overhead",
        [
            "program",
            "cycles",
            "candidates",
            "redacted",
            "redacted/cycle",
            "meta cycles",
            "meta firings",
            "rule tries",
            "redact time frac",
        ],
        precision=3,
    )
    for name in META_WORKLOADS:
        d = data[name]
        table.add(
            name,
            d["cycles"],
            d["candidates"],
            d["redacted"],
            d["redacted_per_cycle"],
            d["meta_cycles"],
            d["meta_firings"],
            d["rule_tries"],
            d["redact_fraction"],
        )
    emit(table, "table3_redaction")
    return data


@pytest.mark.parametrize("name", META_WORKLOADS)
def test_table3_shape(benchmark, table3, name):
    def run():
        wl = REGISTRY[name]()
        engine = ParulelEngine(wl.program)
        wl.setup(engine)
        return engine.run(max_cycles=10_000)

    benchmark(run)
    d = table3[name]
    assert d["redacted"] > 0, "meta rules must actually redact"
    assert d["meta_cycles"] >= 1, "meta level must have run"
    # Redaction only fires on contended cycles; the survivors must still
    # account for every candidate (fired + redacted = candidates).
    assert d["redacted"] < d["candidates"]
    assert d["redact_fraction"] < 0.85, (
        "redaction should not dominate the cycle"
    )


def test_table3_redaction_scales_with_contention(benchmark):
    """More contenders ⇒ more redactions, still one survivor per seat.

    (Scaling behaviour of the meta level, benchmarked on the biggest size.)
    """
    from repro.programs import build_manners

    redactions = {}
    for n in (8, 16):
        wl = build_manners(n_guests=n)
        engine = ParulelEngine(wl.program)
        wl.setup(engine)
        result = engine.run(max_cycles=10_000)
        redactions[n] = sum(r.redaction.redacted for r in result.reports)
    assert redactions[16] > redactions[8]

    def biggest():
        wl = build_manners(n_guests=16)
        engine = ParulelEngine(wl.program)
        wl.setup(engine)
        return engine.run(max_cycles=10_000)

    benchmark(biggest)
