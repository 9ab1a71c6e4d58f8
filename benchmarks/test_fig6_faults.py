"""Figure 6 (extension) — fault tolerance: recovery overhead vs fault rate.

PARADISER, PARULEL's distributed successor, had to keep replicated working
memories convergent on machines whose sites and messages actually fail.
This figure drives the :class:`~repro.parallel.DistributedMachine` through
seeded :class:`~repro.resilience.FaultPlan`\\ s at P = 4 on the circuit
workload, sweeping

- **message drop rate** (every drop is retried and charged one latency +
  resend through the :class:`~repro.parallel.NetworkModel`), and
- **site crashes** (permanent — rules redistribute to survivors — and
  crash-with-rejoin, charged as the returning replica replaying the
  cumulative delta log).

The invariant asserted at every point is the whole story: cycles, firings
and the final working memory are *byte-identical* to the fault-free run —
faults cost ticks, never answers. The recovery overhead column is the
headline curve.
"""

import pytest

from repro.obs import Table
from repro.parallel import DistributedMachine
from repro.programs import build_circuit
from repro.resilience import FaultPlan, SiteCrash

from .conftest import emit

DROP_RATES = (0.0, 0.05, 0.1, 0.2, 0.4)
N_SITES = 4
SEED = 17


def run_with_plan(fault_plan=None, n_sites=N_SITES):
    wl = build_circuit(n_inputs=6, n_levels=8, gates_per_level=6)
    machine = DistributedMachine(wl.program, n_sites, fault_plan=fault_plan)
    wl.setup(machine)
    result = machine.run(max_cycles=5000)
    assert wl.failed_checks(machine.wm) == []
    return machine, result


def wm_bytes(machine):
    return sorted(repr(w) for w in machine.wm.snapshot())


@pytest.fixture(scope="module")
def figure6():
    clean_machine, clean = run_with_plan()
    reference = wm_bytes(clean_machine)

    rows = {}
    for rate in DROP_RATES:
        plan = FaultPlan(seed=SEED, drop_rate=rate) if rate else None
        machine, res = run_with_plan(plan)
        assert wm_bytes(machine) == reference, f"drop rate {rate} changed results"
        assert res.cycles == clean.cycles and res.firings == clean.firings
        rows[("drop", rate)] = res

    # The circuit run is ~5 cycles and only sites 0/1 host rules at P=4,
    # so every crash targets site 1 and the rejoin lands inside the run.
    crash_plans = {
        "crash@3 (permanent)": FaultPlan(
            seed=SEED, crashes=(SiteCrash(cycle=3, site=1),)
        ),
        "crash@2 rejoin@4": FaultPlan(
            seed=SEED, crashes=(SiteCrash(cycle=2, site=1, rejoin_cycle=4),)
        ),
        "crash + 10% drop": FaultPlan(
            seed=SEED,
            drop_rate=0.1,
            crashes=(SiteCrash(cycle=3, site=1),),
        ),
    }
    for label, plan in crash_plans.items():
        machine, res = run_with_plan(plan)
        assert wm_bytes(machine) == reference, f"{label} changed results"
        assert res.cycles == clean.cycles and res.firings == clean.firings
        rows[("crash", label)] = res

    table = Table(
        f"Figure 6: fault tolerance on the circuit workload (P={N_SITES}, "
        f"seed={SEED}) — results byte-identical at every point",
        [
            "fault plan",
            "total ticks",
            "overhead",
            "retries",
            "messages",
            "recoveries",
            "fault events",
        ],
        precision=3,
    )
    for (kind, key), res in rows.items():
        label = f"drop={key:g}" if kind == "drop" else key
        table.add(
            label,
            res.total_ticks,
            res.total_ticks / clean.total_ticks,
            res.retries,
            res.messages,
            res.recoveries,
            len(res.fault_events),
        )
    emit(table, "fig6_faults")
    return {"clean": clean, "rows": rows}


def test_fig6_drop_overhead_monotone(benchmark, figure6):
    # More drops -> more retries -> more ticks; answers never change
    # (asserted in the fixture at every point).
    rows = figure6["rows"]
    retries = [rows[("drop", r)].retries for r in DROP_RATES]
    assert retries == sorted(retries)
    assert retries[0] == 0 and retries[-1] > 0
    totals = [rows[("drop", r)].total_ticks for r in DROP_RATES]
    assert totals == sorted(totals)
    benchmark(lambda: run_with_plan(FaultPlan(seed=SEED, drop_rate=0.1)))


def test_fig6_crash_recovery_visible_and_charged(figure6):
    rows = figure6["rows"]
    clean = figure6["clean"]
    permanent = rows[("crash", "crash@3 (permanent)")]
    assert permanent.recoveries == 1
    kinds = [e.kind for e in permanent.fault_events]
    assert kinds[:3] == ["crash", "detect", "redistribute"]
    # Survivors absorb the dead site's rules: the makespan rises.
    assert permanent.compute_ticks > clean.compute_ticks

    rejoin = rows[("crash", "crash@2 rejoin@4")]
    assert rejoin.recoveries == 2  # redistribute at crash, rejoin later
    assert any(e.kind == "rejoin" for e in rejoin.fault_events)
    # The rejoin replay ships the whole delta log as messages.
    assert rejoin.messages > permanent.messages


def test_fig6_seeded_plans_reproduce(figure6):
    plan = FaultPlan(seed=SEED, drop_rate=0.2)
    _m1, a = run_with_plan(plan)
    _m2, b = run_with_plan(plan)
    assert a.retries == b.retries
    assert a.total_ticks == b.total_ticks
    assert [(e.cycle, e.kind, e.site) for e in a.fault_events] == [
        (e.cycle, e.kind, e.site) for e in b.fault_events
    ]
