"""Figure 1 — simulated speedup vs number of sites.

Runs tc, waltz, and sieve on the SimMachine at P ∈ {1, 2, 4, 8, 16}. Each
program's hot rule is copy-and-constrained into P covering partitions so
programs with few rules still expose data parallelism (this mirrors the
paper's methodology: copy-and-constrain was how PARULEL programs were
prepared for multiprocessors). Expected shape: speedup grows with P and is
monotone (within slack) before saturating against the serial fraction
(redaction + merge + barrier), Amdahl style.

Ticks come from the deterministic cost model, so this figure is exactly
reproducible.
"""

import pytest

from repro.lab import (
    SimMachine,
    SpeedupSeries,
    copy_and_constrain_program,
    hash_partitions,
)
from repro.obs import Table
from repro.programs import REGISTRY

from .conftest import emit

SITES = (1, 2, 4, 8, 16)
PROGRAMS = ["tc", "waltz", "sieve"]


def prepared_program(wl, n_sites):
    """Copy-and-constrain the workload's hot rule into n_sites partitions."""
    if wl.cc_hint is None or n_sites == 1:
        return wl.program
    rule_name, ce_index, attr = wl.cc_hint
    ce = wl.program.rule(rule_name).conditions[ce_index - 1]
    domain = wl.domains.get((ce.class_name, attr))
    if domain is None:
        # fall back to any domain declared for this attribute
        domain = next(
            (vals for (cls, a), vals in wl.domains.items() if a == attr), None
        )
    if not domain:
        return wl.program
    parts = hash_partitions(list(domain), n_sites)
    return copy_and_constrain_program(wl.program, rule_name, ce_index, attr, parts)


def run_series(name):
    series = SpeedupSeries(name)
    for n_sites in SITES:
        wl = REGISTRY[name]()
        program = prepared_program(wl, n_sites)
        machine = SimMachine(program, n_sites)
        wl.setup(machine)
        result = machine.run(max_cycles=10_000)
        assert wl.failed_checks(machine.wm) == [], name
        series.add(n_sites, result.total_ticks)
    return series


@pytest.fixture(scope="module")
def figure1():
    data = {name: run_series(name) for name in PROGRAMS}
    table = Table(
        "Figure 1: simulated speedup vs sites (copy-and-constrained hot rule)",
        ["program"] + [f"S(P={p})" for p in SITES],
    )
    for name in PROGRAMS:
        s = data[name]
        table.add(name, *[s.speedup(p) for p in SITES])
    emit(table, "fig1_speedup")
    return data


@pytest.mark.parametrize("name", PROGRAMS)
def test_fig1_shape(benchmark, figure1, name):
    series = figure1[name]

    def simulate_p8():
        wl = REGISTRY[name]()
        machine = SimMachine(prepared_program(wl, 8), 8)
        wl.setup(machine)
        return machine.run(max_cycles=10_000)

    benchmark(simulate_p8)

    # Shape assertions: real speedup by P=8, monotone growth within slack,
    # and sublinearity (the serial fraction is charged honestly).
    assert series.speedup(8) > 1.2, f"{name}: no parallel speedup at P=8"
    assert series.is_monotone_to(8, slack=0.10), f"{name}: non-monotone speedup"
    assert series.speedup(16) <= 16.0
    assert series.speedup(16) >= series.speedup(8) * 0.8  # graceful saturation


def test_fig1_serial_fraction_bounds_speedup(benchmark, figure1):
    """Amdahl check on tc: measured speedup never exceeds the bound set by
    the measured serial fraction at P=1."""
    wl = REGISTRY["tc"]()
    machine = SimMachine(wl.program, 1)
    wl.setup(machine)
    res = machine.run()
    serial_frac = res.serial_ticks / res.total_ticks
    bound = 1.0 / serial_frac
    series = figure1["tc"]
    for p in SITES:
        assert series.speedup(p) <= bound * 1.05

    def rerun():
        wl2 = REGISTRY["tc"]()
        m = SimMachine(wl2.program, 1)
        wl2.setup(m)
        return m.run()

    benchmark(rerun)
