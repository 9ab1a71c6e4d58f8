#!/usr/bin/env python3
"""Reproducing the paper's parallel-performance methodology in miniature.

Runs the Waltz-style propagation workload on the simulated multiprocessor
at P = 1..8 sites, twice:

- **rule parallelism only** — the program's single hot rule cannot be
  split, so speedup saturates immediately;
- **copy-and-constrain** — the hot rule is replicated into P constrained
  copies over a partition of its data domain, letting the match work
  spread across sites.

This is exactly the effect Stolfo's copy-and-constrain transformation was
invented for. Ticks are deterministic simulation time (see
repro/parallel/costmodel.py), so the numbers are stable run to run.

Run:  python examples/simulated_speedup.py
"""

from repro.obs import Table
from repro.parallel import (
    SimMachine,
    SpeedupSeries,
    copy_and_constrain_program,
    hash_partitions,
)
from repro.programs import build_waltz


def run_at(program, workload, n_sites: int) -> float:
    machine = SimMachine(program, n_sites)
    workload.setup(machine)
    result = machine.run()
    assert workload.verify_ok(machine.wm), workload.failed_checks(machine.wm)
    return result.total_ticks


def main() -> None:
    workload = build_waltz(n_drawings=12, chain_length=10)
    rule_name, ce_index, attr = workload.cc_hint
    domain = workload.domains[("labeled", "line")]

    plain = SpeedupSeries("rule-parallel")
    cc = SpeedupSeries("copy-and-constrain")
    table = Table(
        "Simulated speedup, waltz 12x10 (deterministic ticks)",
        ["P", "plain ticks", "plain speedup", "c&c ticks", "c&c speedup"],
    )

    for n_sites in (1, 2, 4, 8):
        plain.add(n_sites, run_at(workload.program, workload, n_sites))
        parts = hash_partitions(domain, n_sites)
        cc_program = copy_and_constrain_program(
            workload.program, rule_name, ce_index, attr, parts
        )
        cc.add(n_sites, run_at(cc_program, workload, n_sites))
        table.add(
            n_sites,
            plain.points[n_sites],
            plain.speedup(n_sites),
            cc.points[n_sites],
            cc.speedup(n_sites),
        )

    table.show()
    assert cc.speedup(8) > plain.speedup(8), (
        "copy-and-constrain must beat rule-level parallelism on a "
        "single-hot-rule program"
    )
    print(
        f"copy-and-constrain wins at P=8: {cc.speedup(8):.2f}x vs "
        f"{plain.speedup(8):.2f}x"
    )


if __name__ == "__main__":
    main()
