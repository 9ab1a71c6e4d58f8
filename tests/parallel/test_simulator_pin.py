"""Every field the simulators report, pinned on a fixed set of cases.

``SimMachine`` and ``DistributedMachine`` are cost models: their ticks,
messages, makespans and fault events feed Figures 1/2/5/6 and Ablations
A1/A4/A6. This test records all of it — plus the final working memory —
for a small matrix, so a change to how the simulators are built cannot
move a number unnoticed:

- tc on both machines at P ∈ {1, 4}, broadcast and multicast,
  round-robin and LPT;
- circuit on the distributed machine at P = 4 under four fault plans;
- manners on the distributed machine with the analysis partition.

The expected values live in ``simulator_pin.json``. After an intentional
cost-model change, regenerate them with
``PYTHONPATH=src python -m tests.parallel.test_simulator_pin --write``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Dict

import pytest

from repro.parallel import DistributedMachine, SimMachine, lpt_assignment
from repro.programs import REGISTRY
from repro.resilience import FaultPlan, SiteCrash
from repro.wm.io import dumps

EXPECTED_PATH = Path(__file__).with_name("simulator_pin.json")

FAULT_PLANS = {
    "clean": None,
    "drop=0.1": FaultPlan(seed=17, drop_rate=0.1),
    "crash@3": FaultPlan(seed=17, crashes=(SiteCrash(cycle=3, site=1),)),
    "crash@2 rejoin@4": FaultPlan(
        seed=17, crashes=(SiteCrash(cycle=2, site=1, rejoin_cycle=4),)
    ),
}


def _cases() -> Dict[str, Dict[str, Any]]:
    cases: Dict[str, Dict[str, Any]] = {}
    for machine in ("sim", "dist"):
        for p in (1, 4):
            for delivery in ("broadcast", "multicast"):
                for assignment in ("round-robin", "lpt"):
                    cases[f"{machine}/tc/P{p}/{delivery}/{assignment}"] = dict(
                        machine=machine,
                        workload="tc",
                        n_sites=p,
                        multicast=delivery == "multicast",
                        assignment=assignment,
                    )
    for label in FAULT_PLANS:
        cases[f"dist/circuit/P4/{label}"] = dict(
            machine="dist", workload="circuit", n_sites=4, fault_plan=label
        )
    cases["dist/manners/P4/multicast/analysis"] = dict(
        machine="dist",
        workload="manners",
        n_sites=4,
        multicast=True,
        assignment="analysis",
    )
    return cases


CASES = _cases()


def _final_wm(machine):
    # The distributed machine's store is ``wm`` like SimMachine's; a
    # machine that kept one store per site exposes its master's first.
    wm = getattr(machine, "wm", None)
    return machine.replicas[0] if wm is None else wm


def record(case: Dict[str, Any]) -> Dict[str, Any]:
    """Run one case; every result field plus the final working memory."""
    wl = REGISTRY[case["workload"]]()
    n_sites = case["n_sites"]
    assignment = case.get("assignment")
    if assignment == "lpt":
        # Fixed weights (not a profiled run): tc-extend, the heavy rule,
        # lands on site 0 and tc-init on site 1 — the reverse of
        # round-robin.
        assignment = lpt_assignment(wl.program.rules, n_sites, {"tc-extend": 10.0})
    elif assignment == "round-robin":
        assignment = None  # the default
    options = dict(assignment=assignment, multicast=case.get("multicast", False))
    if case["machine"] == "sim":
        machine = SimMachine(wl.program, n_sites, **options)
    else:
        machine = DistributedMachine(
            wl.program,
            n_sites,
            fault_plan=FAULT_PLANS[case.get("fault_plan", "clean")],
            **options,
        )
    wl.setup(machine)
    result = machine.run(max_cycles=5000)
    fields = dict(vars(result))
    if "fault_events" in fields:
        fields["fault_events"] = [
            [e.cycle, e.kind, e.site, e.detail] for e in result.fault_events
        ]
    text = dumps(_final_wm(machine))
    fields["wm_lines"] = text.count("\n")
    fields["wm_sha256"] = hashlib.sha256(text.encode()).hexdigest()
    return fields


def _expected() -> Dict[str, Any]:
    return json.loads(EXPECTED_PATH.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_simulator_fields_pinned(name):
    assert record(CASES[name]) == _expected()[name]


def test_pin_covers_every_case():
    assert sorted(_expected()) == sorted(CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python -m tests.parallel.test_simulator_pin --write")
    EXPECTED_PATH.write_text(
        json.dumps({name: record(c) for name, c in sorted(CASES.items())}, indent=1)
        + "\n"
    )
