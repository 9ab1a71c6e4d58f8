"""Figure 5 (extension) — distributed execution: latency sensitivity.

The shared-memory SimMachine charges a flat broadcast per WM change; the
PARADISER-style :class:`~repro.parallel.DistributedMachine` replicates
working memory per site and ships candidate gathers, redaction verdicts,
and delta scatters over a network with per-round **latency**. This figure
sweeps latency at P = 4 on the circuit workload:

- at near-zero latency the distributed machine behaves like the
  shared-memory simulation (communication is a small tax);
- as latency grows, the two rounds per cycle dominate and the
  communication fraction approaches 1 — the classic reason the
  DADO/PARULEL line preferred tightly coupled hardware, reproduced as a
  curve.

Results are deterministic ticks; correctness (ground-truth verification
of the final working memory) is asserted at each point.
"""

import pytest

from repro.obs import Table
from repro.parallel import DistributedMachine, NetworkModel
from repro.programs import build_circuit

from .conftest import emit

LATENCIES = (0.0, 10.0, 50.0, 250.0, 1000.0)
N_SITES = 4


def run_at_latency(latency, n_sites=N_SITES):
    wl = build_circuit(n_inputs=6, n_levels=8, gates_per_level=6)
    machine = DistributedMachine(
        wl.program, n_sites, network=NetworkModel(latency=latency)
    )
    wl.setup(machine)
    result = machine.run(max_cycles=5000)
    assert wl.failed_checks(machine.wm) == []
    return result


@pytest.fixture(scope="module")
def figure5():
    data = {lat: run_at_latency(lat) for lat in LATENCIES}
    # The serial baseline exchanges no messages, so it pays no latency at
    # all — it is one run, not one per latency (a regression here once
    # inflated every speedup in this figure).
    serial = run_at_latency(0.0, n_sites=1)
    table = Table(
        f"Figure 5: distributed circuit simulation vs network latency (P={N_SITES})",
        [
            "latency",
            "total ticks",
            "comm ticks",
            "comm fraction",
            "messages",
            "speedup vs P=1",
        ],
        precision=3,
    )
    for lat in LATENCIES:
        res = data[lat]
        table.add(
            lat,
            res.total_ticks,
            res.comm_ticks,
            res.comm_fraction,
            res.messages,
            serial.total_ticks / res.total_ticks,
        )
    emit(table, "fig5_distributed")
    return {**data, "serial": serial}


def test_fig5_latency_shape(benchmark, figure5):
    # Total time strictly increases with latency; results never change.
    totals = [figure5[lat].total_ticks for lat in LATENCIES]
    assert totals == sorted(totals)
    assert len(set(totals)) == len(totals)
    cycles = {figure5[lat].cycles for lat in LATENCIES}
    firings = {figure5[lat].firings for lat in LATENCIES}
    assert len(cycles) == 1 and len(firings) == 1

    benchmark(lambda: run_at_latency(50.0))


def test_fig5_comm_fraction_approaches_one(benchmark, figure5):
    fractions = [figure5[lat].comm_fraction for lat in LATENCIES]
    assert fractions == sorted(fractions)
    assert fractions[-1] > 0.6, "high latency must dominate the run"
    assert fractions[0] < 0.5, "near-zero latency must not dominate"
    benchmark(lambda: run_at_latency(0.0))


def test_fig5_messages_invariant_to_latency(figure5):
    messages = {figure5[lat].messages for lat in LATENCIES}
    assert len(messages) == 1


def test_fig5_serial_baseline_pays_no_latency(figure5):
    # Regression: P=1 used to be charged gather+scatter round latency per
    # cycle despite sending zero messages, inflating apparent speedups.
    serial = figure5["serial"]
    assert serial.messages == 0
    assert serial.comm_ticks == 0.0
    worst_case = run_at_latency(1000.0, n_sites=1)
    assert worst_case.total_ticks == serial.total_ticks
