"""Figure 4 — firing-set size per cycle: the parallelism PARULEL exposes.

For each workload, the per-cycle firing-set sizes (the number of
instantiations fired simultaneously). This is the quantity that bounds any
parallel implementation's useful speedup — the paper's argument for why
set-oriented semantics matters. Expected shapes:

- tc: a rising-then-falling frontier wave (widest mid-closure);
- waltz: a flat plateau at n_drawings (all chains advance in lock step);
- sort: wide phases narrowing as the permutation sorts;
- monkey: all-ones (the honesty row — no parallelism to expose).
"""

import pytest

from repro.core import ParulelEngine
from repro.obs import Table
from repro.programs import REGISTRY, build_waltz

from .conftest import emit

WORKLOADS = sorted(REGISTRY)


def firing_profile(name):
    wl = REGISTRY[name]()
    engine = ParulelEngine(wl.program)
    wl.setup(engine)
    result = engine.run(max_cycles=10_000)
    assert wl.failed_checks(engine.wm) == []
    return result.firing_set_sizes


@pytest.fixture(scope="module")
def figure4():
    profiles = {name: firing_profile(name) for name in WORKLOADS}
    table = Table(
        "Figure 4: firing-set size per cycle",
        ["program", "cycles", "min", "mean", "max", "profile (first 12 cycles)"],
    )
    for name in WORKLOADS:
        sizes = profiles[name]
        table.add(
            name,
            len(sizes),
            min(sizes),
            sum(sizes) / len(sizes),
            max(sizes),
            " ".join(str(s) for s in sizes[:12]),
        )
    emit(table, "fig4_firing_sets")
    return profiles


@pytest.mark.parametrize("name", WORKLOADS)
def test_fig4_profiles(benchmark, figure4, name):
    benchmark(lambda: firing_profile(name))
    sizes = figure4[name]
    if name == "monkey":
        assert all(s == 1 for s in sizes)
    elif name == "waltz":
        # All drawings advance together: flat profile at n_drawings.
        assert len(set(sizes)) == 1
    elif name in ("tc", "sort", "sieve", "circuit"):
        assert max(sizes) >= 4, f"{name} should expose real parallelism"


def test_fig4_waltz_plateau_scales_with_drawings(benchmark, figure4):
    """The plateau height is exactly the number of replicated drawings —
    data parallelism in its purest form."""
    for n in (3, 9):
        wl = build_waltz(n_drawings=n, chain_length=5)
        engine = ParulelEngine(wl.program)
        wl.setup(engine)
        result = engine.run()
        assert result.firing_set_sizes == [n] * 5

    def biggest():
        wl = build_waltz(n_drawings=16, chain_length=10)
        engine = ParulelEngine(wl.program)
        wl.setup(engine)
        return engine.run()

    benchmark(biggest)
