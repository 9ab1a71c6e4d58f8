"""Both simulator fronts are a ParulelEngine run: every registry workload
at P ∈ {1, 2, 4} gives the plain engine's cycles, firings and final
working memory, byte for byte."""

import pytest

from repro.core import ParulelEngine
from repro.lab import DistributedMachine, SimMachine
from repro.programs import REGISTRY
from repro.wm.io import dumps


def _run(front, name, n_sites=None):
    wl = REGISTRY[name]()
    runner = front(wl.program) if n_sites is None else front(wl.program, n_sites)
    wl.setup(runner)
    result = runner.run(max_cycles=5000)
    return result.cycles, result.firings, dumps(runner.wm)


@pytest.fixture(scope="module")
def reference():
    return {name: _run(ParulelEngine, name) for name in REGISTRY}


@pytest.mark.parametrize("n_sites", [1, 2, 4])
@pytest.mark.parametrize("front", [SimMachine, DistributedMachine])
@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_front_equals_plain_engine(reference, front, name, n_sites):
    assert _run(front, name, n_sites) == reference[name]
