"""The repository's central integration matrix.

Every bundled workload must produce the *correct answer* under:

- PARULEL × {rete, treat, naive},
- OPS5 × {lex, mea},
- SimMachine with several site counts,

and every matcher must give the same cycles, firings and final WM bytes.
These are the tests that make Table 1/2 trustworthy.
"""

import pytest

from repro.baseline import OPS5Engine
from repro.core import EngineConfig, ParulelEngine
from repro.lab import SimMachine
from repro.programs import REGISTRY
from repro.wm.io import dumps
from tests.core.test_consume import projection
from tests.lab_engine import lab_engine

WORKLOADS = sorted(REGISTRY)


@pytest.fixture(scope="module")
def built():
    return {name: REGISTRY[name]() for name in WORKLOADS}


class TestParulelCorrectness:
    @pytest.mark.parametrize("name", WORKLOADS)
    @pytest.mark.parametrize("matcher", ["rete", "treat", "naive"])
    def test_workload_verifies(self, built, name, matcher):
        wl = built[name]
        engine = lab_engine(wl.program, matcher)
        wl.setup(engine)
        engine.run(max_cycles=5000)
        assert wl.failed_checks(engine.wm) == []


class TestOPS5Correctness:
    @pytest.mark.parametrize("name", WORKLOADS)
    @pytest.mark.parametrize("strategy", ["lex", "mea"])
    def test_workload_verifies(self, built, name, strategy):
        wl = built[name]
        engine = OPS5Engine(wl.program, strategy=strategy)
        wl.setup(engine)
        engine.run(max_cycles=200_000)
        assert wl.failed_checks(engine.wm) == []


class TestCrossMatcherAgreement:
    #: ``(matcher, WM store)``: every matcher on the dict store, and the
    #: pool at two and three sites on both stores — routed replicas and
    #: shared columns.
    CONFIGS = (
        ("rete", "dict"),
        ("rete-shared", "dict"),
        ("treat", "dict"),
        ("naive", "dict"),
        ("process:2", "dict"),
        ("process:3", "dict"),
        ("process:2", "columnar"),
        ("process:3", "columnar"),
    )

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_cycles_firings_and_dump_identical(self, name):
        # The dump is compared as bytes: same WMEs in the same timestamp
        # order, i.e. the matchers agree on the firing order too. Every
        # CycleReport field agrees as well: a conflict set holds what has
        # not fired under every matcher.
        results = {}
        for matcher, store in self.CONFIGS:
            wl = REGISTRY[name]()
            engine = lab_engine(wl.program, matcher, EngineConfig(wm_backend=store))
            try:
                wl.setup(engine)
                res = engine.run(max_cycles=5000)
                results[matcher, store] = (
                    res.cycles, res.firings, res.reason, dumps(engine.wm),
                    tuple(projection(r) for r in res.reports),
                )
            finally:
                engine.close()
        assert len(set(results.values())) == 1, {
            m: r[:3] for m, r in results.items()
        }


class TestSetOrientedAdvantage:
    """The Table 2 headline: PARULEL needs far fewer cycles than OPS5 on
    parallel-friendly workloads, and exactly as many firings."""

    @pytest.mark.parametrize("name", ["tc", "waltz", "sort", "sieve"])
    def test_cycle_reduction(self, built, name):
        wl = REGISTRY[name]()
        par = ParulelEngine(wl.program)
        wl.setup(par)
        pres = par.run(max_cycles=5000)

        wl2 = REGISTRY[name]()
        ops = OPS5Engine(wl2.program)
        wl2.setup(ops)
        ores = ops.run(max_cycles=200_000)

        assert pres.cycles < ores.cycles
        assert pres.cycles <= ores.cycles / 2  # at least 2x fewer cycles

    def test_monkey_is_sequential_either_way(self, built):
        wl = REGISTRY["monkey"]()
        par = ParulelEngine(wl.program)
        wl.setup(par)
        pres = par.run()
        wl2 = REGISTRY["monkey"]()
        ops = OPS5Engine(wl2.program)
        wl2.setup(ops)
        ores = ops.run()
        assert pres.cycles == ores.cycles  # no parallelism to exploit


class TestSimMachineMatrix:
    @pytest.mark.parametrize("name", ["tc", "waltz", "manners", "sort"])
    @pytest.mark.parametrize("n_sites", [2, 4])
    def test_simulated_runs_verify(self, name, n_sites):
        wl = REGISTRY[name]()
        sm = SimMachine(wl.program, n_sites)
        wl.setup(sm)
        sm.run(max_cycles=5000)
        assert wl.failed_checks(sm.wm) == []


class TestDeterminism:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_two_runs_identical(self, name):
        outputs = []
        for _ in range(2):
            wl = REGISTRY[name]()
            engine = ParulelEngine(wl.program)
            wl.setup(engine)
            res = engine.run(max_cycles=5000)
            outputs.append(
                (
                    res.cycles,
                    res.firings,
                    tuple(res.output),
                    tuple(sorted(str(w) for w in engine.wm)),
                )
            )
        assert outputs[0] == outputs[1]
