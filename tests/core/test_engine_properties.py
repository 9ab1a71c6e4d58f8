"""Property-based tests of whole-engine semantics.

The key invariants, checked over randomized workloads:

- **Confluence**: on monotone guarded-derivation programs (transitive
  closure over arbitrary graphs), PARULEL's set-oriented firing and OPS5's
  sequential firing reach the same final working memory;
- **Simulation transparency**: SimMachine at any site count computes
  exactly what a single ParulelEngine computes;
- **Copy-and-constrain**: any disjoint covering partition of the domain
  preserves the derived set;
- **Determinism**: identical inputs give identical runs.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.baseline import OPS5Engine
from repro.core import EngineConfig, ParulelEngine
from repro.lab import SimMachine, copy_and_constrain_program
from repro.programs.tc import tc_program
from tests.lab_engine import lab_engine

TC = tc_program()

edge_lists = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7)),
    min_size=1,
    max_size=16,
    unique=True,
)


def run_parulel(edges, matcher="treat", **cfg):
    engine = lab_engine(TC, matcher, EngineConfig(**cfg))
    for a, b in edges:
        engine.make("edge", src=f"n{a}", dst=f"n{b}")
    engine.run(max_cycles=500)
    return frozenset(
        (w.get("src"), w.get("dst")) for w in engine.wm.by_class("path")
    )


def run_ops5(edges, strategy="lex"):
    engine = OPS5Engine(TC, strategy=strategy)
    for a, b in edges:
        engine.make("edge", src=f"n{a}", dst=f"n{b}")
    engine.run(max_cycles=50_000)
    return frozenset(
        (w.get("src"), w.get("dst")) for w in engine.wm.by_class("path")
    )


class TestConfluence:
    @settings(max_examples=60, deadline=None)
    @given(edges=edge_lists)
    def test_parulel_equals_ops5(self, edges):
        assert run_parulel(edges) == run_ops5(edges)

    @settings(max_examples=30, deadline=None)
    @given(edges=edge_lists, strategy=st.sampled_from(["lex", "mea"]))
    def test_ops5_strategy_irrelevant_for_confluent_program(self, edges, strategy):
        assert run_ops5(edges, strategy) == run_ops5(edges, "lex")

    @settings(max_examples=30, deadline=None)
    @given(edges=edge_lists, matcher=st.sampled_from(["rete", "treat", "naive"]))
    def test_matcher_choice_irrelevant(self, edges, matcher):
        assert run_parulel(edges, matcher=matcher) == run_parulel(edges)


class TestSimulationTransparency:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(edges=edge_lists, n_sites=st.integers(1, 6))
    def test_simmachine_matches_engine(self, edges, n_sites):
        machine = SimMachine(TC, n_sites)
        for a, b in edges:
            machine.make("edge", src=f"n{a}", dst=f"n{b}")
        machine.run(max_cycles=500)
        simulated = frozenset(
            (w.get("src"), w.get("dst")) for w in machine.wm.by_class("path")
        )
        assert simulated == run_parulel(edges)


class TestCopyAndConstrain:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        edges=edge_lists,
        cut=st.integers(0, 8),
    )
    def test_any_covering_partition_preserves_semantics(self, edges, cut):
        domain = [f"n{i}" for i in range(8)]
        partition = [tuple(domain[:cut]), tuple(domain[cut:])]
        partition = [p for p in partition if p]  # drop an empty side
        program = copy_and_constrain_program(TC, "tc-extend", 1, "src", partition)
        engine = ParulelEngine(program)
        for a, b in edges:
            engine.make("edge", src=f"n{a}", dst=f"n{b}")
        engine.run(max_cycles=500)
        derived = frozenset(
            (w.get("src"), w.get("dst")) for w in engine.wm.by_class("path")
        )
        assert derived == run_parulel(edges)


class TestDeterminism:
    @settings(max_examples=25, deadline=None)
    @given(edges=edge_lists)
    def test_identical_runs(self, edges):
        def trace(edges):
            engine = ParulelEngine(TC)
            for a, b in edges:
                engine.make("edge", src=f"n{a}", dst=f"n{b}")
            result = engine.run(max_cycles=500)
            return (
                result.cycles,
                result.firings,
                tuple(sorted(str(w) for w in engine.wm)),
            )

        assert trace(edges) == trace(edges)

    @settings(max_examples=25, deadline=None)
    @given(edges=edge_lists)
    def test_dedupe_flag_does_not_change_final_content(self, edges):
        # tc's negation guard prevents cross-cycle duplicates; within-cycle
        # duplicates either collapse (dedupe on) or coexist as same-content
        # WMEs (off). The *set* of derived contents must agree.
        assert run_parulel(edges, dedupe_makes=True) == run_parulel(
            edges, dedupe_makes=False
        )
