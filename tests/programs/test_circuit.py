"""Unit tests for the logic-circuit workload."""

import pytest

from repro.core import ParulelEngine
from repro.programs.circuit import (
    GATE_FUNCS,
    build_circuit,
    generate_circuit,
)
from tests.lab_engine import lab_engine


class TestGeneration:
    def test_layered_structure(self):
        inputs, gates = generate_circuit(4, 3, 5, seed=1)
        assert len(inputs) == 4
        assert len(gates) == 15
        # Every gate's inputs come from earlier wires (dependency order).
        known = set(inputs)
        for _gid, gtype, in1, in2, out in gates:
            assert in1 in known
            if gtype != "not":
                assert in2 in known
            known.add(out)

    def test_deterministic(self):
        assert generate_circuit(4, 3, 5, seed=9) == generate_circuit(4, 3, 5, seed=9)

    def test_gate_functions(self):
        assert GATE_FUNCS["and"](1, 1) == 1
        assert GATE_FUNCS["or"](0, 0) == 0
        assert GATE_FUNCS["xor"](1, 0) == 1
        assert GATE_FUNCS["nand"](1, 1) == 0


class TestSimulation:
    @pytest.mark.parametrize("seed", [1, 19, 77])
    def test_matches_reference_evaluation(self, seed):
        wl = build_circuit(n_inputs=5, n_levels=5, gates_per_level=5, seed=seed)
        engine = ParulelEngine(wl.program)
        wl.setup(engine)
        engine.run(max_cycles=200)
        assert wl.failed_checks(engine.wm) == []

    def test_levels_bound_cycles(self):
        wl = build_circuit(n_inputs=4, n_levels=6, gates_per_level=4, seed=3)
        engine = ParulelEngine(wl.program)
        wl.setup(engine)
        result = engine.run(max_cycles=200)
        # Dependency depth <= number of levels; some gates settle earlier.
        assert result.cycles <= 6
        assert wl.failed_checks(engine.wm) == []

    def test_wide_levels_fire_together(self):
        wl = build_circuit(n_inputs=6, n_levels=4, gates_per_level=10, seed=5)
        engine = ParulelEngine(wl.program)
        wl.setup(engine)
        result = engine.run(max_cycles=200)
        assert max(result.firing_set_sizes) >= 8

    def test_firings_equal_gate_count(self):
        wl = build_circuit(n_inputs=4, n_levels=5, gates_per_level=6, seed=7)
        engine = ParulelEngine(wl.program)
        wl.setup(engine)
        result = engine.run(max_cycles=200)
        assert result.firings == 5 * 6  # every gate evaluated exactly once

    @pytest.mark.parametrize("matcher", ["rete", "treat", "naive"])
    def test_all_matchers_agree(self, matcher):
        wl = build_circuit(n_inputs=4, n_levels=4, gates_per_level=4, seed=11)
        engine = lab_engine(wl.program, matcher)
        wl.setup(engine)
        result = engine.run(max_cycles=200)
        assert wl.failed_checks(engine.wm) == []
        assert result.firings == 16
