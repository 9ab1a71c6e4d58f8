"""Tests for the simulated multiprocessor."""

import pytest

from repro.core import EngineConfig, ParulelEngine
from repro.lab import (
    CostModel,
    SimMachine,
    SpeedupSeries,
    lpt_assignment,
    round_robin_assignment,
)
from repro.lang.parser import parse_program
from repro.programs import build_tc, build_waltz

TC_SRC = """
(literalize edge src dst)
(literalize path src dst)
(p tc-init (edge ^src <a> ^dst <b>) -(path ^src <a> ^dst <b>)
 --> (make path ^src <a> ^dst <b>))
(p tc-extend (path ^src <a> ^dst <b>) (edge ^src <b> ^dst <c>)
 -(path ^src <a> ^dst <c>) --> (make path ^src <a> ^dst <c>))
"""


def load_chain(machine, n=10):
    for i in range(n):
        machine.make("edge", src=f"n{i}", dst=f"n{i + 1}")


class TestFunctionalEquivalence:
    @pytest.mark.parametrize("n_sites", [1, 2, 3, 8])
    def test_same_result_as_single_engine(self, n_sites):
        prog = parse_program(TC_SRC)
        engine = ParulelEngine(prog)
        for i in range(10):
            engine.make("edge", src=f"n{i}", dst=f"n{i + 1}")
        ref = engine.run()
        ref_paths = sorted(
            (w.get("src"), w.get("dst")) for w in engine.wm.by_class("path")
        )

        sm = SimMachine(prog, n_sites)
        load_chain(sm)
        res = sm.run()
        paths = sorted((w.get("src"), w.get("dst")) for w in sm.wm.by_class("path"))
        assert paths == ref_paths
        assert res.cycles == ref.cycles
        assert res.firings == ref.firings

    def test_workload_verification_under_simulation(self):
        wl = build_waltz(n_drawings=4, chain_length=6)
        sm = SimMachine(wl.program, 4)
        wl.setup(sm)
        sm.run()
        assert wl.verify_ok(sm.wm)

    def test_meta_rules_respected(self):
        src = """
        (literalize req name)
        (p grant (req ^name <n>) --> (remove 1))
        (mp one-at-a-time
            (instantiation ^rule grant ^id <i> ^n <a>)
            (instantiation ^rule grant ^id {<j> <> <i>} ^n > <a>)
            -->
            (redact <j>))
        """
        sm = SimMachine(parse_program(src), 2)
        for i in range(3):
            sm.make("req", name=f"r{i}")
        res = sm.run()
        assert res.cycles == 3  # serialized by the meta level
        assert res.firings == 3


class TestTimingModel:
    def test_deterministic_ticks(self):
        prog = parse_program(TC_SRC)
        results = []
        for _ in range(2):
            sm = SimMachine(prog, 4)
            load_chain(sm)
            results.append(sm.run().total_ticks)
        assert results[0] == results[1]

    def test_single_site_work_equals_makespan_sum(self):
        prog = parse_program(TC_SRC)
        sm = SimMachine(prog, 1)
        load_chain(sm)
        res = sm.run()
        assert res.parallel_ticks == pytest.approx(sum(res.makespans))
        assert res.load_imbalance == pytest.approx(1.0)

    def test_parallel_reduces_makespan_on_balanced_workload(self):
        # waltz has 1 rule but the work is per-drawing; rule-parallel can't
        # split one rule, so use tc with its two rules on two sites.
        prog = parse_program(TC_SRC)
        series = SpeedupSeries("tc")
        for p in (1, 2):
            sm = SimMachine(prog, p)
            load_chain(sm, 14)
            series.add(p, sm.run().total_ticks)
        assert series.speedup(2) > 1.0

    def test_barrier_and_redaction_are_serial(self):
        prog = parse_program(TC_SRC)
        sm = SimMachine(prog, 2)
        load_chain(sm, 6)
        res = sm.run()
        cost = CostModel()
        assert res.serial_ticks >= cost.barrier * res.cycles

    def test_custom_cost_model(self):
        prog = parse_program(TC_SRC)
        cheap = CostModel(barrier=0.0, wm_broadcast=0.0)
        sm = SimMachine(prog, 2, cost_model=cheap)
        load_chain(sm, 6)
        res = sm.run()
        sm2 = SimMachine(prog, 2)
        load_chain(sm2, 6)
        res2 = sm2.run()
        assert res.total_ticks < res2.total_ticks

    def test_site_totals_cover_all_sites(self):
        prog = parse_program(TC_SRC)
        sm = SimMachine(prog, 3)
        load_chain(sm)
        res = sm.run()
        assert len(res.site_totals) == 3

    def test_quiescence_reason(self):
        prog = parse_program(TC_SRC)
        sm = SimMachine(prog, 2)
        load_chain(sm, 3)
        assert sm.run().reason == "quiescence"

    def test_zero_sites_rejected(self):
        with pytest.raises(ValueError):
            SimMachine(parse_program(TC_SRC), 0)


class TestAssignments:
    def test_explicit_assignment_used(self):
        prog = parse_program(TC_SRC)
        a = lpt_assignment(prog.rules, 2, {"tc-extend": 10.0, "tc-init": 1.0})
        sm = SimMachine(prog, 2, assignment=a)
        load_chain(sm)
        res = sm.run()
        assert res.cycles > 0

    def test_mismatched_assignment_rejected(self):
        prog = parse_program(TC_SRC)
        other = parse_program("(p lonely (c ^a 1) --> (halt))")
        bad = round_robin_assignment(other.rules, 2)
        with pytest.raises(ValueError):
            SimMachine(prog, 2, assignment=bad)


class TestSpeedupSeries:
    def test_series_math(self):
        s = SpeedupSeries("x")
        s.add(1, 100.0)
        s.add(2, 60.0)
        s.add(4, 40.0)
        assert s.speedup(2) == pytest.approx(100 / 60)
        assert s.efficiency(4) == pytest.approx((100 / 40) / 4)
        rows = s.series()
        assert [r[0] for r in rows] == [1, 2, 4]

    def test_monotone_check(self):
        s = SpeedupSeries("x")
        s.add(1, 100.0)
        s.add(2, 50.0)
        s.add(4, 55.0)  # speedup drops from 2.0 to 1.8
        assert s.is_monotone_to(2)
        assert not s.is_monotone_to(4)

    def test_missing_baseline_raises(self):
        s = SpeedupSeries("x")
        s.add(2, 10.0)
        with pytest.raises(ValueError, match="baseline"):
            s.speedup(2)

    def test_bad_points_rejected(self):
        s = SpeedupSeries("x")
        with pytest.raises(ValueError):
            s.add(0, 10.0)
        with pytest.raises(ValueError):
            s.add(1, 0.0)


class TestMulticast:
    def test_multicast_counts_fewer_messages(self):
        from repro.lang.ast import Program
        from repro.programs import build_sieve, build_tc

        tc = build_tc(12, "chain")
        sieve = build_sieve(30)
        program = Program(
            literalizes=tc.program.literalizes + sieve.program.literalizes,
            rules=tc.program.rules + sieve.program.rules,
        )

        def run(multicast):
            sm = SimMachine(program, 4, multicast=multicast)
            tc.setup(sm)
            sieve.setup(sm)
            res = sm.run()
            assert tc.verify_ok(sm.wm) and sieve.verify_ok(sm.wm)
            return res

        broadcast, multicast = run(False), run(True)
        assert multicast.messages < broadcast.messages
        assert multicast.total_ticks <= broadcast.total_ticks
        assert broadcast.cycles == multicast.cycles
        assert broadcast.firings == multicast.firings

    def test_broadcast_message_count_formula(self):
        # broadcast: every change delivered to every site.
        prog = parse_program(TC_SRC)
        sm = SimMachine(prog, 3, multicast=False)
        load_chain(sm, 5)
        res = sm.run()
        total_changes = res.firings  # every firing makes exactly one path
        assert res.messages == total_changes * 3

    def test_single_program_multicast_equals_broadcast(self):
        # All sites read both classes of tc: interest sets are total, so
        # multicast degenerates to broadcast.
        prog = parse_program(TC_SRC)
        a = SimMachine(prog, 2, multicast=False)
        load_chain(a, 6)
        b = SimMachine(prog, 2, multicast=True)
        load_chain(b, 6)
        assert a.run().messages == b.run().messages
