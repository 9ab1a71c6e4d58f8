"""Tests for the distributed (replicated-WM) machine."""

import pytest

from repro.core import ParulelEngine
from repro.lab import DistributedMachine, NetworkModel
from repro.lang.parser import parse_program
from repro.programs import REGISTRY, build_routing, build_tc
from repro.wm.io import dumps

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


class TestReplicaConsistency:
    """Every replica receives the same deltas, so each one holds the
    engine's single working memory, ``dm.wm``."""

    def test_consistency_with_meta_rules(self):
        wl = build_routing(n_nodes=10, extra_edges=10)
        dm = DistributedMachine(wl.program, 3)
        wl.setup(dm)
        dm.run()
        assert wl.failed_checks(dm.wm) == []
        # Meta reifications never leak into working memory.
        assert dm.wm.count_class("instantiation") == 0

    @pytest.mark.parametrize("name", ["tc", "waltz", "manners", "circuit", "routing"])
    def test_workloads_verify_on_every_replica(self, name):
        wl = REGISTRY[name]()
        dm = DistributedMachine(wl.program, 3)
        wl.setup(dm)
        dm.run(max_cycles=5000)
        assert wl.failed_checks(dm.wm) == [], name


class TestFunctionalEquivalence:
    @pytest.mark.parametrize("n_sites", [1, 2, 4])
    def test_matches_single_engine(self, n_sites):
        prog = parse_program(TC_SRC)
        engine = ParulelEngine(prog)
        for i in range(10):
            engine.make("edge", src=f"n{i}", dst=f"n{i + 1}")
        ref = engine.run()

        dm = DistributedMachine(prog, n_sites)
        load_chain(dm)
        res = dm.run()
        assert res.cycles == ref.cycles
        assert res.firings == ref.firings
        assert dumps(dm.wm) == dumps(engine.wm)


class TestCommunicationAccounting:
    def test_single_site_sends_nothing(self):
        dm = DistributedMachine(parse_program(TC_SRC), 1)
        load_chain(dm)
        res = dm.run()
        assert res.messages == 0

    def test_single_site_pays_no_latency(self):
        # Regression: round latency used to be charged for the gather and
        # scatter rounds even at P=1 (zero messages, no communication),
        # inflating the serial baseline every speedup is computed against.
        dm = DistributedMachine(
            parse_program(TC_SRC), 1, network=NetworkModel(latency=1000.0)
        )
        load_chain(dm)
        res = dm.run()
        assert res.comm_ticks == 0.0
        assert res.comm_fraction == 0.0

    def test_single_site_total_invariant_to_network(self):
        totals = []
        for latency in (0.0, 500.0):
            dm = DistributedMachine(
                parse_program(TC_SRC), 1, network=NetworkModel(latency=latency)
            )
            load_chain(dm)
            totals.append(dm.run().total_ticks)
        assert totals[0] == totals[1]

    def test_messages_grow_with_sites(self):
        results = {}
        for p in (2, 4):
            dm = DistributedMachine(parse_program(TC_SRC), p)
            load_chain(dm)
            results[p] = dm.run().messages
        assert results[4] > results[2]

    def test_latency_scales_comm_ticks(self):
        slow = DistributedMachine(
            parse_program(TC_SRC), 2, network=NetworkModel(latency=500.0)
        )
        load_chain(slow)
        fast = DistributedMachine(
            parse_program(TC_SRC), 2, network=NetworkModel(latency=1.0)
        )
        load_chain(fast)
        rs, rf = slow.run(), fast.run()
        assert rs.comm_ticks > rf.comm_ticks
        assert rs.cycles == rf.cycles  # timing model never changes results
        assert rs.comm_fraction > rf.comm_fraction

    def test_multicast_reduces_messages_on_fused_rules(self):
        from repro.lang.ast import Program
        from repro.programs import build_sieve

        tc = build_tc(12, "chain")
        sieve = build_sieve(30)
        program = Program(
            literalizes=tc.program.literalizes + sieve.program.literalizes,
            rules=tc.program.rules + sieve.program.rules,
        )

        def run(multicast):
            dm = DistributedMachine(program, 4, multicast=multicast)
            tc.setup(dm)
            sieve.setup(dm)
            return dm.run()

        broadcast, multicast = run(False), run(True)
        assert multicast.messages < broadcast.messages
        assert broadcast.cycles == multicast.cycles

    def test_deterministic(self):
        runs = []
        for _ in range(2):
            dm = DistributedMachine(parse_program(TC_SRC), 3)
            load_chain(dm)
            res = dm.run()
            runs.append((res.total_ticks, res.messages, res.cycles))
        assert runs[0] == runs[1]

    def test_zero_sites_rejected(self):
        with pytest.raises(ValueError):
            DistributedMachine(parse_program(TC_SRC), 0)
