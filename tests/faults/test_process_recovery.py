"""Process-backend recovery: injected kills, wedges, respawn budgets,
graceful degradation, and bounded close().

These tests signal real worker processes, so they carry ``slow`` (excluded
from the fast gate) and explicit timeouts — a recovery bug should fail one
test, never hang the suite.
"""

import os
import signal
import time

import pytest

from repro.core import EngineConfig, ParulelEngine
from repro.lab.rete import create_lab_matcher
from repro.lang.parser import parse_program
from repro.match.compile import compile_rules
from repro.match.interface import PoolConfig
from repro.obs.flightrec import DEATH_KINDS
from repro.parallel.process import ProcessMatchPool
from repro.resilience import FaultPlan, WorkerKill, WorkerWedge
from repro.resilience.events import KNOWN_KINDS
from repro.wm.io import dumps
from repro.wm.memory import WorkingMemory

pytestmark = pytest.mark.faults

SRC = """
(p j0 (a0 ^k <k>) (b0 ^k <k>) --> (halt))
(p j1 (a1 ^k <k>) (b1 ^k <k>) --> (halt))
(p j2 (a2 ^k <k>) (b2 ^k <k>) --> (halt))
(p neg (a0 ^k <k>) -(b1 ^k <k>) --> (halt))
"""


def load(wm, n=6):
    for r in range(3):
        for i in range(n):
            wm.make(f"a{r}", k=i % 3)
            wm.make(f"b{r}", k=i % 3)


def keys(insts):
    return sorted(i.key for i in insts)


def rete_keys(prog, wm):
    return keys(create_lab_matcher("rete", prog.rules, wm).instantiations())


class TestInjectedKills:
    @pytest.mark.slow
    @pytest.mark.timeout(60)
    def test_respawn_counters_exact_under_injected_kills(self):
        prog = parse_program(SRC)
        wm = WorkingMemory()
        load(wm)
        plan = FaultPlan(
            kills=(WorkerKill(cycle=1, site=1), WorkerKill(cycle=2, site=1))
        )
        with ProcessMatchPool(
            prog.rules, wm, 2, PoolConfig(fault_plan=plan)
        ) as pool:
            expected = rete_keys(prog, wm)
            assert keys(pool.conflict_set()) == expected
            assert keys(pool.conflict_set()) == expected
            assert keys(pool.conflict_set()) == expected  # no kill scheduled
            assert pool.respawns == 2
            assert pool.site_respawns == {1: 2}
            assert pool.degraded_sites == set()
            events = pool.drain_fault_events()
            assert [e.kind for e in events] == ["kill", "respawn", "kill", "respawn"]
            assert all(e.site == 1 for e in events)

    @pytest.mark.slow
    @pytest.mark.timeout(60)
    def test_degrades_past_respawn_budget_and_stays_correct(self):
        prog = parse_program(SRC)
        wm = WorkingMemory()
        load(wm)
        plan = FaultPlan(
            kills=(WorkerKill(cycle=1, site=1), WorkerKill(cycle=2, site=1))
        )
        with ProcessMatchPool(
            prog.rules, wm, 2, PoolConfig(respawn_limit=1, fault_plan=plan)
        ) as pool:
            expected = rete_keys(prog, wm)
            # Kill 1 consumes the whole budget (respawn); kill 2 degrades.
            assert keys(pool.conflict_set()) == expected
            assert keys(pool.conflict_set()) == expected
            assert pool.degraded_sites == {1}
            assert pool.respawns == 1
            kinds = [e.kind for e in pool.drain_fault_events()]
            assert kinds == ["kill", "respawn", "kill", "degrade"]
            # Degraded site keeps matching in-parent, byte-identically,
            # including after further WM changes.
            wm.make("a1", k=0)
            assert keys(pool.conflict_set()) == rete_keys(prog, wm)

    @pytest.mark.slow
    @pytest.mark.timeout(60)
    def test_zero_budget_degrades_on_first_death(self):
        prog = parse_program(SRC)
        wm = WorkingMemory()
        load(wm)
        plan = FaultPlan(kills=(WorkerKill(cycle=1, site=0),))
        with ProcessMatchPool(
            prog.rules, wm, 2, PoolConfig(respawn_limit=0, fault_plan=plan)
        ) as pool:
            assert keys(pool.conflict_set()) == rete_keys(prog, wm)
            assert pool.respawns == 0
            assert pool.degraded_sites == {0}

    @pytest.mark.slow
    @pytest.mark.timeout(60)
    def test_a_degraded_site_takes_no_further_faults(self):
        """Kills scheduled for a site already matched in the parent find
        no worker to kill: no event, no respawn, still correct."""
        prog = parse_program(SRC)
        wm = WorkingMemory()
        load(wm)
        plan = FaultPlan(
            kills=tuple(WorkerKill(cycle=c, site=0) for c in (1, 2, 3))
        )
        with ProcessMatchPool(
            prog.rules, wm, 2, PoolConfig(respawn_limit=0, fault_plan=plan)
        ) as pool:
            for n in range(3):
                wm.make("a0", k=n)
                assert keys(pool.conflict_set()) == rete_keys(prog, wm)
            kinds = [e.kind for e in pool.drain_fault_events()]
            assert kinds == ["kill", "degrade"]
            assert pool.respawns == 0 and set(pool._procs) == {1}

    def test_the_pools_kinds_are_known_and_deaths_are_among_them(self):
        assert {"kill", "wedge", "respawn", "degrade"} <= set(KNOWN_KINDS)
        assert DEATH_KINDS == {"kill", "wedge", "respawn"}


class TestInjectedWedges:
    @pytest.mark.slow
    @pytest.mark.timeout(90)
    @pytest.mark.skipif(
        not hasattr(signal, "SIGSTOP"), reason="needs SIGSTOP"
    )
    def test_wedged_worker_times_out_and_respawns(self):
        prog = parse_program(SRC)
        wm = WorkingMemory()
        load(wm)
        plan = FaultPlan(wedges=(WorkerWedge(cycle=1, site=1),))
        with ProcessMatchPool(
            prog.rules, wm, 2, PoolConfig(timeout=1.0, fault_plan=plan)
        ) as pool:
            assert keys(pool.conflict_set()) == rete_keys(prog, wm)
            assert pool.respawns == 1
            kinds = [e.kind for e in pool.drain_fault_events()]
            assert kinds == ["wedge", "respawn"]

    @pytest.mark.slow
    @pytest.mark.timeout(90)
    @pytest.mark.skipif(
        not hasattr(signal, "SIGSTOP"), reason="needs SIGSTOP"
    )
    def test_wedged_worker_past_the_budget_degrades_at_the_deadline(self):
        prog = parse_program(SRC)
        wm = WorkingMemory()
        load(wm)
        plan = FaultPlan(wedges=(WorkerWedge(cycle=1, site=1),))
        with ProcessMatchPool(
            prog.rules,
            wm,
            2,
            PoolConfig(timeout=1.0, respawn_limit=0, fault_plan=plan),
        ) as pool:
            victim = pool._procs[1]
            assert keys(pool.conflict_set()) == rete_keys(prog, wm)
            events = pool.drain_fault_events()
            assert [e.kind for e in events] == ["wedge", "degrade"]
            assert events[1].detail.startswith("respawn budget (0) exhausted;")
            assert not victim.is_alive()
            assert pool.degraded_sites == {1}


class TestBoundedClose:
    @pytest.mark.slow
    @pytest.mark.timeout(60)
    @pytest.mark.skipif(
        not hasattr(signal, "SIGSTOP"), reason="needs SIGSTOP"
    )
    def test_close_prompt_with_sigstopped_worker(self):
        prog = parse_program(SRC)
        wm = WorkingMemory()
        load(wm)
        pool = ProcessMatchPool(prog.rules, wm, 2)
        assert pool.conflict_set()
        victim = pool._procs[pool.active_sites[-1]]
        os.kill(victim.pid, signal.SIGSTOP)
        t0 = time.monotonic()
        pool.close()
        elapsed = time.monotonic() - t0
        # One 1.0 s grace join per worker, then SIGKILL; generous margin
        # for a loaded CI box, but nowhere near a hang.
        assert elapsed < 10.0
        assert not victim.is_alive()
        pool.close()  # idempotent


class TestEngineIntegration:
    @pytest.mark.slow
    @pytest.mark.timeout(120)
    def test_engine_survives_kills_with_identical_results(self):
        src = """
        (literalize edge src dst)
        (literalize path src dst)
        (p tc-init (edge ^src <a> ^dst <b>) -(path ^src <a> ^dst <b>)
         --> (make path ^src <a> ^dst <b>))
        (p tc-extend (path ^src <a> ^dst <b>) (edge ^src <b> ^dst <c>)
         -(path ^src <a> ^dst <c>) --> (make path ^src <a> ^dst <c>))
        """
        prog = parse_program(src)

        ref = ParulelEngine(prog)
        for i in range(8):
            ref.make("edge", src=f"n{i}", dst=f"n{i + 1}")
        ref_result = ref.run()
        reference = sorted(repr(w) for w in ref.wm.snapshot())

        plan = FaultPlan(
            kills=(WorkerKill(cycle=2, site=1), WorkerKill(cycle=3, site=1))
        )
        engine = ParulelEngine(
            prog,
            EngineConfig(
                matcher="process:2",
                pool=PoolConfig(respawn_limit=1, fault_plan=plan),
            ),
        )
        for i in range(8):
            engine.make("edge", src=f"n{i}", dst=f"n{i + 1}")
        try:
            result = engine.run()
        finally:
            engine.matcher.detach()
        assert result.cycles == ref_result.cycles
        assert result.firings == ref_result.firings
        assert sorted(repr(w) for w in engine.wm.snapshot()) == reference
        # The engine surfaced the backend's fault events, per cycle.
        kinds = [e.kind for e in engine.fault_events]
        assert "kill" in kinds
        assert "respawn" in kinds
        assert "degrade" in kinds
        per_cycle = [e.kind for r in engine.reports for e in r.fault_events]
        assert per_cycle == kinds

    @pytest.mark.slow
    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("wm_backend", ["dict", "columnar"])
    def test_kill_respawn_and_degrade_under_the_split_dump_identically(
        self, wm_backend, k
    ):
        """``k`` sites share two rules' extensions (at three, more workers
        than rules). The last site is killed and respawned; site 0 is
        killed past its budget and matched in-parent, from the same
        ``(k, s)``, for the rest of the run — and the final dump is the
        serial run's, byte for byte."""
        from repro.programs import REGISTRY

        workload = REGISTRY["tc"]()
        ref = ParulelEngine(workload.program)
        workload.setup(ref)
        ref_result = ref.run()
        assert ref_result.cycles >= 8

        plan = FaultPlan(
            kills=(
                WorkerKill(cycle=2, site=k - 1),
                WorkerKill(cycle=3, site=0),
                WorkerKill(cycle=4, site=0),
            )
        )
        engine = ParulelEngine(
            workload.program,
            EngineConfig(
                matcher=f"process:{k}",
                pool=PoolConfig(respawn_limit=1, fault_plan=plan),
                wm_backend=wm_backend,
            ),
        )
        try:
            workload.setup(engine)
            result = engine.run()
            pool = engine.matcher.pool
            # The in-parent fallback matched site 0's share, compiled from
            # the (k, s) its worker compiles from.
            parent = pool._site_compiled[0]
            worker = compile_rules(workload.program.rules, site=(k, 0))
            assert [(cr, cr.plan, cr.seeded_plans) for cr in parent] == [
                (cr, cr.plan, cr.seeded_plans) for cr in worker
            ]
            assert pool.degraded_sites == {0}
            assert (result.cycles, result.firings) == (
                ref_result.cycles, ref_result.firings,
            )
            assert dumps(engine.wm) == dumps(ref.wm)
        finally:
            engine.close()
        kinds = [(e.kind, e.site) for e in engine.fault_events]
        assert kinds == [
            ("kill", k - 1), ("respawn", k - 1),
            ("kill", 0), ("respawn", 0),
            ("kill", 0), ("degrade", 0),
        ]
