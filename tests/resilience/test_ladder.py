"""Supervised degradation ladder on a real ProcessMatchPool.

Acceptance criterion: under a *scripted* fault plan and a fixed policy,
the ladder's behaviour is observable as an exact fault-event sequence —
not just "some recovery happened". Every cycle's conflict set is also
checked byte-identical against the serial rete matcher: the ladder trades
isolation for survival, never correctness.
"""

import os
import signal

import pytest

from repro.faults import FaultPlan, WorkerKill
from repro.lang.parser import parse_program
from repro.match.interface import create_matcher
from repro.parallel.process import ProcessMatchPool
from repro.resilience.supervisor import FULL_LADDER, SupervisorPolicy
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
    return keys(create_matcher("rete", prog.rules, wm).instantiations())


class TestScriptedLadder:
    @pytest.mark.slow
    @pytest.mark.timeout(60)
    def test_exact_event_sequence_under_scripted_faults(self):
        """Two kills on site 1: the first respawns (after a recorded
        backoff), the second trips the breaker and demotes to the
        ``threaded`` rung; two quiet cycles later the cool-down elapses
        and the site is promoted back, closing the breaker on its first
        healthy reply."""
        prog = parse_program(SRC)
        wm = WorkingMemory()
        load(wm)
        plan = FaultPlan(
            kills=(WorkerKill(cycle=1, site=1), WorkerKill(cycle=2, site=1))
        )
        policy = SupervisorPolicy(
            ladder=FULL_LADDER,
            backoff_base=0.01,
            backoff_jitter=0.0,
            breaker_failures=2,
            breaker_window=8,
            cooldown_cycles=2,
            seed=0,
        )
        with ProcessMatchPool(
            prog.rules, wm, 2, fault_plan=plan, supervisor=policy
        ) as pool:
            expected = rete_keys(prog, wm)
            for _cycle in range(1, 6):
                assert keys(pool.conflict_set()) == expected
            events = pool.drain_fault_events()
            assert [e.kind for e in events] == [
                "kill",           # cycle 1: injected SIGKILL
                "backoff",        # 0.01 s seeded delay before the respawn
                "respawn",
                "kill",           # cycle 2: second failure in the window
                "breaker-open",
                "degrade",        # -> threaded rung
                "promote",        # cycle 4: cool-down (2 cycles) elapsed
                "breaker-close",  # first healthy reply at full isolation
            ]
            assert all(e.site == 1 for e in events)
            by_kind = {e.kind: e for e in events}
            assert "threaded" not in by_kind["promote"].detail
            assert "parent thread" in by_kind["degrade"].detail
            assert "circuit breaker" in by_kind["breaker-open"].detail
            # Two worker spawns were charged to the site: the cycle-1
            # respawn and the re-promotion.
            assert pool.site_respawns == {1: 2}
            assert pool.degraded_sites == set()

    @pytest.mark.slow
    @pytest.mark.timeout(60)
    def test_wm_changes_during_degradation_stay_correct(self):
        """The demoted rungs must track live WM changes (the in-parent
        matcher reads the parent store directly)."""
        prog = parse_program(SRC)
        wm = WorkingMemory()
        load(wm)
        plan = FaultPlan(kills=(WorkerKill(cycle=1, site=0),))
        policy = SupervisorPolicy(
            ladder=FULL_LADDER, breaker_failures=1, cooldown_cycles=3
        )
        with ProcessMatchPool(
            prog.rules, wm, 2, fault_plan=plan, supervisor=policy
        ) as pool:
            assert keys(pool.conflict_set()) == rete_keys(prog, wm)
            assert pool.degraded_sites == {0}
            wm.make("a0", k=0)  # new matches while threaded
            assert keys(pool.conflict_set()) == rete_keys(prog, wm)
            wm.make("b1", k=2)  # negative-condition churn
            assert keys(pool.conflict_set()) == rete_keys(prog, wm)
            assert keys(pool.conflict_set()) == rete_keys(prog, wm)  # promoted
            assert pool.degraded_sites == set()
            kinds = [e.kind for e in pool.drain_fault_events()]
            assert kinds == [
                "kill", "breaker-open", "degrade", "promote", "breaker-close",
            ]


    @pytest.mark.slow
    @pytest.mark.timeout(60)
    def test_every_rung_matches_the_same_share_of_every_rule(self):
        """Under the alpha-level split a site is a share of *every* rule,
        at every rung: while site 0 is demoted (threaded, then — with no
        cool-down left — promoted) its retained set is exactly what a
        healthy pool's site 0 retains, and the other site's never moves."""
        prog = parse_program(SRC)
        wm = WorkingMemory()
        load(wm, n=12)
        plan = FaultPlan(kills=(WorkerKill(cycle=2, site=0),))
        policy = SupervisorPolicy(
            ladder=FULL_LADDER, breaker_failures=1, cooldown_cycles=2
        )
        with ProcessMatchPool(prog.rules, wm, 2) as healthy:
            with ProcessMatchPool(
                prog.rules, wm, 2, fault_plan=plan, supervisor=policy
            ) as pool:
                rungs = []
                for cycle in range(1, 7):
                    wm.make("a0", k=cycle % 3)
                    wm.make("b1", k=cycle % 3)
                    wm.remove(wm.by_class("b0")[0])
                    assert keys(pool.conflict_set()) == keys(
                        healthy.conflict_set()
                    )
                    for site in (0, 1):
                        assert sorted(pool._retained[site]) == sorted(
                            healthy._retained[site]
                        ), (cycle, site)
                    rungs.append(pool._sup.mode(0))
                assert len({key[0] for key in pool._retained[0]}) > 1
        assert rungs == [
            "process", "threaded", "threaded", "process", "process", "process",
        ]


class TestHeartbeat:
    @pytest.mark.slow
    @pytest.mark.timeout(90)
    @pytest.mark.skipif(not hasattr(signal, "SIGSTOP"), reason="needs SIGSTOP")
    def test_heartbeat_miss_precedes_recovery(self):
        """A SIGSTOP'd worker misses its pre-dispatch heartbeat and is
        failed over in heartbeat_timeout — the pool never posts the match
        request to it, so the (long) reply deadline is never burned."""
        prog = parse_program(SRC)
        wm = WorkingMemory()
        load(wm)
        policy = SupervisorPolicy(heartbeat_every=1, heartbeat_timeout=0.5)
        with ProcessMatchPool(
            prog.rules, wm, 2, supervisor=policy
        ) as pool:
            expected = rete_keys(prog, wm)
            assert keys(pool.conflict_set()) == expected  # heartbeats pass
            victim = pool._procs[1]
            os.kill(victim.pid, signal.SIGSTOP)
            assert keys(pool.conflict_set()) == expected
            kinds = [e.kind for e in pool.drain_fault_events()]
            assert kinds == ["heartbeat-miss", "respawn"]
            assert pool.site_respawns == {1: 1}
            assert keys(pool.conflict_set()) == expected  # healthy again


class TestCloseRobustness:
    @pytest.mark.slow
    @pytest.mark.timeout(60)
    def test_close_after_sigkilled_workers_closes_every_conn(self):
        """Satellite: close() must close per-site connections even when
        the stop-send and join go wrong (workers already dead)."""
        prog = parse_program(SRC)
        wm = WorkingMemory()
        load(wm)
        pool = ProcessMatchPool(prog.rules, wm, 2)
        assert pool.conflict_set()
        conns = dict(pool._conns)
        for proc in pool._procs.values():
            proc.kill()
            proc.join()
        pool.close()
        for conn in conns.values():
            assert conn.closed
        pool.close()  # idempotent
