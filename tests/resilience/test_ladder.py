"""The pool's one recovery policy on a real ProcessMatchPool.

A lost worker is respawned at once; once its site's respawn budget is
spent, or three respawns fail within one cycle, the site is degraded: its
share of every rule is matched in the parent for the rest of the run.
Under a *scripted* fault plan that is observable as an exact fault-event
sequence, and every cycle's conflict set is checked against the serial
rete matcher — degradation trades isolation for survival, never
correctness.
"""

import pytest

from repro.lab.rete import create_lab_matcher
from repro.lang.parser import parse_program
from repro.match.interface import PoolConfig
from repro.obs.metrics import MetricsRegistry
from repro.parallel import process
from repro.parallel.process import ProcessMatchPool
from repro.resilience import FaultPlan, WorkerKill
from repro.wm.columnar import ColumnarWorkingMemory
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


@pytest.fixture(params=["dict", "columnar"])
def store(request):
    if request.param == "dict":
        yield WorkingMemory()
        return
    wm = ColumnarWorkingMemory()
    try:
        yield wm
    finally:
        wm.close()


def _exit_at_once(conn, *args):
    """A worker that cannot come up: it exits before reading a request."""
    conn.close()


class TestPastTheBudget:
    @pytest.mark.slow
    @pytest.mark.timeout(60)
    @pytest.mark.parametrize("k", [2, 3])
    def test_exact_event_sequence_under_scripted_faults(self, store, k):
        """Two kills on the last site with a budget of one: the first is
        respawned, the second spends nothing and degrades the site, which
        stays in-parent for every later cycle."""
        wm = store
        prog = parse_program(SRC)
        load(wm)
        site = k - 1
        plan = FaultPlan(
            kills=(WorkerKill(cycle=1, site=site), WorkerKill(cycle=2, site=site))
        )
        with ProcessMatchPool(
            prog.rules, wm, k, PoolConfig(respawn_limit=1, fault_plan=plan)
        ) as pool:
            expected = rete_keys(prog, wm)
            degraded = []
            for _cycle in range(1, 6):
                assert keys(pool.conflict_set()) == expected
                degraded.append(sorted(pool.degraded_sites))
            events = pool.drain_fault_events()
            assert [e.kind for e in events] == ["kill", "respawn", "kill", "degrade"]
            assert all(e.site == site for e in events)
            assert events[1].detail == "attempt 1 of 1"
            assert events[3].detail == (
                "respawn budget (1) exhausted; its share of 4 rule(s) now "
                "matched in-parent"
            )
            assert degraded == [[], [site], [site], [site], [site]]
            assert pool.site_respawns == {site: 1}
            assert site not in pool._procs

    @pytest.mark.slow
    @pytest.mark.timeout(60)
    @pytest.mark.parametrize("k", [2, 3])
    def test_wm_changes_during_degradation_stay_correct(self, store, k):
        """The degraded site must track live WM changes (the in-parent
        matcher reads the parent store directly)."""
        wm = store
        prog = parse_program(SRC)
        load(wm)
        plan = FaultPlan(kills=(WorkerKill(cycle=1, site=0),))
        with ProcessMatchPool(
            prog.rules, wm, k, PoolConfig(respawn_limit=0, fault_plan=plan)
        ) as pool:
            assert keys(pool.conflict_set()) == rete_keys(prog, wm)
            assert pool.degraded_sites == {0}
            wm.make("a0", k=0)  # new matches while degraded
            assert keys(pool.conflict_set()) == rete_keys(prog, wm)
            wm.make("b1", k=2)  # negative-condition churn
            assert keys(pool.conflict_set()) == rete_keys(prog, wm)
            wm.remove(wm.by_class("b1")[0])
            assert keys(pool.conflict_set()) == rete_keys(prog, wm)
            assert pool.degraded_sites == {0}
            kinds = [e.kind for e in pool.drain_fault_events()]
            assert kinds == ["kill", "degrade"]

    @pytest.mark.slow
    @pytest.mark.timeout(60)
    @pytest.mark.parametrize("k", [2, 3])
    def test_a_degraded_site_matches_the_same_share_of_every_rule(
        self, store, k
    ):
        """Under the alpha-level split a site is a share of *every* rule,
        in its worker or in the parent: from the cycle site 0 is degraded
        on, its retained set is exactly what a healthy pool's site 0
        retains, and no other site's ever moves."""
        wm = store
        prog = parse_program(SRC)
        load(wm, n=12)
        plan = FaultPlan(kills=(WorkerKill(cycle=2, site=0),))
        with ProcessMatchPool(prog.rules, wm, k) as healthy:
            with ProcessMatchPool(
                prog.rules, wm, k, PoolConfig(respawn_limit=0, fault_plan=plan)
            ) as pool:
                degraded = []
                for cycle in range(1, 7):
                    wm.make("a0", k=cycle % 3)
                    wm.make("b1", k=cycle % 3)
                    wm.remove(wm.by_class("b0")[0])
                    assert keys(pool.conflict_set()) == keys(
                        healthy.conflict_set()
                    )
                    for site in range(k):
                        assert sorted(pool._retained[site]) == sorted(
                            healthy._retained[site]
                        ), (cycle, site)
                    degraded.append(0 in pool.degraded_sites)
                assert len({key[0] for key in pool._retained[0]}) > 1
        assert degraded == [False, True, True, True, True, True]

    @pytest.mark.slow
    @pytest.mark.timeout(60)
    @pytest.mark.parametrize("k", [2, 3])
    def test_budgets_are_per_site(self, k):
        """Site 0 spending its budget leaves the last site's untouched."""
        prog = parse_program(SRC)
        wm = WorkingMemory()
        load(wm)
        last = k - 1
        plan = FaultPlan(
            kills=(
                WorkerKill(cycle=1, site=0),
                WorkerKill(cycle=2, site=0),
                WorkerKill(cycle=3, site=last),
            )
        )
        with ProcessMatchPool(
            prog.rules, wm, k, PoolConfig(respawn_limit=1, fault_plan=plan)
        ) as pool:
            for _cycle in range(3):
                assert keys(pool.conflict_set()) == rete_keys(prog, wm)
            events = [(e.kind, e.site) for e in pool.drain_fault_events()]
            assert events == [
                ("kill", 0), ("respawn", 0), ("kill", 0), ("degrade", 0),
                ("kill", last), ("respawn", last),
            ]
            assert pool.degraded_sites == {0}
            assert pool.site_respawns == {0: 1, last: 1}

    @pytest.mark.slow
    @pytest.mark.timeout(60)
    def test_site_mode_gauge_reads_one_once_degraded(self, store):
        wm = store
        prog = parse_program(SRC)
        load(wm)
        metrics = MetricsRegistry()
        plan = FaultPlan(kills=(WorkerKill(cycle=2, site=1),))
        with ProcessMatchPool(
            prog.rules,
            wm,
            2,
            PoolConfig(respawn_limit=0, fault_plan=plan),
            metrics=metrics,
        ) as pool:
            pool.conflict_set()
            assert metrics.gauge_value("parulel_site_mode", site=1) is None
            pool.conflict_set()
            assert metrics.gauge_value("parulel_site_mode", site=1) == 1
            assert metrics.gauge_value("parulel_site_mode", site=0) is None
            pool.conflict_set()  # degradation is permanent
            assert metrics.gauge_value("parulel_site_mode", site=1) == 1


class TestDegradeReasons:
    """Which limit degraded a site, as the ``degrade`` event words it."""

    @pytest.mark.slow
    @pytest.mark.timeout(60)
    def test_budget_exhausted_reason_string(self):
        prog = parse_program(SRC)
        wm = WorkingMemory()
        load(wm)
        plan = FaultPlan(kills=(WorkerKill(cycle=1, site=1),))
        with ProcessMatchPool(
            prog.rules, wm, 2, PoolConfig(respawn_limit=0, fault_plan=plan)
        ) as pool:
            assert keys(pool.conflict_set()) == rete_keys(prog, wm)
            (_kill, degrade) = pool.drain_fault_events()
            assert degrade.kind == "degrade"
            assert degrade.detail.startswith("respawn budget (0) exhausted;")

    @pytest.mark.slow
    @pytest.mark.timeout(60)
    def test_three_failed_respawns_reason_string(self, monkeypatch):
        """A replacement worker that exits at once is a deterministic
        failure: three respawns in one cycle, then the site degrades."""
        prog = parse_program(SRC)
        wm = WorkingMemory()
        load(wm)
        with ProcessMatchPool(prog.rules, wm, 2) as pool:
            assert keys(pool.conflict_set()) == rete_keys(prog, wm)
            monkeypatch.setattr(process, "_worker_main", _exit_at_once)
            pool._procs[1].kill()
            pool._procs[1].join()
            wm.make("a1", k=1)
            assert keys(pool.conflict_set()) == rete_keys(prog, wm)
            events = pool.drain_fault_events()
            assert [e.kind for e in events] == ["respawn"] * 3 + ["degrade"]
            assert events[-1].detail.startswith(
                "3 consecutive respawns failed in one cycle;"
            )
            assert pool.respawns == 3 and pool.degraded_sites == {1}

    @pytest.mark.slow
    @pytest.mark.timeout(60)
    def test_failed_respawns_are_counted_per_cycle(self, monkeypatch):
        """Two failed respawns and a good one in each of two cycles: six
        respawns in all, and the site is never degraded."""
        prog = parse_program(SRC)
        wm = WorkingMemory()
        load(wm)
        real_main = process._worker_main
        comes_up = iter([False, False, True] * 2)
        with ProcessMatchPool(prog.rules, wm, 2) as pool:
            assert keys(pool.conflict_set()) == rete_keys(prog, wm)
            real_spawn = pool._spawn

            def spawn(site):
                main = real_main if next(comes_up) else _exit_at_once
                monkeypatch.setattr(process, "_worker_main", main)
                real_spawn(site)

            monkeypatch.setattr(pool, "_spawn", spawn)
            for _cycle in range(2):
                pool._procs[1].kill()
                pool._procs[1].join()
                assert keys(pool.conflict_set()) == rete_keys(prog, wm)
            kinds = [e.kind for e in pool.drain_fault_events()]
            assert kinds == ["respawn"] * 6
            assert pool.respawns == 6 and pool.degraded_sites == set()

    @pytest.mark.slow
    @pytest.mark.timeout(60)
    def test_budget_outranks_attempts(self, monkeypatch):
        """When the third failed respawn also spends the budget, the
        budget is the reason given."""
        prog = parse_program(SRC)
        wm = WorkingMemory()
        load(wm)
        with ProcessMatchPool(prog.rules, wm, 2, PoolConfig(respawn_limit=3)) as pool:
            assert keys(pool.conflict_set()) == rete_keys(prog, wm)
            monkeypatch.setattr(process, "_worker_main", _exit_at_once)
            pool._procs[0].kill()
            pool._procs[0].join()
            assert keys(pool.conflict_set()) == rete_keys(prog, wm)
            events = pool.drain_fault_events()
            assert [e.kind for e in events] == ["respawn"] * 3 + ["degrade"]
            assert events[-1].detail.startswith("respawn budget (3) exhausted;")


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
