"""Tests for the process-parallel match pool (GIL-free backend)."""

import os
import signal

import pytest

from repro.core import EngineConfig, ParulelEngine
from repro.errors import MatchError
from repro.lab.rete import create_lab_matcher
from repro.lang.parser import parse_program
from repro.match.compile import value_residue
from repro.match.interface import MATCHER_NAMES, PoolConfig, create_matcher
from repro.obs.metrics import MetricsRegistry
from repro.parallel.process import (
    ProcessMatchPool,
    ProcessMatcher,
    default_worker_count,
)
from repro.resilience import FaultPlan, WorkerKill, WorkerWedge
from repro.wm.columnar import ColumnarWorkingMemory
from repro.wm.memory import WorkingMemory

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


class TestProcessMatchPool:
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_agrees_with_rete(self, n_workers):
        prog = parse_program(SRC)
        wm = WorkingMemory()
        rete = create_lab_matcher("rete", prog.rules, wm)
        load(wm)
        with ProcessMatchPool(prog.rules, wm, n_workers) as pool:
            assert keys(pool.conflict_set()) == keys(rete.instantiations())

    def test_sites_hold_disjoint_shares_of_every_rule(self):
        """Alpha-level copy-and-constrain: each site retains part of the
        conflict set, no instantiation twice, and a rule's instantiations
        are not all on one site."""
        prog = parse_program(SRC)
        wm = WorkingMemory()
        rete = create_lab_matcher("rete", prog.rules, wm)
        load(wm, n=12)
        with ProcessMatchPool(prog.rules, wm, 3) as pool:
            merged = pool.conflict_set()
            assert keys(merged) == keys(rete.instantiations())
            assert len({i.key for i in merged}) == len(merged)
            shares = [
                {key[0] for key in pool._retained[site]}
                for site in pool.active_sites
            ]
            assert sum(len(pool._retained[s]) for s in pool.active_sites) == len(
                merged
            )
        for rule in {i.rule.name for i in merged}:
            assert sum(rule in share for share in shares) >= 2, rule

    def test_incremental_deltas_between_calls(self):
        prog = parse_program(SRC)
        wm = WorkingMemory()
        rete = create_lab_matcher("rete", prog.rules, wm)
        with ProcessMatchPool(prog.rules, wm, 2) as pool:
            assert pool.conflict_set() == []
            live = []
            for i in range(4):
                live.append(wm.make("a0", k=i % 2))
                live.append(wm.make("b0", k=i % 2))
                assert keys(pool.conflict_set()) == keys(rete.instantiations())
            wm.remove(live[0])
            wm.remove(live[1])
            assert keys(pool.conflict_set()) == keys(rete.instantiations())

    def test_instantiations_reference_parent_wme_objects(self):
        # The rebuilt instantiations must carry the parent's exact WME
        # objects so downstream identity (refraction, provenance) holds.
        prog = parse_program(SRC)
        wm = WorkingMemory()
        a = wm.make("a0", k=1)
        b = wm.make("b0", k=1)
        with ProcessMatchPool(prog.rules, wm, 2) as pool:
            insts = [i for i in pool.conflict_set() if i.rule.name == "j0"]
        assert len(insts) == 1
        assert insts[0].wmes[0] is a
        assert insts[0].wmes[1] is b

    def test_workers_above_the_rule_count_split_by_value(self):
        """Every rule joins on ``<k>``, so a site holds the matches whose
        ``k`` maps to it: three key values engage at most three of six
        sites, sixty engage them all."""
        prog = parse_program(SRC)  # 4 rules
        wm = WorkingMemory()
        rete = create_lab_matcher("rete", prog.rules, wm)
        load(wm, n=12)  # k in {0, 1, 2}
        with ProcessMatchPool(prog.rules, wm, 6) as pool:
            assert pool.active_sites == tuple(range(6))
            assert len(pool._procs) == 6
            assert keys(pool.conflict_set()) == keys(rete.instantiations())
            engaged = {site for site in pool.active_sites if pool._retained[site]}
            assert engaged == {value_residue(k, 6) for k in range(3)}
            for i in range(60):
                wm.make("a0", k=100 + i)
                wm.make("b0", k=100 + i)
            assert keys(pool.conflict_set()) == keys(rete.instantiations())
            assert all(pool._retained[site] for site in pool.active_sites)

    def test_pool_with_no_rules(self):
        pool = ProcessMatchPool([], WorkingMemory(), 4)
        assert pool.active_sites == ()
        assert pool.conflict_set() == []
        pool.close()

    def test_zero_workers_rejected(self):
        prog = parse_program(SRC)
        with pytest.raises(ValueError):
            ProcessMatchPool(prog.rules, WorkingMemory(), 0)

    def test_close_idempotent_and_closed_pool_raises(self):
        prog = parse_program(SRC)
        pool = ProcessMatchPool(prog.rules, WorkingMemory(), 2)
        pool.close()
        pool.close()
        with pytest.raises(MatchError):
            pool.conflict_set()

    def test_close_detaches_from_working_memory(self):
        prog = parse_program(SRC)
        wm = WorkingMemory()
        pool = ProcessMatchPool(prog.rules, wm, 2)
        pool.close()
        wm.make("a0", k=0)  # must not notify a closed recorder

    def test_workers_are_daemonic(self):
        prog = parse_program(SRC)
        with ProcessMatchPool(prog.rules, WorkingMemory(), 2) as pool:
            assert all(p.daemon for p in pool._procs.values())


class TestWorkerRobustness:
    def test_survives_worker_crash_mid_run(self):
        prog = parse_program(SRC)
        wm = WorkingMemory()
        rete = create_lab_matcher("rete", prog.rules, wm)
        load(wm)
        with ProcessMatchPool(prog.rules, wm, 2) as pool:
            before = keys(pool.conflict_set())
            assert before == keys(rete.instantiations())
            # SIGKILL a worker between cycles; the pool must respawn it and
            # catch it up from the live memory.
            victim = pool.active_sites[0]
            pool._procs[victim].kill()
            pool._procs[victim].join()
            wm.make("a0", k=1)
            wm.make("b0", k=1)
            after = keys(pool.conflict_set())
            assert after == keys(rete.instantiations())
            assert len(after) > len(before)
            assert pool.respawns == 1
            # Subsequent cycles keep working with the respawned worker.
            wm.make("a1", k=2)
            wm.make("b1", k=2)
            assert keys(pool.conflict_set()) == keys(rete.instantiations())
            assert pool.respawns == 1

    def test_all_workers_crashing_still_recovers(self):
        prog = parse_program(SRC)
        wm = WorkingMemory()
        rete = create_lab_matcher("rete", prog.rules, wm)
        load(wm)
        with ProcessMatchPool(prog.rules, wm, 4) as pool:
            pool.conflict_set()
            for site in pool.active_sites:
                pool._procs[site].kill()
                pool._procs[site].join()
            assert keys(pool.conflict_set()) == keys(rete.instantiations())
            assert pool.respawns == len(pool.active_sites)

    @pytest.mark.skipif(
        not hasattr(signal, "SIGSTOP"), reason="needs SIGSTOP (POSIX)"
    )
    def test_wedged_worker_times_out_and_respawns(self):
        prog = parse_program(SRC)
        wm = WorkingMemory()
        rete = create_lab_matcher("rete", prog.rules, wm)
        load(wm)
        with ProcessMatchPool(prog.rules, wm, 2, PoolConfig(timeout=0.5)) as pool:
            pool.conflict_set()
            victim = pool.active_sites[0]
            os.kill(pool._procs[victim].pid, signal.SIGSTOP)
            wm.make("a0", k=2)
            wm.make("b0", k=2)
            assert keys(pool.conflict_set()) == keys(rete.instantiations())
            assert pool.respawns >= 1


#: The stores a pool can sit on and the worker alpha layer each selects:
#: pickled deltas into a replica read through ``AlphaCache``, and the
#: shared columns read through ``ColumnVectorCache``.
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


def image(insts):
    """Byte-comparable view of a conflict set (a pool promises the set,
    not an order: the engine sorts what it fires)."""
    return sorted((i.key, sorted(i.env.items())) for i in insts)


def retained_count(pool):
    return sum(len(retained) for retained in pool._retained.values())


BULK_SRC = "(p probe-hit (probe ^key <k>) (item ^key <k>) --> (halt))"


class TestIncrementalReplies:
    """Workers keep their conflict set and reply with its journal; the
    parent keeps the per-site retained sets the journals edit."""

    def test_reply_bytes_track_new_instantiations_not_retained(self, store):
        wm = store
        prog = parse_program(BULK_SRC)
        per_key, ticks = 8, 12
        for key in range(ticks):
            for _ in range(per_key):
                wm.make("item", key=key)
        metrics = MetricsRegistry()

        def reply_bytes():
            return sum(
                metrics.counter_value("parulel_ipc_reply_bytes_total", site=site)
                for site in (0, 1)
            )

        sizes = []
        with ProcessMatchPool(prog.rules, wm, 2, metrics=metrics) as pool:
            assert pool.conflict_set() == []
            seen = reply_bytes()
            assert seen > 0
            for tick in range(ticks):
                wm.make("probe", key=tick)
                insts = pool.conflict_set()
                assert len(insts) == per_key * (tick + 1)  # retained grows...
                total = reply_bytes()
                sizes.append(total - seen)
                seen = total
        # ...while the sites' replies carry only that tick's per_key
        # additions between them (the probe's owner has them all).
        assert max(sizes) < 1.25 * min(sizes)
        assert metrics.counter_value(
            "parulel_ipc_messages_total", direction="reply"
        ) == 2 * (ticks + 1)

    def test_bulk_tick_gives_both_sites_new_probes(self, store):
        """One ``modify`` and one ``make`` per cycle gives every new probe
        the same timestamp parity; the site condition mixes the timestamp,
        so both sites still get probes to join."""
        wm = store
        prog = parse_program(BULK_SRC)
        for key in range(20):
            wm.make("item", key=key)
        tick = wm.make("tick", n=0)
        with ProcessMatchPool(prog.rules, wm, 2) as pool:
            for n in range(1, 21):
                wm.remove(tick)  # a modify: remove ...
                tick = wm.make("tick", n=n)  # ... and re-make,
                wm.make("probe", key=n - 1)  # then the cycle's one make
                assert len(pool.conflict_set()) == n
            probes = {w.timestamp % 2 for w in wm.by_class("probe")}
            shares = [len(pool._retained[site]) for site in (0, 1)]
        assert len(probes) == 1  # the parity trap is real on this shape
        assert min(shares) >= 5 and sum(shares) == 20

    def test_kill_after_retractions_leaves_no_stale_entry(self, store):
        wm = store
        prog = parse_program(SRC)
        rete = create_lab_matcher("rete", prog.rules, wm)
        load(wm)
        with ProcessMatchPool(prog.rules, wm, 2) as pool:
            assert keys(pool.conflict_set()) == keys(rete.instantiations())
            # Retract while the worker is alive: it reports the removals.
            wm.remove(wm.by_class("a0")[0])
            assert keys(pool.conflict_set()) == keys(rete.instantiations())
            for site in pool.active_sites:
                pool._procs[site].kill()
                pool._procs[site].join()
            # Retract while it is dead: the replacement never held these
            # instantiations, so only its reset can drop them.
            wm.remove(wm.by_class("b0")[0])
            wm.remove(wm.by_class("b1")[0])  # unblocks 'neg' matches
            wm.make("a1", k=1)
            merged = pool.conflict_set()
            assert pool.respawns == len(pool.active_sites)
            assert keys(merged) == keys(rete.instantiations())
            assert retained_count(pool) == len(merged)

    @pytest.mark.slow
    @pytest.mark.timeout(60)
    @pytest.mark.parametrize("k", [2, 3])
    def test_degraded_site_stays_byte_identical(self, store, k):
        """Killed past its budget, a site is matched in the parent for
        every later cycle, byte-identically to a healthy pool's site."""
        wm = store
        prog = parse_program(SRC)
        oracles = [create_lab_matcher(name, prog.rules, wm) for name in ("rete", "naive")]
        load(wm)
        plan = FaultPlan(kills=(WorkerKill(cycle=2, site=0),))
        with ProcessMatchPool(prog.rules, wm, k) as healthy:
            with ProcessMatchPool(
                prog.rules, wm, k, PoolConfig(respawn_limit=0, fault_plan=plan)
            ) as pool:
                degraded_cycles = 0
                for cycle in range(1, 7):
                    # Churn every cycle: adds, a retraction, negation flips.
                    wm.make("a0", k=cycle % 3)
                    wm.make("b1", k=cycle % 3)
                    wm.remove(wm.by_class("b0")[0])
                    want = healthy.conflict_set()
                    assert image(pool.conflict_set()) == image(want), f"cycle {cycle}"
                    for oracle in oracles:
                        assert keys(want) == keys(oracle.instantiations())
                    degraded_cycles += bool(pool.degraded_sites)
                kinds = [e.kind for e in pool.drain_fault_events()]
        assert kinds == ["kill", "degrade"]
        assert degraded_cycles == 5 and pool.degraded_sites == {0}

    def test_respawn_catch_up_costs_live_size_not_history(self):
        """Delta mode: a respawned worker is sent the live memory, so churn
        that left nothing behind adds nothing to its catch-up."""
        prog = parse_program(SRC)
        wm = WorkingMemory()
        load(wm)

        def catch_up_bytes(churn):
            metrics = MetricsRegistry()
            with ProcessMatchPool(prog.rules, wm, 1, metrics=metrics) as pool:
                pool.conflict_set()
                for _ in range(churn):
                    wme = wm.make("a0", k=0)
                    pool.conflict_set()
                    wm.remove(wme)
                    pool.conflict_set()
                before = metrics.counter_value("parulel_ipc_bytes_total", site=0)
                pool._procs[0].kill()
                pool._procs[0].join()
                pool.conflict_set()
                assert pool.respawns == 1
                return metrics.counter_value(
                    "parulel_ipc_bytes_total", site=0
                ) - before

        # Only the unanswered (empty) request separates the two.
        assert abs(catch_up_bytes(churn=40) - catch_up_bytes(churn=0)) < 64


class TestProcessMatcher:
    def test_registered_backend(self):
        assert "process" in MATCHER_NAMES
        prog = parse_program(SRC)
        wm = WorkingMemory()
        matcher = create_matcher("process:2", prog.rules, wm)
        assert isinstance(matcher, ProcessMatcher)
        assert matcher.pool.n_workers == 2
        matcher.close()

    def test_bad_worker_spec_rejected(self):
        prog = parse_program(SRC)
        with pytest.raises(ValueError):
            create_matcher("process:x", prog.rules, WorkingMemory())

    def test_zero_worker_spec_rejected(self):
        # Regression: an explicit 0 used to fall through a falsy
        # ``n_workers or default`` check and silently get the default.
        prog = parse_program(SRC)
        with pytest.raises(ValueError, match="worker"):
            create_matcher("process:0", prog.rules, WorkingMemory())

    @pytest.mark.parametrize(
        "knob", [{"timeout": 5.0}, {"respawn_limit": 1}, {"fault_plan": FaultPlan()}]
    )
    def test_process_only_knobs_rejected_on_a_serial_engine(self, knob):
        prog = parse_program(SRC)
        with pytest.raises(ValueError, match="only apply to the 'process' backend"):
            create_matcher(
                "treat", prog.rules, WorkingMemory(), pool=PoolConfig(**knob)
            )

    @pytest.mark.parametrize(
        "knob",
        [
            {"timeout": 0}, {"timeout": -1.0}, {"timeout": float("nan")},
            {"timeout": float("inf")}, {"respawn_limit": -1},
        ],
    )
    def test_bad_pool_knobs_rejected_before_any_spawn(self, knob):
        prog = parse_program(SRC)
        with pytest.raises(ValueError, match="must be"):
            ProcessMatchPool(prog.rules, WorkingMemory(), 2, PoolConfig(**knob))

    @pytest.mark.parametrize(
        "plan",
        [
            FaultPlan(kills=(WorkerKill(cycle=2, site=2),)),
            FaultPlan(kills=(WorkerKill(cycle=2, site=-1),)),
            FaultPlan(wedges=(WorkerWedge(cycle=2, site=11),)),
            FaultPlan(wedges=(WorkerWedge(cycle=2, site=-1),)),
        ],
        ids=["kill-above", "kill-below", "wedge-above", "wedge-below"],
    )
    def test_a_fault_at_a_site_the_pool_lacks_is_refused_before_any_spawn(
        self, plan, monkeypatch
    ):
        # A fault at a site the pool lacks would never fire.
        (fault,) = plan.kills or plan.wedges
        spawned = []
        monkeypatch.setattr(
            ProcessMatchPool, "_spawn", lambda pool, site: spawned.append(site)
        )
        prog = parse_program(SRC)
        wm = WorkingMemory()
        with pytest.raises(ValueError, match=rf"site {fault.site} out of range"):
            ProcessMatchPool(prog.rules, wm, 2, PoolConfig(fault_plan=plan))
        assert spawned == []
        with pytest.raises(ValueError, match=rf"site {fault.site} out of range"):
            ParulelEngine(
                prog,
                EngineConfig(matcher="process:2", pool=PoolConfig(fault_plan=plan)),
                wm=wm,
            )
        assert spawned == []

    def test_default_worker_count_bounds(self):
        assert 1 <= default_worker_count() <= 4

    def test_attaches_to_populated_memory(self):
        prog = parse_program(SRC)
        wm = WorkingMemory()
        rete = create_lab_matcher("rete", prog.rules, wm)
        load(wm)
        matcher = create_matcher("process:2", prog.rules, wm)
        try:
            assert keys(matcher.instantiations()) == keys(rete.instantiations())
        finally:
            matcher.close()

    def test_lazy_recompute_only_when_dirty(self):
        prog = parse_program(SRC)
        wm = WorkingMemory()
        matcher = create_matcher("process:2", prog.rules, wm)
        try:
            wm.make("a0", k=1)
            wm.make("b0", k=1)
            first = matcher.instantiations()
            # No WM change: the cached conflict set is returned as-is.
            assert matcher.instantiations() is not first  # fresh snapshot list
            calls = []
            real = matcher.pool.conflict_set
            matcher.pool.conflict_set = lambda: calls.append(1) or real()
            matcher.instantiations()
            assert calls == []  # clean → no IPC round
            wm.make("a0", k=2)
            matcher.instantiations()
            assert calls == [1]  # dirty → exactly one recompute
        finally:
            matcher.pool.close()

    def test_engine_with_process_matcher_matches_rete(self):
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
        eng = ParulelEngine(prog, EngineConfig(matcher="process:2"))
        for e in (ref, eng):
            for i in range(8):
                e.make("edge", src=f"n{i}", dst=f"n{i + 1}")
        r_ref = ref.run()
        r_eng = eng.run()
        eng.matcher.close()
        assert (r_eng.cycles, r_eng.firings) == (r_ref.cycles, r_ref.firings)
        paths = lambda wm: sorted(  # noqa: E731
            (w.get("src"), w.get("dst")) for w in wm.by_class("path")
        )
        assert paths(eng.wm) == paths(ref.wm)
