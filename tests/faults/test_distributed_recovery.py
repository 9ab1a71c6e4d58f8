"""Distributed recovery: crashed sites, rejoin replay, message faults.

The acceptance bar: with a fixed seed, a run that loses a site completes
with a final working memory *byte-identical* to the fault-free run, and
the recovery is visible as structured FaultEvent records.
"""

import pytest

from repro.lang.parser import parse_program
from repro.parallel import DistributedMachine
from repro.parallel.partition import rehost_assignment, round_robin_assignment
from repro.resilience import FaultPlan, SiteCrash, Straggler

pytestmark = pytest.mark.faults

TC_SRC = """
(literalize edge src dst)
(literalize path src dst)
(p tc-init (edge ^src <a> ^dst <b>) -(path ^src <a> ^dst <b>)
 --> (make path ^src <a> ^dst <b>))
(p tc-extend (path ^src <a> ^dst <b>) (edge ^src <b> ^dst <c>)
 -(path ^src <a> ^dst <c>) --> (make path ^src <a> ^dst <c>))
"""


def run_machine(n_sites, fault_plan=None, n_edges=10):
    dm = DistributedMachine(
        parse_program(TC_SRC), n_sites, fault_plan=fault_plan
    )
    for i in range(n_edges):
        dm.make("edge", src=f"n{i}", dst=f"n{i + 1}")
    res = dm.run()
    return dm, res


def wm_bytes(wm):
    """Exact contents, timestamps included."""
    return sorted(repr(w) for w in wm.snapshot())


class TestRehostAssignment:
    def test_survivors_keep_their_rules(self):
        rules = parse_program(TC_SRC).rules
        base = round_robin_assignment(rules, 4)
        rehosted = rehost_assignment(base, [2], rules)
        for rule in rules:
            if base.site_of[rule.name] != 2:
                assert rehosted.site_of[rule.name] == base.site_of[rule.name]
            else:
                assert rehosted.site_of[rule.name] != 2
        rehosted.validate(rules)

    def test_master_cannot_be_dead(self):
        rules = parse_program(TC_SRC).rules
        base = round_robin_assignment(rules, 3)
        with pytest.raises(ValueError):
            rehost_assignment(base, [0], rules)


class TestPermanentCrash:
    def test_final_wm_byte_identical_to_fault_free(self):
        _ref_dm, ref = run_machine(3)
        reference = wm_bytes(_ref_dm.wm)

        plan = FaultPlan(crashes=(SiteCrash(cycle=3, site=2),))
        dm, res = run_machine(3, fault_plan=plan)
        assert res.cycles == ref.cycles
        assert res.firings == ref.firings
        assert wm_bytes(dm.wm) == reference

    def test_recovery_events_recorded(self):
        plan = FaultPlan(crashes=(SiteCrash(cycle=2, site=1),))
        _dm, res = run_machine(3, fault_plan=plan)
        kinds = [e.kind for e in res.fault_events]
        assert "crash" in kinds
        assert "detect" in kinds
        assert "redistribute" in kinds
        assert res.recoveries >= 1
        crash = next(e for e in res.fault_events if e.kind == "crash")
        assert crash.site == 1
        assert crash.cycle == 2

    def test_recovery_work_is_charged(self):
        _dm, clean = run_machine(3)
        plan = FaultPlan(crashes=(SiteCrash(cycle=2, site=1),))
        _dm2, faulty = run_machine(3, fault_plan=plan)
        # Re-hosted rules replay the whole replica on a survivor, so the
        # makespan rises even though fewer sites exchange fewer messages.
        assert faulty.compute_ticks > clean.compute_ticks

    def test_every_surviving_replica_converges(self):
        clean_dm, _clean = run_machine(4)
        plan = FaultPlan(crashes=(SiteCrash(cycle=2, site=2),))
        dm, _res = run_machine(4, fault_plan=plan)
        assert wm_bytes(dm.wm) == wm_bytes(clean_dm.wm)


class TestRejoin:
    def test_rejoined_replica_caught_up_byte_identically(self):
        _ref_dm, ref = run_machine(3)
        reference = wm_bytes(_ref_dm.wm)

        plan = FaultPlan(crashes=(SiteCrash(cycle=2, site=1, rejoin_cycle=5),))
        dm, res = run_machine(3, fault_plan=plan)
        assert res.cycles == ref.cycles
        assert res.firings == ref.firings
        assert wm_bytes(dm.wm) == reference
        # The rejoined site's rules migrated home.
        assert dm.sites.hosting.site_of == dm.assignment.site_of
        kinds = [e.kind for e in res.fault_events]
        assert "rejoin" in kinds

    def test_rejoin_replay_charged_as_messages(self):
        _dm, clean = run_machine(3)
        plan = FaultPlan(crashes=(SiteCrash(cycle=2, site=1, rejoin_cycle=4),))
        _dm2, faulty = run_machine(3, fault_plan=plan)
        assert faulty.messages > clean.messages


class TestMessageFaults:
    def test_drops_retry_never_lose_data(self):
        _ref_dm, ref = run_machine(3)
        reference = wm_bytes(_ref_dm.wm)

        plan = FaultPlan(seed=5, drop_rate=0.3, dup_rate=0.1, delay_rate=0.1)
        dm, res = run_machine(3, fault_plan=plan)
        assert res.cycles == ref.cycles
        assert wm_bytes(dm.wm) == reference
        assert res.retries > 0
        assert res.comm_ticks > ref.comm_ticks
        kinds = {e.kind for e in res.fault_events}
        assert "drop" in kinds

    def test_seeded_runs_reproduce_exactly(self):
        plan = FaultPlan(seed=9, drop_rate=0.25, dup_rate=0.05)
        _dm1, a = run_machine(3, fault_plan=plan)
        _dm2, b = run_machine(3, fault_plan=plan)
        assert a.retries == b.retries
        assert a.messages == b.messages
        assert a.comm_ticks == b.comm_ticks
        assert [
            (e.cycle, e.kind, e.site, e.detail) for e in a.fault_events
        ] == [(e.cycle, e.kind, e.site, e.detail) for e in b.fault_events]


class TestStragglers:
    def test_straggler_slows_compute_not_results(self):
        _ref_dm, ref = run_machine(3)
        reference = wm_bytes(_ref_dm.wm)
        plan = FaultPlan(stragglers=(Straggler(site=1, factor=8.0),))
        dm, res = run_machine(3, fault_plan=plan)
        assert wm_bytes(dm.wm) == reference
        assert res.compute_ticks > ref.compute_ticks
        assert any(e.kind == "straggler" and e.site == 1 for e in res.fault_events)


class TestCombined:
    def test_crash_plus_message_faults_still_byte_identical(self):
        _ref_dm, ref = run_machine(4)
        reference = wm_bytes(_ref_dm.wm)
        plan = FaultPlan(
            seed=13,
            drop_rate=0.2,
            crashes=(
                SiteCrash(cycle=2, site=3),
                SiteCrash(cycle=3, site=1, rejoin_cycle=6),
            ),
        )
        dm, res = run_machine(4, fault_plan=plan)
        assert res.cycles == ref.cycles
        assert res.firings == ref.firings
        assert wm_bytes(dm.wm) == reference
        assert res.recoveries >= 2
