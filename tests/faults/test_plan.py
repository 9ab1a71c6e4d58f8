"""Tests for fault plans, injectors, and event records."""

import pytest

from repro.resilience import (
    FaultEvent,
    FaultPlan,
    SiteCrash,
    Straggler,
    summarize_faults,
)

pytestmark = pytest.mark.faults


class TestPlanValidation:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_rate=1.0)
        with pytest.raises(ValueError):
            FaultPlan(dup_rate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(delay_rate=2.0)

    def test_max_retries_positive(self):
        with pytest.raises(ValueError):
            FaultPlan(max_retries=0)

    def test_crash_cycles_one_based(self):
        with pytest.raises(ValueError):
            FaultPlan(crashes=(SiteCrash(cycle=0, site=1),))

    def test_rejoin_must_follow_crash(self):
        with pytest.raises(ValueError):
            FaultPlan(crashes=(SiteCrash(cycle=5, site=1, rejoin_cycle=5),))

    def test_master_cannot_crash(self):
        plan = FaultPlan(crashes=(SiteCrash(cycle=2, site=0),))
        with pytest.raises(ValueError, match="master"):
            plan.validate_sites(4)

    def test_crash_site_in_range(self):
        plan = FaultPlan(crashes=(SiteCrash(cycle=2, site=7),))
        with pytest.raises(ValueError, match="out of range"):
            plan.validate_sites(4)

    def test_straggler_site_in_range(self):
        plan = FaultPlan(stragglers=(Straggler(site=9),))
        with pytest.raises(ValueError):
            plan.validate_sites(4)

    def test_empty_property(self):
        assert FaultPlan().empty
        assert not FaultPlan(drop_rate=0.1).empty
        assert not FaultPlan(stragglers=(Straggler(site=1),)).empty


class TestInjectorDeterminism:
    def test_same_seed_same_message_fates(self):
        plan = FaultPlan(seed=7, drop_rate=0.3, dup_rate=0.2, delay_rate=0.1)
        a = [plan.injector().message_fate() for _ in range(1)]  # fresh each
        first = [plan.injector() for _ in range(2)]
        fates = [[inj.message_fate() for _ in range(200)] for inj in first]
        assert fates[0] == fates[1]

    def test_different_seed_differs(self):
        fates = []
        for seed in (1, 2):
            inj = FaultPlan(seed=seed, drop_rate=0.4).injector()
            fates.append([inj.message_fate() for _ in range(100)])
        assert fates[0] != fates[1]

    def test_drops_bounded_by_max_retries(self):
        inj = FaultPlan(seed=0, drop_rate=0.99, max_retries=3).injector()
        for _ in range(100):
            drops, _dup, _delay = inj.message_fate()
            assert drops <= 3

    def test_retry_counter_accumulates(self):
        inj = FaultPlan(seed=0, drop_rate=0.5).injector()
        total = sum(inj.message_fate()[0] for _ in range(50))
        assert inj.retries == total > 0

    def test_schedules(self):
        plan = FaultPlan(
            crashes=(SiteCrash(cycle=3, site=2, rejoin_cycle=6),),
            stragglers=(Straggler(site=3, factor=2.5),),
        )
        inj = plan.injector()
        assert [c.site for c in inj.crashes_at(3)] == [2]
        assert inj.crashes_at(4) == []
        assert [c.site for c in inj.rejoins_at(6)] == [2]
        assert inj.straggle_factor(3) == 2.5
        assert inj.straggle_factor(0) == 1.0


class TestSeededPlans:
    def test_seeded_is_deterministic(self):
        a = FaultPlan.seeded(11, 4, crashes=2, drop_rate=0.1)
        b = FaultPlan.seeded(11, 4, crashes=2, drop_rate=0.1)
        assert a == b
        assert len(a.crashes) == 2

    def test_seeded_never_crashes_master(self):
        for seed in range(20):
            plan = FaultPlan.seeded(seed, 4, crashes=3)
            assert all(c.site != 0 for c in plan.crashes)
            plan.validate_sites(4)

    def test_seeded_rejoin_cycles(self):
        plan = FaultPlan.seeded(3, 4, crashes=2, rejoin=True, within_cycles=5)
        for crash in plan.crashes:
            assert crash.rejoin_cycle == crash.cycle + 5

    def test_cannot_crash_more_sites_than_exist(self):
        with pytest.raises(ValueError):
            FaultPlan.seeded(0, 3, crashes=3)


class TestEvents:
    def test_record_and_drain(self):
        inj = FaultPlan().injector()
        inj.record(2, "crash", site=1)
        inj.record(2, "detect", site=1, detail="missed gather")
        drained = inj.drain_events()
        assert [e.kind for e in drained] == ["crash", "detect"]
        assert inj.drain_events() == []

    def test_summarize(self):
        events = [
            FaultEvent(cycle=1, kind="crash", site=1),
            FaultEvent(cycle=2, kind="redistribute", site=1),
            FaultEvent(cycle=2, kind="crash", site=2),
        ]
        counts = summarize_faults(events)
        assert counts["crash"] == 2
        assert counts["redistribute"] == 1

    def test_str_is_readable(self):
        ev = FaultEvent(cycle=3, kind="rejoin", site=2, detail="replayed 44")
        text = str(ev)
        assert "rejoin" in text and "2" in text
