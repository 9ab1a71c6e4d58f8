"""Tests for the automatic parallelization planner."""

import pytest

from repro.parallel import SimMachine, autotune, hottest_rule, round_robin_assignment
from repro.programs import build_tc, build_waltz


class TestHottestRule:
    def test_picks_max(self):
        name, share = hottest_rule({"a": 10.0, "b": 30.0, "c": 60.0})
        assert name == "c"
        assert share == pytest.approx(0.6)

    def test_deterministic_on_ties(self):
        assert hottest_rule({"b": 5.0, "a": 5.0})[0] == hottest_rule(
            {"a": 5.0, "b": 5.0}
        )[0]

    def test_zero_weights(self):
        name, share = hottest_rule({"a": 0.0})
        assert share == 0.0


class TestAutotunePlans:
    def test_tc_split_on_hot_join(self):
        wl = build_tc(n_nodes=20, shape="chain")
        plan = autotune(wl.program, wl.setup, n_sites=4, domains=wl.domains)
        assert plan.split_rule == "tc-extend"
        assert plan.split_on == ("path", "src")
        assert plan.hot_share > 0.4
        # Original rule replaced by constrained copies.
        names = [r.name for r in plan.program.rules]
        assert "tc-extend" not in names
        assert sum(1 for n in names if n.startswith("tc-extend@cc")) == 4
        assert "copy-and-constrained" in plan.report()

    def test_single_site_never_splits(self):
        wl = build_tc(n_nodes=12, shape="chain")
        plan = autotune(wl.program, wl.setup, n_sites=1, domains=wl.domains)
        assert plan.split_rule is None
        assert [r.name for r in plan.program.rules] == [
            r.name for r in wl.program.rules
        ]

    def test_no_domain_no_split(self):
        wl = build_tc(n_nodes=12, shape="chain")
        plan = autotune(wl.program, wl.setup, n_sites=4, domains={})
        assert plan.split_rule is None
        assert "no value domain" in plan.report() or "no split" in plan.report()

    def test_below_threshold_no_split(self):
        wl = build_tc(n_nodes=12, shape="chain")
        plan = autotune(
            wl.program, wl.setup, n_sites=4, domains=wl.domains, threshold=1.01
        )
        assert plan.split_rule is None

    def test_assignment_covers_all_rules(self):
        wl = build_waltz(n_drawings=4, chain_length=6)
        # Splitting waltz's ``propagate`` yields copies that can disable
        # each other's negated CE; the planner says so and goes on.
        with pytest.warns(UserWarning, match="'propagate@cc0' and 'propagate@cc1' race"):
            plan = autotune(wl.program, wl.setup, n_sites=3, domains=wl.domains)
        plan.assignment.validate(plan.program.rules)


class TestAutotunedExecution:
    def test_tuned_plan_beats_naive_distribution(self):
        """On tc at 8 sites, the autotuned plan (split + LPT) must beat
        round-robin over the unsplit program in simulated time, with
        identical results."""
        wl = build_tc(n_nodes=20, shape="chain")
        plan = autotune(wl.program, wl.setup, n_sites=8, domains=wl.domains)

        tuned = SimMachine(plan.program, 8, assignment=plan.assignment)
        wl.setup(tuned)
        tuned_res = tuned.run()
        assert wl.failed_checks(tuned.wm) == []

        plain = SimMachine(
            wl.program, 8, assignment=round_robin_assignment(wl.program.rules, 8)
        )
        wl.setup(plain)
        plain_res = plain.run()
        assert wl.failed_checks(plain.wm) == []

        assert tuned_res.firings == plain_res.firings
        assert tuned_res.parallel_ticks < plain_res.parallel_ticks
