"""Unit tests for the simulation cost model."""

from collections import Counter

import pytest

from repro.lab import CostModel


class TestMatchCost:
    def test_weighted_sum(self):
        cm = CostModel()
        counters = Counter(
            alpha_tests=10, join_probes=5, join_checks=4, tokens=3,
            instantiations=2, retractions=1,
        )
        expected = 10 * 1 + 5 * 2 + 4 * 1 + 3 * 2 + 2 * 3 + 1 * 2
        assert cm.match_cost(counters) == expected

    def test_missing_counters_are_zero(self):
        assert CostModel().match_cost({}) == 0.0

    def test_unknown_counters_ignored(self):
        assert CostModel().match_cost({"bogus": 1000}) == 0.0

    def test_custom_weights(self):
        cm = CostModel(alpha_tests=100.0)
        assert cm.match_cost({"alpha_tests": 2}) == 200.0


class TestPhaseCosts:
    def test_fire_cost(self):
        assert CostModel().fire_cost(3) == 30.0
        assert CostModel(fire=1.0).fire_cost(3) == 3.0

    def test_broadcast_cost(self):
        assert CostModel().broadcast_cost(5) == 20.0

    def test_redaction_cost_combines_match_and_firings(self):
        cm = CostModel()
        cost = cm.redaction_cost({"alpha_tests": 4}, meta_firings=2)
        assert cost == 4 * 1 + 2 * 5

    def test_frozen(self):
        cm = CostModel()
        with pytest.raises(Exception):
            cm.fire = 999.0
