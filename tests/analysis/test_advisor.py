"""Tests for the analysis-driven partition advisor."""

import pytest

from repro.lab.advisor import (
    analysis_assignment,
    class_weights,
    connectivity_cost,
)
from repro.lab.partition import (
    Assignment,
    resolve_assignment,
    round_robin_assignment,
)
from repro.lang.parser import parse_program
from repro.programs import REGISTRY

# Two independent clusters of rules; a good 2-way partition separates them.
CLUSTERED = """
(literalize a v)
(literalize b v)
(literalize x v)
(literalize y v)
(p a1 (a ^v <i>) --> (make b ^v <i>))
(p x1 (x ^v <i>) --> (make y ^v <i>))
(p a2 (b ^v <i>) --> (modify 1 ^v done))
(p x2 (y ^v <i>) --> (modify 1 ^v done))
"""


class TestClassWeights:
    def test_writers_raise_weight(self):
        rules = parse_program(CLUSTERED).rules
        w = class_weights(rules)
        # 'b' is written by a1 and a2 (modify) -> 1 + 2.
        assert w["b"] == 3.0
        # 'a' is only read -> base weight.
        assert w["a"] == 1.0


class TestAnalysisAssignment:
    def test_separates_independent_clusters(self):
        rules = parse_program(CLUSTERED).rules
        a = analysis_assignment(rules, 2)
        assert a.site_of["a1"] == a.site_of["a2"]
        assert a.site_of["x1"] == a.site_of["x2"]
        assert a.site_of["a1"] != a.site_of["x1"]
        # Perfect separation: zero cross-site class sharing.
        assert connectivity_cost(a, rules) == 0.0

    def test_beats_or_ties_round_robin_on_registry(self):
        for name in sorted(REGISTRY):
            rules = REGISTRY[name]().program.rules
            for k in (2, 4):
                adv = analysis_assignment(rules, k)
                rr = round_robin_assignment(rules, k)
                assert connectivity_cost(adv, rules) <= connectivity_cost(
                    rr, rules
                ), (name, k)

    def test_deterministic(self):
        rules = REGISTRY["sieve"]().program.rules
        a1 = analysis_assignment(rules, 4)
        a2 = analysis_assignment(rules, 4)
        assert dict(a1.site_of) == dict(a2.site_of)

    def test_validates_and_covers_all_rules(self):
        for name in sorted(REGISTRY):
            rules = REGISTRY[name]().program.rules
            a = analysis_assignment(rules, 3)
            a.validate(rules)  # raises on a missing/out-of-range site
            assert set(a.site_of) == {r.name for r in rules}

    def test_balance_cap_respected_with_unit_weights(self):
        rules = parse_program(CLUSTERED).rules
        a = analysis_assignment(rules, 2)
        loads = [0] * 2
        for site in a.site_of.values():
            loads[site] += 1
        # 4 rules, 2 sites, slack 0.25 -> cap 2.5, so 2/2 split.
        assert sorted(loads) == [2, 2]

    def test_explicit_rule_weights_shift_balance(self):
        rules = parse_program(CLUSTERED).rules
        heavy = {"a1": 10.0, "a2": 1.0, "x1": 1.0, "x2": 1.0}
        a = analysis_assignment(rules, 2, weights=heavy)
        a.validate(rules)
        # The heavy rule cannot share a site with everything else under
        # the cap (total 13, cap ~8.1), so at least two sites are used.
        assert len(set(a.site_of.values())) == 2

    def test_single_site(self):
        rules = parse_program(CLUSTERED).rules
        a = analysis_assignment(rules, 1)
        assert set(a.site_of.values()) == {0}

    def test_no_rules(self):
        a = analysis_assignment([], 3)
        assert a.n_sites == 3
        assert dict(a.site_of) == {}

    def test_bad_site_count(self):
        with pytest.raises(ValueError):
            analysis_assignment([], 0)


class TestResolveAssignment:
    def test_policy_names(self):
        rules = parse_program(CLUSTERED).rules
        rr = resolve_assignment("round-robin", rules, 2)
        assert dict(rr.site_of) == dict(round_robin_assignment(rules, 2).site_of)
        assert dict(resolve_assignment(None, rules, 2).site_of) == dict(
            rr.site_of
        )
        adv = resolve_assignment("analysis", rules, 2)
        assert dict(adv.site_of) == dict(analysis_assignment(rules, 2).site_of)

    def test_concrete_assignment_passthrough(self):
        rules = parse_program(CLUSTERED).rules
        explicit = Assignment(
            n_sites=2, site_of={r.name: 0 for r in rules}
        )
        assert resolve_assignment(explicit, rules, 2) is explicit

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="analysis"):
            resolve_assignment("bogus", [], 2)
