"""Unit tests for cycle-delta merging and interference policies."""

import pytest

from repro.errors import InterferenceError
from repro.core.actions import FiringDelta
from repro.core.delta import InterferencePolicy, merge_deltas
from repro.lang.parser import parse_program
from repro.match.instantiation import Instantiation
from repro.wm.wme import WME

RULE_A = parse_program("(p ra (c ^a <x>) --> (halt))").rules[0]
RULE_B = parse_program("(p rb (c ^a <x>) --> (halt))").rules[0]


def delta_for(rule, ts=1, **effects):
    w = WME("c", {"a": 0}, ts)
    inst = Instantiation(rule, (w,), {"x": 0})
    d = FiringDelta([inst])
    for key, value in effects.items():
        setattr(d, key, value)
    return d


W = WME("t", {"v": 1}, 100)


class TestBasicMerging:
    def test_empty(self):
        out = merge_deltas([])
        assert out.removes == [] and out.makes == []
        assert not out.halt

    def test_makes_concatenate(self):
        d1 = delta_for(RULE_A, 1, makes=[("x", {"a": 1})])
        d2 = delta_for(RULE_B, 2, makes=[("y", {"b": 2})])
        out = merge_deltas([d1, d2])
        assert out.makes == [("x", {"a": 1}), ("y", {"b": 2})]

    def test_writes_in_firing_order(self):
        d1 = delta_for(RULE_A, 1, writes=["first"])
        d2 = delta_for(RULE_B, 2, writes=["second"])
        assert merge_deltas([d1, d2]).writes == ["first", "second"]

    def test_halt_propagates(self):
        d = delta_for(RULE_A, 1)
        d.halt = True
        assert merge_deltas([d]).halt

    def test_modify_becomes_remove_plus_make(self):
        d = delta_for(RULE_A, 1, modifies=[(W, {"v": 2})])
        out = merge_deltas([d])
        assert out.removes == [W]
        assert out.makes == [("t", {"v": 2})]

    def test_double_remove_is_idempotent(self):
        d1 = delta_for(RULE_A, 1, removes=[W])
        d2 = delta_for(RULE_B, 2, removes=[W])
        out = merge_deltas([d1, d2])
        assert out.removes == [W]
        assert out.conflicts_resolved == 0

    def test_identical_modifies_compatible(self):
        d1 = delta_for(RULE_A, 1, modifies=[(W, {"v": 2})])
        d2 = delta_for(RULE_B, 2, modifies=[(W, {"v": 2})])
        out = merge_deltas([d1, d2])
        assert out.removes == [W]
        assert out.makes == [("t", {"v": 2})]
        assert out.conflicts_resolved == 0

    def test_disjoint_attribute_modifies_merge(self):
        w = WME("t", {"v": 1, "u": 1}, 100)
        d1 = delta_for(RULE_A, 1, modifies=[(w, {"v": 2})])
        d2 = delta_for(RULE_B, 2, modifies=[(w, {"u": 3})])
        out = merge_deltas([d1, d2])
        assert out.makes == [("t", {"v": 2, "u": 3})]


class TestDedupeMakes:
    def test_identical_makes_collapse(self):
        d1 = delta_for(RULE_A, 1, makes=[("x", {"a": 1})])
        d2 = delta_for(RULE_B, 2, makes=[("x", {"a": 1})])
        out = merge_deltas([d1, d2], dedupe_makes=True)
        assert out.makes == [("x", {"a": 1})]
        assert out.makes_deduped == 1

    def test_dedupe_off_keeps_duplicates(self):
        d1 = delta_for(RULE_A, 1, makes=[("x", {"a": 1})])
        d2 = delta_for(RULE_B, 2, makes=[("x", {"a": 1})])
        out = merge_deltas([d1, d2], dedupe_makes=False)
        assert len(out.makes) == 2

    def test_different_content_not_deduped(self):
        d1 = delta_for(RULE_A, 1, makes=[("x", {"a": 1})])
        d2 = delta_for(RULE_B, 2, makes=[("x", {"a": 2})])
        out = merge_deltas([d1, d2], dedupe_makes=True)
        assert len(out.makes) == 2


class TestInterferenceError:
    def test_conflicting_modifies_raise(self):
        d1 = delta_for(RULE_A, 1, modifies=[(W, {"v": 2})])
        d2 = delta_for(RULE_B, 2, modifies=[(W, {"v": 3})])
        with pytest.raises(InterferenceError, match="both modify"):
            merge_deltas([d1, d2], InterferencePolicy.ERROR)

    def test_modify_then_remove_raises(self):
        d1 = delta_for(RULE_A, 1, modifies=[(W, {"v": 2})])
        d2 = delta_for(RULE_B, 2, removes=[W])
        with pytest.raises(InterferenceError, match="modified by rule"):
            merge_deltas([d1, d2], InterferencePolicy.ERROR)

    def test_remove_then_modify_raises(self):
        d1 = delta_for(RULE_A, 1, removes=[W])
        d2 = delta_for(RULE_B, 2, modifies=[(W, {"v": 2})])
        with pytest.raises(InterferenceError, match="removed by rule"):
            merge_deltas([d1, d2], InterferencePolicy.ERROR)

    def test_error_names_both_rules(self):
        d1 = delta_for(RULE_A, 1, modifies=[(W, {"v": 2})])
        d2 = delta_for(RULE_B, 2, modifies=[(W, {"v": 3})])
        with pytest.raises(InterferenceError, match="'ra'.*'rb'"):
            merge_deltas([d1, d2])


class TestFirstPolicy:
    def test_first_modify_wins(self):
        d1 = delta_for(RULE_A, 1, modifies=[(W, {"v": 2})])
        d2 = delta_for(RULE_B, 2, modifies=[(W, {"v": 3})])
        out = merge_deltas([d1, d2], InterferencePolicy.FIRST)
        assert out.makes == [("t", {"v": 2})]
        assert out.conflicts_resolved == 1

    def test_first_keeps_nonclashing_novelties(self):
        w = WME("t", {"v": 1, "u": 1}, 100)
        d1 = delta_for(RULE_A, 1, modifies=[(w, {"v": 2})])
        d2 = delta_for(RULE_B, 2, modifies=[(w, {"v": 9, "u": 5})])
        out = merge_deltas([d1, d2], InterferencePolicy.FIRST)
        assert out.makes == [("t", {"v": 2, "u": 5})]

    def test_modify_beats_later_remove(self):
        d1 = delta_for(RULE_A, 1, modifies=[(W, {"v": 2})])
        d2 = delta_for(RULE_B, 2, removes=[W])
        out = merge_deltas([d1, d2], InterferencePolicy.FIRST)
        assert out.removes == [W]  # the modify's retraction
        assert out.makes == [("t", {"v": 2})]
        assert out.conflicts_resolved == 1

    def test_remove_beats_later_modify(self):
        d1 = delta_for(RULE_A, 1, removes=[W])
        d2 = delta_for(RULE_B, 2, modifies=[(W, {"v": 2})])
        out = merge_deltas([d1, d2], InterferencePolicy.FIRST)
        assert out.removes == [W]
        assert out.makes == []


class TestMergePolicy:
    def test_last_write_wins_per_attribute(self):
        d1 = delta_for(RULE_A, 1, modifies=[(W, {"v": 2})])
        d2 = delta_for(RULE_B, 2, modifies=[(W, {"v": 3})])
        out = merge_deltas([d1, d2], InterferencePolicy.MERGE)
        assert out.makes == [("t", {"v": 3})]
        assert out.conflicts_resolved == 1

    def test_remove_dominates_modify(self):
        d1 = delta_for(RULE_A, 1, modifies=[(W, {"v": 2})])
        d2 = delta_for(RULE_B, 2, removes=[W])
        out = merge_deltas([d1, d2], InterferencePolicy.MERGE)
        assert out.removes == [W]
        assert out.makes == []


class TestPolicyParsing:
    def test_of_accepts_strings(self):
        assert InterferencePolicy.of("error") is InterferencePolicy.ERROR
        assert InterferencePolicy.of("FIRST") is InterferencePolicy.FIRST
        assert InterferencePolicy.of(InterferencePolicy.MERGE) is InterferencePolicy.MERGE

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError):
            InterferencePolicy.of("never")
