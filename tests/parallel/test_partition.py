"""Tests for rule assignment, LPT, profiling, and copy-and-constrain."""

import pytest

from repro.errors import MatchError
from repro.lab.partition import (
    Assignment,
    copy_and_constrain,
    copy_and_constrain_program,
    hash_partitions,
    lpt_assignment,
    profile_rule_weights,
    round_robin_assignment,
)
from repro.lang.parser import parse_program

PROG = parse_program(
    "(p r0 (c ^a <x>) --> (halt))"
    "(p r1 (c ^a <x>) --> (halt))"
    "(p r2 (c ^a <x>) --> (halt))"
    "(p r3 (c ^a <x>) --> (halt))"
    "(p r4 (c ^a <x>) --> (halt))"
)


class TestRoundRobin:
    def test_cyclic_distribution(self):
        a = round_robin_assignment(PROG.rules, 2)
        assert [a.site_of[f"r{i}"] for i in range(5)] == [0, 1, 0, 1, 0]

    def test_single_site(self):
        a = round_robin_assignment(PROG.rules, 1)
        assert set(a.site_of.values()) == {0}

    def test_more_sites_than_rules(self):
        a = round_robin_assignment(PROG.rules, 10)
        assert a.n_sites == 10
        a.validate(PROG.rules)

    def test_zero_sites_rejected(self):
        with pytest.raises(ValueError):
            round_robin_assignment(PROG.rules, 0)

    def test_rules_of_site(self):
        a = round_robin_assignment(PROG.rules, 2)
        assert [r.name for r in a.rules_of_site(0, PROG.rules)] == ["r0", "r2", "r4"]

    def test_validate_missing_rule(self):
        a = Assignment(n_sites=1, site_of={"r0": 0})
        with pytest.raises(ValueError, match="no site assignment"):
            a.validate(PROG.rules)

    def test_validate_out_of_range(self):
        a = Assignment(n_sites=1, site_of={r.name: 5 for r in PROG.rules})
        with pytest.raises(ValueError, match="only 1 sites"):
            a.validate(PROG.rules)


class TestLPT:
    def test_heaviest_rules_spread(self):
        weights = {"r0": 100.0, "r1": 90.0, "r2": 10.0, "r3": 5.0, "r4": 5.0}
        a = lpt_assignment(PROG.rules, 2, weights)
        # r0 and r1 must land on different sites.
        assert a.site_of["r0"] != a.site_of["r1"]
        loads = [0.0, 0.0]
        for name, w in weights.items():
            loads[a.site_of[name]] += w
        assert max(loads) <= 110  # near-balanced (optimal is 105)

    def test_missing_weight_defaults(self):
        a = lpt_assignment(PROG.rules, 2, {})
        a.validate(PROG.rules)

    def test_deterministic_given_ties(self):
        w = {r.name: 1.0 for r in PROG.rules}
        a1 = lpt_assignment(PROG.rules, 3, w)
        a2 = lpt_assignment(PROG.rules, 3, w)
        assert a1.site_of == a2.site_of


class TestProfileWeights:
    def test_busy_rule_weighs_more(self):
        prog = parse_program(
            "(literalize item n)"
            "(literalize out a b)"
            "(p heavy (item ^n <a>) (item ^n <b>) -(out ^a <a> ^b <b>) "
            "--> (make out ^a <a> ^b <b>))"
            "(p light (item ^n 99999) --> (halt))"
        )

        def setup(engine):
            for i in range(6):
                engine.make("item", n=i)

        weights = profile_rule_weights(prog, setup)
        assert weights["heavy"] > weights["light"]
        assert weights["light"] >= 1.0


class TestHashPartitions:
    def test_cover_and_disjoint(self):
        domain = [f"v{i}" for i in range(10)]
        parts = hash_partitions(domain, 3)
        assert len(parts) == 3
        flat = [v for p in parts for v in p]
        assert sorted(flat) == sorted(domain)

    def test_balance_within_one(self):
        parts = hash_partitions(list(range(11)), 4)
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_single_partition(self):
        assert hash_partitions([1, 2], 1) == [(1, 2)]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            hash_partitions([1], 0)


class TestCopyAndConstrain:
    TC = parse_program(
        "(literalize edge src dst)"
        "(literalize path src dst)"
        "(p extend (path ^src <a> ^dst <b>) (edge ^src <b> ^dst <c>)"
        " -(path ^src <a> ^dst <c>) --> (make path ^src <a> ^dst <c>))"
    )

    def test_copies_named_and_constrained(self):
        rule = self.TC.rule("extend")
        copies = copy_and_constrain(rule, 1, "src", [("a", "b"), ("c",)])
        assert [c.name for c in copies] == ["extend@cc0", "extend@cc1"]
        test0 = dict(copies[0].conditions[0].tests)["src"]
        assert "<< a b >>" in str(test0)

    def test_existing_test_conjoined(self):
        # ^src already carries <a>; the constraint must be added, not replace.
        rule = self.TC.rule("extend")
        copies = copy_and_constrain(rule, 1, "src", [("a",)])
        test = dict(copies[0].conditions[0].tests)["src"]
        assert "<a>" in str(test) and "<< a >>" in str(test)

    def test_attr_without_existing_test_gets_added(self):
        rule = self.TC.rule("extend")
        copies = copy_and_constrain(rule, 2, "dst", [("x",), ("y",)])
        ce = copies[0].conditions[1]
        assert dict(ce.tests)["dst"] is not None

    def test_negated_ce_rejected(self):
        rule = self.TC.rule("extend")
        with pytest.raises(MatchError, match="negated"):
            copy_and_constrain(rule, 3, "src", [("a",)])

    def test_out_of_range_rejected(self):
        rule = self.TC.rule("extend")
        with pytest.raises(MatchError, match="out of range"):
            copy_and_constrain(rule, 9, "src", [("a",)])

    def test_overlapping_partitions_rejected(self):
        rule = self.TC.rule("extend")
        with pytest.raises(MatchError, match="two partitions"):
            copy_and_constrain(rule, 1, "src", [("a", "b"), ("b",)])

    def test_program_transform_replaces_rule(self):
        prog2 = copy_and_constrain_program(self.TC, "extend", 1, "src", [("a",), ("b",)])
        names = [r.name for r in prog2.rules]
        assert "extend" not in names
        assert "extend@cc0" in names and "extend@cc1" in names
        assert prog2.literalizes == self.TC.literalizes

    def test_semantics_preserved(self):
        """The union of constrained copies derives exactly the original
        closure when partitions cover the node domain."""
        from repro.core import ParulelEngine

        def run(program):
            e = ParulelEngine(program)
            for i in range(8):
                e.make("edge", src=f"n{i}", dst=f"n{i + 1}")
                e.make("path", src=f"n{i}", dst=f"n{i + 1}")
            e.run(max_cycles=100)
            return sorted(
                (w.get("src"), w.get("dst")) for w in e.wm.by_class("path")
            )

        domain = [f"n{i}" for i in range(9)]
        cc = copy_and_constrain_program(
            self.TC, "extend", 1, "src", hash_partitions(domain, 3)
        )
        assert run(self.TC) == run(cc)


class TestPartitionSatisfiability:
    """Satellite of the commute PR: unsatisfiable constrained copies are
    rejected with a typed error instead of silently dropping work."""

    CONST = parse_program(
        "(literalize edge src dst)"
        "(literalize path src dst)"
        "(p pinned (path ^src a ^dst <b>) (edge ^src <b> ^dst <c>)"
        " --> (make path ^src a ^dst <c>))"
    )

    def test_contradictory_partition_rejected(self):
        from repro.errors import PartitionConstraintError

        rule = self.CONST.rule("pinned")
        # CE 1 already pins ^src to the constant a; a partition without a
        # can never match — the copy would silently drop instantiations.
        with pytest.raises(PartitionConstraintError) as exc:
            copy_and_constrain(rule, 1, "src", [("x", "y"), ("a",)])
        assert exc.value.rule == "pinned"
        assert exc.value.attribute == "src"

    def test_partition_containing_the_constant_accepted(self):
        rule = self.CONST.rule("pinned")
        copies = copy_and_constrain(rule, 1, "src", [("a", "b")])
        assert copies[0].name == "pinned@cc0"

    def test_typed_error_is_a_match_error(self):
        from repro.errors import PartitionConstraintError

        assert issubclass(PartitionConstraintError, MatchError)

    def test_empty_partition_stays_legal(self):
        # k exceeding the domain size produces empty partitions; an empty
        # membership test is inert, not contradictory.
        rule = self.CONST.rule("pinned")
        copies = copy_and_constrain(rule, 1, "src", [("a",), ()])
        assert len(copies) == 2

    def test_membership_contradiction_rejected(self):
        from repro.errors import PartitionConstraintError

        src = parse_program(
            "(literalize box owner)"
            "(p pick (box ^owner << a b >>) --> (remove 1))"
        )
        rule = src.rule("pick")
        with pytest.raises(PartitionConstraintError):
            copy_and_constrain(rule, 1, "owner", [("c", "d")])


class TestRacingCopyWarning:
    """copy_and_constrain consults the commute detector: copies proven to
    race earn a UserWarning (the split is still returned — meta-rules may
    arbitrate at runtime)."""

    def test_disjoint_copies_do_not_warn(self):
        import warnings

        src = parse_program(
            "(literalize counter owner n)"
            "(literalize phase name)"
            "(p bump (phase ^name go) (counter ^owner <o> ^n <n>)"
            " --> (modify 2 ^n 0))"
        )
        rule = src.rule("bump")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            copy_and_constrain(rule, 2, "owner", [("a", "b"), ("c", "d")])

    def test_racing_copies_warn(self):
        import warnings

        # Partitioning on an attribute of a *different* CE than the modify
        # target leaves the written WMEs shared across copies: the copies
        # race and the detector can prove it with a witness.
        src = parse_program(
            "(literalize slot owner)"
            "(literalize req n)"
            "(p claim (slot ^owner nil) (req ^n <n>)"
            " --> (modify 1 ^owner <n>))"
        )
        rule = src.rule("claim")
        with pytest.warns(UserWarning, match="race"):
            copy_and_constrain(rule, 2, "n", [(1, 2), (3, 4)])
