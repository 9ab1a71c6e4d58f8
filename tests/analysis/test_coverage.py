"""Tests for the redaction-coverage checker (PA002) and meta-rule
applicability (PA006)."""

from repro.analysis import analyze
from repro.analysis.coverage import (
    check_meta_rules,
    check_redaction_coverage,
    victim_image,
)
from repro.lang.parser import parse_program
from repro.programs import REGISTRY


def _coverage(program):
    """PA002 over the program's PA001 set, as ``analyze`` runs it."""
    return check_redaction_coverage(program, analyze(program).interference)

CONTENDED = """
(literalize req n)
(literalize slot owner)
(p claim (req ^n <n>) (slot ^owner nil) --> (modify 2 ^owner <n>))
"""

ARBITER = """
(mp arbitrate-claim
    (instantiation ^rule claim ^id <i>)
    (instantiation ^rule claim ^id {<j> > <i>})
    -->
    (redact <j>))
"""


class TestVictimImage:
    def test_builtins_pinned_variables_unknown(self):
        rule = parse_program(CONTENDED).rules[0]
        image = victim_image(rule)
        cmap = image.constraint_map
        assert cmap["rule"] == (("eq", "claim"),)
        assert cmap["salience"] == (("eq", rule.salience),)
        assert cmap["specificity"] == (("eq", rule.specificity),)
        assert cmap["id"] == (("unknown",),)
        assert cmap["n"] == (("unknown",),)  # the rule's bound variable
        assert image.closed
        assert image.class_name == "instantiation"


class TestCoverage:
    def test_covered_candidate_no_diagnostics(self):
        program = parse_program(CONTENDED + ARBITER)
        diags, summary = _coverage(program)
        assert diags == []
        assert summary.checked == summary.covered == 1
        assert summary.uncovered == 0
        assert summary.applicable

    def test_wrong_target_uncovered_with_skeleton_hint(self):
        # The meta-rule arbitrates a *different* rule by constant ^rule.
        other = """
        (p other (req ^n <n>) (slot ^owner full) --> (modify 2 ^owner nil))
        """
        meta = """
        (mp arbitrate-other
            (instantiation ^rule other ^id <i>)
            (instantiation ^rule other ^id {<j> > <i>})
            -->
            (redact <j>))
        """
        program = parse_program(CONTENDED + other + meta)
        diags, summary = _coverage(program)
        uncovered_rules = {d.rule for d in diags}
        assert "claim" in uncovered_rules
        assert all(d.code == "PA002" for d in diags)
        assert all(d.hint and "(mp " in d.hint for d in diags)
        assert summary.uncovered == len(diags) > 0

    def test_no_meta_rules_not_applicable(self):
        diags, summary = _coverage(parse_program(CONTENDED))
        assert diags == []
        assert not summary.applicable
        assert summary.candidates == 1
        assert summary.checked == 0

    REAPERS = """
        (literalize job n)
        (literalize tick n)
        (literalize log n)
        (p reap-a (tick ^n 1) (job ^n <n>) --> (remove 2){extra})
        (p reap-b (tick ^n 2) (job ^n <n>) --> (remove 2))
        (mp noop
            (instantiation ^rule reap-a ^id <i>)
            (instantiation ^rule reap-a ^id {{<j> > <i>}})
            -->
            (redact <j>))
        """

    def test_pure_remove_pairs_leave_the_candidates(self):
        # Two single-remove rules removing the WME they share: the commute
        # analysis discharges the pair, so it is no PA001 candidate and
        # coverage never sees it.
        program = parse_program(self.REAPERS.format(extra=""))
        diags, summary = _coverage(program)
        assert summary.candidates == summary.skipped_remove_remove == 0
        assert diags == []

    def test_remove_remove_pairs_skipped(self):
        # reap-a also makes, so no discharge applies and the pair stays a
        # candidate; a double remove is still idempotent in the delta
        # merge — benign, so coverage skips it.
        program = parse_program(self.REAPERS.format(extra=" (make log ^n <n>)"))
        diags, summary = _coverage(program)
        assert summary.skipped_remove_remove == 2
        assert summary.checked == 0
        # remove/remove pairs produce no PA002 even though no meta-rule
        # covers (reap-a, reap-b).
        assert not any("reap-b" in (d.message or "") for d in diags)

    def test_untraceable_redact_counts_as_wildcard(self):
        # The redacted id is rebound on the RHS — untraceable, so the
        # meta-rule is assumed able to reach any candidate.
        src = CONTENDED + """
        (mp opaque
            (instantiation ^rule claim ^id <i>)
            -->
            (bind <k> (compute <i> + 0))
            (redact <k>))
        """
        diags, summary = _coverage(parse_program(src))
        assert diags == []
        assert summary.covered == summary.checked == 1

    def test_shipped_workloads_have_zero_uncovered(self):
        """Acceptance: no false 'uncovered' warnings on bundled programs."""
        for name in sorted(REGISTRY):
            program = REGISTRY[name]().program
            diags, summary = _coverage(program)
            assert diags == [], (name, [d.message for d in diags])
            assert summary.uncovered == 0, name


class TestMetaRuleApplicability:
    def test_unknown_rule_name_pa006(self):
        src = CONTENDED + """
        (mp ghost
            (instantiation ^rule no-such-rule ^id <i>)
            -->
            (redact <i>))
        """
        diags = check_meta_rules(parse_program(src))
        assert [d.code for d in diags] == ["PA006"]
        assert "no-such-rule" in diags[0].message
        assert diags[0].rule == "ghost"

    def test_impossible_attribute_test_pa006(self):
        # 'claim' binds only <n>; testing ^salience against the wrong
        # constant contradicts every reification.
        src = CONTENDED + """
        (mp picky
            (instantiation ^rule claim ^salience 99 ^id <i>)
            -->
            (redact <i>))
        """
        diags = check_meta_rules(parse_program(src))
        assert [d.code for d in diags] == ["PA006"]
        assert "picky" in diags[0].rule

    def test_valid_meta_rule_clean(self):
        assert check_meta_rules(parse_program(CONTENDED + ARBITER)) == []

    def test_shipped_meta_rules_all_applicable(self):
        for name in sorted(REGISTRY):
            program = REGISTRY[name]().program
            assert check_meta_rules(program) == [], name
