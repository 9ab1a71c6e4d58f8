"""Tests for the interference candidates (PA001): the commute analysis's
write/write channels on rule pairs it does not prove to commute."""

import pytest

from repro.analysis import analyze, render_text, write_conflicts
from repro.errors import InterferenceError
from repro.core import ParulelEngine
from repro.lang.parser import parse_program
from repro.programs import REGISTRY
from repro.programs.routing import routing_program


def _candidates(src):
    return analyze(parse_program(src)).interference


def _rows(candidates):
    return [(c.rule_a, c.rule_b, c.ce_a, c.ce_b, c.kind) for c in candidates]


def _skeletons(program):
    """The PA001 hints: one pasteable ``mp`` skeleton per candidate."""
    return [d.hint for d in analyze(program).diagnostics if d.code == "PA001"]


CLAIM = """
(literalize req n)
(literalize slot owner)
(p claim (req ^n <n>) (slot ^owner nil) --> (modify 2 ^owner <n>))
"""


class TestCandidateDetection:
    def test_classic_contention_flagged(self):
        cands = _candidates(CLAIM)
        assert len(cands) == 1
        c = cands[0]
        assert c.rule_a == c.rule_b == "claim"
        assert c.class_name == "slot"
        assert c.kind == "modify/modify"

    def test_single_ce_self_modify_is_safe(self):
        # Two instantiations of a 1-positive-CE rule matched different WMEs.
        src = """
        (literalize count value)
        (p bump (count ^value {<v> < 5}) --> (modify 1 ^value (compute <v> + 1)))
        """
        assert write_conflicts(parse_program(src)) == []
        assert _candidates(src) == []

    def test_cross_rule_contention(self):
        src = """
        (literalize item state tag)
        (literalize trigger a)
        (p close (trigger ^a 1) (item ^state open) --> (modify 2 ^state closed))
        (p drop  (trigger ^a 2) (item ^state open) --> (remove 2))
        """
        kinds = {(c.rule_a, c.rule_b, c.kind) for c in _candidates(src)}
        assert ("close", "drop", "modify/remove") in kinds

    CLOSERS = """
    (literalize item state kind)
    (literalize trigger a)
    (p close-a (trigger ^a <x>) (item ^kind a ^state open) --> (modify 2 ^state {update}))
    (p close-b (trigger ^a <x>) (item ^kind b ^state open) --> (modify 2 ^state {update}))
    """

    def test_disjoint_constants_not_flagged(self):
        # The written CEs force different constants on the same attribute:
        # provably different WMEs.
        program = parse_program(self.CLOSERS.format(update="closed"))
        report = analyze(program)
        pairs = {(c.rule_a, c.rule_b) for c in write_conflicts(program)}
        assert ("close-a", "close-b") not in pairs
        # Each rule's self-pair (two triggers, one item) is a write
        # conflict, but both instantiations write the same constant: the
        # commute analysis discharges it, so it is no PA001 candidate.
        assert ("close-a", "close-a") in pairs
        assert report.interference == []
        verdicts = {(p.rule_a, p.rule_b): p.reason for p in report.commute.pairs}
        assert verdicts["close-a", "close-a"].startswith("identical-modify discharge")

    def test_disjoint_constants_non_constant_update_flagged(self):
        # The same rules writing a value bound per instantiation: no
        # discharge, so each self-pair stays a candidate.
        src = self.CLOSERS.format(update="<x>")
        pairs = {(c.rule_a, c.rule_b) for c in _candidates(src)}
        assert ("close-a", "close-b") not in pairs
        assert ("close-a", "close-a") in pairs
        assert ("close-b", "close-b") in pairs

    def test_makes_never_flagged(self):
        src = """
        (literalize seed n)
        (literalize out n)
        (p derive (seed ^n <n>) --> (make out ^n <n>))
        """
        assert write_conflicts(parse_program(src)) == []

    def test_reads_never_flagged(self):
        src = """
        (literalize ctx phase)
        (literalize item n)
        (p advance (ctx ^phase go) (item ^n <n>) --> (remove 2))
        (p watch (ctx ^phase go) (item ^n <n>) --> (write saw <n>))
        """
        # 'watch' writes nothing, so it appears in no write conflict.
        cands = write_conflicts(parse_program(src))
        assert all("watch" not in (c.rule_a, c.rule_b) for c in cands)


#: Each bundled program's PA001 set: (rule_a, rule_b, class, ce_a, ce_b,
#: kind), in emission order — rule pair first, then the first rule's
#: action order.
REGISTRY_PA001 = {
    "circuit": [],
    "manners": [
        ("seat-first", "seat-first", "seat", 2, 2, "modify/modify"),
        ("seat-first", "seat-first", "guest", 3, 3, "modify/modify"),
        ("seat-first", "seat-first", "context", 1, 1, "modify/modify"),
        ("seat-first", "seat-next", "seat", 2, 4, "modify/modify"),
        ("seat-first", "seat-next", "guest", 3, 5, "modify/modify"),
        ("seat-next", "seat-next", "seat", 4, 4, "modify/modify"),
        ("seat-next", "seat-next", "guest", 5, 5, "modify/modify"),
    ],
    "monkey": [
        ("walk-to-ladder", "walk-to-ladder", "monkey", 2, 2, "modify/modify"),
        ("walk-to-ladder", "push-ladder", "monkey", 2, 3, "modify/modify"),
        ("walk-to-ladder", "climb", "monkey", 2, 4, "modify/modify"),
        ("push-ladder", "push-ladder", "thing", 2, 2, "modify/modify"),
        ("push-ladder", "push-ladder", "monkey", 3, 3, "modify/modify"),
        ("push-ladder", "climb", "monkey", 3, 4, "modify/modify"),
        ("grab", "grab", "monkey", 3, 3, "modify/modify"),
        ("grab", "grab", "goal", 1, 1, "modify/modify"),
    ],
    "routing": [
        ("seed-dist", "improve", "cand", 1, 1, "remove/remove"),
        ("seed-dist", "discard", "cand", 1, 1, "remove/remove"),
        ("improve", "improve", "dist", 2, 2, "modify/modify"),
        ("improve", "improve", "cand", 1, 1, "remove/remove"),
        ("improve", "discard", "cand", 1, 1, "remove/remove"),
    ],
    "sieve": [
        ("promote", "skip", "cursor", 1, 1, "modify/modify"),
        ("skip", "skip", "cursor", 1, 1, "modify/modify"),
        ("mark", "mark-known", "marker", 1, 1, "modify/modify"),
        ("mark-known", "mark-known", "marker", 1, 1, "modify/modify"),
    ],
    "sort": [
        ("swap", "swap", "item", 3, 3, "modify/modify"),
        ("swap", "swap", "item", 3, 4, "modify/modify"),
        ("swap", "swap", "item", 4, 4, "modify/modify"),
    ],
    "sort-meta": [
        ("swap", "swap", "item", 2, 2, "modify/modify"),
        ("swap", "swap", "item", 2, 3, "modify/modify"),
        ("swap", "swap", "item", 3, 3, "modify/modify"),
    ],
    "tc": [],
    "waltz": [],
}


class TestRegistry:
    def test_table_covers_the_registry(self):
        assert sorted(REGISTRY_PA001) == sorted(REGISTRY)
        assert sum(len(rows) for rows in REGISTRY_PA001.values()) == 30

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_pa001_set(self, name):
        report = analyze(REGISTRY[name]().program, name=name)
        got = [
            (c.rule_a, c.rule_b, c.class_name, c.ce_a, c.ce_b, c.kind)
            for c in report.interference
        ]
        assert got == REGISTRY_PA001[name]
        pa001 = [(d.rule, d.ce) for d in report.diagnostics if d.code == "PA001"]
        assert pa001 == [(row[0], row[3]) for row in got]

    @pytest.mark.parametrize(
        "name, rule, ce, kind, reason",
        [
            ("monkey", "climb", 4, "modify/modify", "identical-modify discharge"),
            ("routing", "discard", 1, "remove/remove", "pure-remove discharge"),
        ],
    )
    def test_discharged_self_pair_leaves_pa001(self, name, rule, ce, kind, reason):
        # A write conflict (and so a ``conflicts`` edge) on a pair the
        # commute analysis proves COMMUTES: the delta merge finds both
        # writes idempotent, so PA001 drops it and names no other pair.
        program = REGISTRY[name]().program
        report = analyze(program, name=name)
        conflict = (rule, rule, ce, ce, kind)
        assert conflict in _rows(write_conflicts(program))
        assert conflict not in _rows(report.interference)
        assert len(write_conflicts(program)) == len(report.interference) + 1
        (pair,) = [p for p in report.commute.pairs if p.rule_a == p.rule_b == rule]
        assert pair.verdict.value == "commutes"
        assert pair.reason.startswith(reason)
        assert any(
            e.src == e.dst == rule for e in report.graph.edges_of_kind("conflicts")
        )


class TestRuntimeSoundness:
    """Every runtime InterferenceError must be predicted by PA001."""

    def test_routing_without_meta_rules_is_flagged(self):
        program = routing_program(with_meta_rules=False)
        flagged_classes = {c.class_name for c in analyze(program).interference}
        assert "dist" in flagged_classes  # the contended class at runtime

    def test_runtime_error_implies_pa001_hit(self):
        program = parse_program(CLAIM)
        engine = ParulelEngine(program)
        engine.make("req", n="a")
        engine.make("req", n="b")
        engine.make("slot", owner="nil")
        with pytest.raises(InterferenceError) as excinfo:
            engine.run()
        pairs = {c.names for c in analyze(program).interference}
        assert frozenset(excinfo.value.rules) in pairs

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_bundled_workloads_pa001_coverage(self, name):
        """Workloads that run cleanly under the error policy either have
        no candidates or carry meta-rules for them (PA001 is
        conservative; cleanliness at runtime is the dynamic guarantee)."""
        wl = REGISTRY[name]()
        cands = analyze(wl.program, name=name).interference
        if cands:
            # every flagged program in the registry ships meta-rules ...
            # except those whose disjointness the analysis cannot see:
            # sort's parity phases, and sieve's promote/skip + mark/
            # mark-known pairs (mutually exclusive via negation/predicates).
            assert wl.program.meta_rules or name in ("sort", "monkey", "sieve"), (
                name,
                [c.describe() for c in cands],
            )


class TestSuggestions:
    def test_skeletons_parse_and_run(self):
        program = parse_program(CLAIM)
        skeletons = _skeletons(program)
        assert len(skeletons) == 1
        # Append the skeleton to the program: it must parse, analyze, and
        # actually prevent the interference.
        patched = parse_program(CLAIM + "\n" + skeletons[0])
        engine = ParulelEngine(patched)
        engine.make("req", n="a")
        engine.make("req", n="b")
        engine.make("slot", owner="nil")
        engine.run()  # no InterferenceError
        assert engine.wm.by_class("slot")[0].get("owner") in ("a", "b")

    def test_report_text(self):
        report = analyze(parse_program(CLAIM))
        text = report.render_text()
        assert "PA001 warning [claim/CE 2]" in text
        assert "(mp arbitrate-claim" in text
        assert "no meta level (see PA001)" in text

    def test_clean_program_no_candidates(self):
        src = """
        (literalize seed n)
        (literalize out n)
        (p derive (seed ^n <n>) --> (make out ^n <n>))
        """
        report = analyze(parse_program(src))
        assert report.interference == []
        assert "redaction coverage: n/a — no interference candidates" in (
            report.render_text()
        )
        assert render_text(
            [d for d in report.diagnostics if d.code == "PA001"]
        ) == ""


class TestSkeletonNaming:
    def test_names_unique_across_candidates(self):
        src = """
        (literalize order id item qty status)
        (literalize stock item units)
        (p fill
            (order ^id <o> ^item <i> ^qty <q> ^status open)
            (stock ^item <i> ^units {<u> >= <q>})
            -->
            (modify 2 ^units (compute <u> - <q>))
            (modify 1 ^status filled))
        """
        program = parse_program(src)
        skeletons = _skeletons(program)
        assert len(skeletons) == 2
        # Both skeletons appended together must parse (unique rule names).
        combined = parse_program(src + "\n" + "\n".join(skeletons))
        assert len(combined.meta_rules) == 2
