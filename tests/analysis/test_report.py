"""Tests for the top-level :func:`repro.analysis.analyze` report.

The centerpiece is a deliberately broken fixture that trips every
diagnostic code the analyzer knows, proving each check actually reaches
the report.
"""

import json

from repro.analysis import Severity, analyze, render_sarif
from repro.lang.parser import parse_program
from repro.programs import REGISTRY

# One program, ten pathologies:
#   PA001 — 'claim' can fire twice into the same slot (modify/modify);
#   PA002 — a meta level exists but covers none of claim's candidates;
#   PA003 — 'stranded' reads a class no seed or make ever produces;
#   PA004 — 'never' demands ^n 1 and ^n 2 at once;
#   PA005 — 'ab' makes the very class it negates, inside the ab/ba cycle;
#   PA006 — 'arbitrate-ghost' pins ^rule to a rule that does not exist;
#   PA007 — two 'claim' firings modify the same slot (witnessed race);
#   PA008 — one 'block' firing's make disables the other's negated CE;
#   PA009 — 'mint' uses genatom, so its pairs cannot be classified;
#   PA010 — the hand-rolled 'split@cc*' copies both accept ^n 2.
EVERYTHING_WRONG = """
(literalize req n)
(literalize slot owner)
(literalize a v)
(literalize b v)
(literalize c v)
(literalize tok id)
(literalize orphan v)
(literalize broken n)

(p claim (req ^n <n>) (slot ^owner nil) --> (modify 2 ^owner <n>))
(p stranded (orphan ^v <x>) --> (halt))
(p never (broken ^n 1 ^n 2) --> (halt))
(p ab (a ^v go) - (b ^v stop) --> (make b ^v stop))
(p ba (b ^v stop) --> (make a ^v go))
(p block (a ^v <x>) - (b ^v 1) --> (make b ^v 1) (make c ^v <x>))
(p mint (req ^n <n>) --> (make tok ^id (genatom)))
(p split@cc0 (req ^n << 1 2 >>) --> (remove 1))
(p split@cc1 (req ^n << 2 3 >>) --> (remove 1))

(mp arbitrate-ghost
    (instantiation ^rule no-such ^id <i>)
    -->
    (redact <i>))
"""

SEEDS = ["a", "b", "broken", "req", "slot"]

ALL_CODES = {
    "PA001", "PA002", "PA003", "PA004", "PA005",
    "PA006", "PA007", "PA008", "PA009", "PA010",
}


def everything_wrong_report():
    return analyze(
        parse_program(EVERYTHING_WRONG),
        seed_classes=SEEDS,
        name="everything-wrong",
    )


class TestEveryCodeFires:
    def test_all_ten_codes_triggered(self):
        report = everything_wrong_report()
        assert {d.code for d in report.diagnostics} == ALL_CODES

    def test_each_code_names_the_offending_rule(self):
        report = everything_wrong_report()
        by_code = {}
        for d in report.diagnostics:
            by_code.setdefault(d.code, set()).add(d.rule)
        assert "claim" in by_code["PA001"]
        assert "claim" in by_code["PA002"]
        assert by_code["PA003"] == {"stranded"}
        assert by_code["PA004"] == {"never"}
        assert "ab" in by_code["PA005"]
        assert by_code["PA006"] == {"arbitrate-ghost"}
        assert "claim" in by_code["PA007"]
        assert "block" in by_code["PA008"]
        assert any("mint" in (r or "") for r in by_code["PA009"])
        assert "split@cc0" in by_code["PA010"]

    def test_severities_and_worst(self):
        report = everything_wrong_report()
        assert report.has_errors  # PA004 and PA006 are errors
        assert report.worst is Severity.ERROR
        assert report.dead_rules_checked

    def test_render_text_mentions_every_code(self):
        text = everything_wrong_report().render_text()
        for code in sorted(ALL_CODES):
            assert code in text
        assert "== everything-wrong" in text
        assert "commutativity:" in text

    def test_sarif_round_trips_with_all_codes(self):
        report = everything_wrong_report()
        doc = render_sarif(
            [(report.name, report.diagnostics, report.properties())]
        )
        doc = json.loads(json.dumps(doc))  # must be JSON-serializable
        run = doc["runs"][0]
        seen = {r["ruleId"] for r in run["results"]}
        assert seen == ALL_CODES
        assert run["properties"]["program"] == "everything-wrong"
        assert "commute" in run["properties"]


class TestCleanPrograms:
    def test_registry_reports_have_no_errors(self):
        for name in sorted(REGISTRY):
            report = analyze(REGISTRY[name]().program, name=name)
            assert not report.has_errors, (
                name,
                [d.message for d in report.diagnostics],
            )

    def test_no_seeds_skips_dead_rules(self):
        report = analyze(parse_program(EVERYTHING_WRONG))
        assert not report.dead_rules_checked
        assert not any(d.code == "PA003" for d in report.diagnostics)
