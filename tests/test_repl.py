"""Tests for the interactive REPL session layer."""

import pytest

from repro.lang.parser import parse_program
from repro.repl import ReplSession, run_repl

TC = """
(literalize edge src dst)
(literalize path src dst)
(p tc-init (edge ^src <a> ^dst <b>) -(path ^src <a> ^dst <b>)
 --> (make path ^src <a> ^dst <b>))
(p tc-extend (path ^src <a> ^dst <b>) (edge ^src <b> ^dst <c>)
 -(path ^src <a> ^dst <c>) --> (make path ^src <a> ^dst <c>))
"""


@pytest.fixture
def session():
    return ReplSession(parse_program(TC))


class TestCommands:
    def test_assert_and_wm(self, session):
        out = session.execute("(edge ^src a ^dst b)")
        assert "asserted" in out
        out = session.execute(":wm edge")
        assert "(edge" in out

    def test_multiple_facts_one_line(self, session):
        out = session.execute("(edge ^src a ^dst b)(edge ^src b ^dst c)")
        assert out.count("asserted") == 2

    def test_cs_lists_instantiations(self, session):
        session.execute("(edge ^src a ^dst b)")
        out = session.execute(":cs")
        assert "tc-init" in out

    def test_cs_empty(self, session):
        assert session.execute(":cs") == "conflict set empty"

    def test_step_and_run(self, session):
        session.execute("(edge ^src a ^dst b)(edge ^src b ^dst c)")
        out = session.execute(":step")
        assert "cycle 1: fired 2" in out
        out = session.execute(":run")
        assert "quiescent" in out
        assert "(path" in session.execute(":wm path")

    def test_run_with_limit(self, session):
        session.execute("(edge ^src a ^dst b)(edge ^src b ^dst c)")
        out = session.execute(":run 1")
        assert "stopped after 1 cycles" in out

    def test_explain(self, session):
        session.execute("(edge ^src a ^dst b)(edge ^src b ^dst c)")
        session.execute(":run")
        out = session.execute(":explain (path ^src a ^dst c)")
        assert "tc-extend" in out and "asserted initially" in out

    def test_explain_no_match(self, session):
        assert "no live WME" in session.execute(":explain (path ^src z)")

    def test_retract(self, session):
        session.execute("(edge ^src a ^dst b)")
        out = session.execute(":retract 1")
        assert "retracted" in out
        assert session.execute(":wm") == "(empty)"
        assert "no WME with timestamp" in session.execute(":retract 99")

    def test_lint(self, session):
        assert "clean" in session.execute(":lint")

    def test_lint_prints_pa001_with_hints(self):
        session = ReplSession(
            parse_program(
                "(literalize req n)\n(literalize slot owner)\n"
                "(p claim (req ^n <n>) (slot ^owner nil) --> (modify 2 ^owner <n>))"
            )
        )
        out = session.execute(":lint").splitlines()
        assert out[0] == (
            "PA001 warning [claim/CE 2] two instantiations of 'claim' may "
            "modify/modify the same 'slot' WME (CE 2 vs CE 2)"
        )
        assert "    (mp arbitrate-claim" in out

    def test_help_and_unknown(self, session):
        assert ":run" in session.execute(":help")
        assert "unknown command" in session.execute(":frobnicate")
        assert "unrecognized input" in session.execute("hello")

    def test_errors_reported_not_raised(self, session):
        out = session.execute("(edge ^src <var>)")
        assert out.startswith("error:")

    def test_blank_and_comment_lines(self, session):
        assert session.execute("") == ""
        assert session.execute("; a comment") == ""

    def test_quit_returns_none(self, session):
        assert session.execute(":quit") is None


class TestRunReplDriver:
    def test_scripted_session(self):
        outputs = []
        rc = run_repl(
            parse_program(TC),
            input_lines=[
                "(edge ^src a ^dst b)",
                ":run",
                ":wm path",
                ":quit",
                ":never-reached",
            ],
            write=outputs.append,
        )
        assert rc == 0
        text = "\n".join(outputs)
        assert "PARULEL repl" in text
        assert "quiescent" in text
        assert "(path" in text
        assert "never-reached" not in text

    def test_eof_without_quit(self):
        outputs = []
        rc = run_repl(
            parse_program(TC), input_lines=["(edge ^src a ^dst b)"], write=outputs.append
        )
        assert rc == 0
