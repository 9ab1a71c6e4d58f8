"""Tests for the ``parulel analyze`` command-line entry point."""

import json

import pytest

from repro.cli import main

CLEAN = """
(literalize edge src dst)
(literalize path src dst)
(p tc-init (edge ^src <a> ^dst <b>) -(path ^src <a> ^dst <b>)
 --> (make path ^src <a> ^dst <b>))
"""

# 'never' carries a PA004 (error severity): exit code must be 1.
BROKEN = CLEAN + """
(p never (edge ^src a ^src b) --> (halt))
"""

# A candidate (warning severity) but no errors: exit code stays 0.
CONTENDED = """
(literalize req n)
(literalize slot owner)
(p claim (req ^n <n>) (slot ^owner nil) --> (modify 2 ^owner <n>))
"""


def _write(tmp_path, name, src):
    path = tmp_path / name
    path.write_text(src)
    return str(path)


class TestFileMode:
    def test_clean_program_exit_zero(self, tmp_path, capsys):
        rc = main(["analyze", _write(tmp_path, "tc.pl", CLEAN)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dependency graph:" in out
        assert "stratification:" in out

    def test_warnings_only_exit_zero(self, tmp_path, capsys):
        rc = main(["analyze", _write(tmp_path, "c.pl", CONTENDED)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PA001" in out
        assert "(mp " in out  # the skeleton hint is shown by default

    def test_no_hints_suppresses_skeletons(self, tmp_path, capsys):
        rc = main(
            ["analyze", "--no-hints", _write(tmp_path, "c.pl", CONTENDED)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "PA001" in out
        assert "(mp " not in out

    def test_error_severity_exit_one(self, tmp_path, capsys):
        rc = main(["analyze", _write(tmp_path, "b.pl", BROKEN)])
        assert rc == 1
        assert "PA004" in capsys.readouterr().out

    def test_parse_error_exit_two(self, tmp_path, capsys):
        rc = main(["analyze", _write(tmp_path, "bad.pl", "(p broken")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exit_two(self, capsys):
        rc = main(["analyze", "/nonexistent/prog.pl"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_facts_enable_dead_rule_check(self, tmp_path, capsys):
        program = _write(
            tmp_path,
            "dead.pl",
            CLEAN + "(literalize orphan v)\n"
            "(p stranded (orphan ^v <x>) --> (halt))\n",
        )
        facts = _write(tmp_path, "facts.pl", "(edge ^src a ^dst b)")
        rc = main(["analyze", program, "--facts", facts])
        assert rc == 0  # PA003 is a warning
        out = capsys.readouterr().out
        assert "PA003" in out
        assert "stranded" in out

    def test_facts_without_program_exit_two(self, tmp_path, capsys):
        facts = _write(tmp_path, "facts.pl", "(edge ^src a ^dst b)")
        rc = main(["analyze", "--facts", facts])
        assert rc == 2
        assert "--facts requires" in capsys.readouterr().err

    def test_facts_with_several_programs_exit_two(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.cli

        def unread(path):
            raise AssertionError(f"facts file read: {path}")

        monkeypatch.setattr(repro.cli, "_read_facts", unread)
        program = _write(tmp_path, "tc.pl", CLEAN)
        facts = _write(tmp_path, "facts.pl", "(edge ^src a ^dst b)")
        rc = main(["analyze", program, program, "--facts", facts])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --facts requires a single PROGRAM argument\n"

    def test_facts_read_once(self, tmp_path, capsys, monkeypatch):
        import repro.cli

        reads = []
        read_facts = repro.cli._read_facts
        monkeypatch.setattr(
            repro.cli,
            "_read_facts",
            lambda path: reads.append(path) or read_facts(path),
        )
        program = _write(tmp_path, "tc.pl", CLEAN)
        facts = _write(tmp_path, "facts.pl", "(edge ^src a ^dst b)")
        assert main(["analyze", program, "--facts", facts]) == 0
        assert reads == [facts]
        assert "dead rules: checked against seed classes" in capsys.readouterr().out


class TestRegistryMode:
    def test_analyzes_every_bundled_workload(self, capsys):
        rc = main(["analyze", "--no-hints"])
        assert rc == 0  # acceptance: no error-severity findings shipped
        out = capsys.readouterr().out
        from repro.programs import REGISTRY

        for name in sorted(REGISTRY):
            assert f"== {name}" in out


class TestSarifMode:
    def test_sarif_shape(self, tmp_path, capsys):
        rc = main(["analyze", "--sarif", _write(tmp_path, "c.pl", CONTENDED)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        assert "sarif" in doc["$schema"]
        (run,) = doc["runs"]
        assert run["results"], "expected at least the PA001 result"
        result = run["results"][0]
        assert result["ruleId"] == "PA001"
        assert result["level"] == "warning"
        # Per-run properties carry the graph/coverage summary bags.
        assert "graph" in run["properties"]
        assert "coverage" in run["properties"]

    def test_sarif_exit_code_still_reflects_errors(self, tmp_path, capsys):
        rc = main(["analyze", "--sarif", _write(tmp_path, "b.pl", BROKEN)])
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert any(
            r["ruleId"] == "PA004" and r["level"] == "error"
            for r in doc["runs"][0]["results"]
        )

    def test_registry_sarif_one_run_per_workload(self, capsys):
        rc = main(["analyze", "--sarif"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        from repro.programs import REGISTRY

        assert len(doc["runs"]) == len(REGISTRY)


class TestJsonMode:
    def test_machine_json_shape(self, tmp_path, capsys):
        rc = main(["analyze", "--json", _write(tmp_path, "c.pl", CONTENDED)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        (prog,) = doc["programs"]
        assert prog["worst"] == "warning"
        assert prog["hasErrors"] is False
        assert "graph" in prog["properties"]
        assert "commute" in prog["properties"]
        codes = {d["code"] for d in prog["diagnostics"]}
        assert "PA001" in codes
        first = prog["diagnostics"][0]
        assert set(first) == {"code", "severity", "rule", "ce", "message", "hint"}

    def test_json_exit_code_still_reflects_errors(self, tmp_path, capsys):
        rc = main(["analyze", "--json", _write(tmp_path, "b.pl", BROKEN)])
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        (prog,) = doc["programs"]
        assert prog["hasErrors"] is True
        assert any(
            d["code"] == "PA004" and d["severity"] == "error"
            for d in prog["diagnostics"]
        )

    def test_registry_json_one_entry_per_workload(self, capsys):
        rc = main(["analyze", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        from repro.programs import REGISTRY

        assert len(doc["programs"]) == len(REGISTRY)

    def test_json_and_sarif_are_mutually_exclusive(self, tmp_path, capsys):
        rc = main(
            ["analyze", "--json", "--sarif", _write(tmp_path, "c.pl", CONTENDED)]
        )
        assert rc == 2
        assert "mutually exclusive" in capsys.readouterr().err
