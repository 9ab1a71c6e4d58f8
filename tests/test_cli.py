"""Tests for the command-line interface."""

import os
import subprocess
import sys

import pytest

from repro.cli import main, parse_facts
from repro.errors import ParseError

TC = """
(literalize edge src dst)
(literalize path src dst)
(p tc-init (edge ^src <a> ^dst <b>) -(path ^src <a> ^dst <b>)
 --> (make path ^src <a> ^dst <b>))
(p tc-extend (path ^src <a> ^dst <b>) (edge ^src <b> ^dst <c>)
 -(path ^src <a> ^dst <c>) --> (make path ^src <a> ^dst <c>) (write path <a> <c>))
"""

FACTS = """
(edge ^src a ^dst b)
(edge ^src b ^dst c)
"""


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "tc.pl"
    path.write_text(TC)
    return str(path)


@pytest.fixture
def facts_file(tmp_path):
    path = tmp_path / "facts.pl"
    path.write_text(FACTS)
    return str(path)


class TestParseFacts:
    def test_basic(self):
        facts = parse_facts("(edge ^src a ^dst 2)(goal)")
        assert facts == [("edge", {"src": "a", "dst": 2}), ("goal", {})]

    def test_malformed_rejected(self):
        with pytest.raises(ParseError):
            parse_facts("(edge ^src <var>)")

    def test_empty(self):
        assert parse_facts("") == []


class TestRunCommand:
    def test_parulel_run(self, program_file, facts_file, capsys):
        rc = main(["run", program_file, "--facts", facts_file])
        assert rc == 0
        out, err = capsys.readouterr()
        assert "path a c" in out
        assert "[parulel]" in err

    def test_ops5_run(self, program_file, facts_file, capsys):
        rc = main(
            ["run", program_file, "--facts", facts_file, "--engine", "ops5"]
        )
        assert rc == 0
        _out, err = capsys.readouterr()
        assert "[ops5/lex]" in err

    @pytest.mark.parametrize(
        "engine,flags",
        [
            ("ops5", ["--trace"]),
            ("ops5", ["--interference", "merge"]),
            ("ops5", ["--interference", "error"]),
            ("ops5", ["--matcher", "process", "--matcher-timeout", "5"]),
            ("ops5", ["--matcher", "process", "--respawn-limit", "1"]),
            ("ops5", ["--wm-backend", "columnar"]),
            ("ops5", ["--checkpoint-every", "2"]),
            ("ops5", ["--resume", "run.ckpt"]),
            ("ops5", ["--trace-out", "t.json"]),
            ("ops5", ["--metrics-out", "m.json"]),
            ("ops5", ["--no-flight-recorder"]),
            ("ops5", ["--blackbox", "run.blackbox"]),
            ("parulel", ["--strategy", "mea"]),
            ("parulel", ["--strategy", "lex"]),
        ],
    )
    def test_a_flag_the_engine_does_not_read_exits_2(
        self, program_file, facts_file, capsys, engine, flags
    ):
        """Refused before anything runs, naming the flag and its engine."""
        argv = ["run", program_file, "--facts", facts_file, "--engine", engine]
        assert main(argv + flags) == 2
        flag = [f for f in flags if f.startswith("--")][-1]
        other = "parulel" if engine == "ops5" else "ops5"
        assert capsys.readouterr() == (
            "", f"error: {flag} applies to --engine {other} only\n"
        )

    @pytest.mark.parametrize(
        "flags,banner",
        [
            (["--engine", "ops5", "--strategy", "mea"], "[ops5/mea]"),
            (["--engine", "ops5"], "[ops5/lex]"),
            (["--interference", "merge"], "[parulel]"),
            (["--interference", "error", "--trace"], "[cycle 1]"),
        ],
    )
    def test_each_engine_keeps_its_own_flags(
        self, program_file, facts_file, capsys, flags, banner
    ):
        rc = main(["run", program_file, "--facts", facts_file, *flags])
        assert rc == 0
        assert banner in capsys.readouterr().err

    def test_trace_and_stats(self, program_file, facts_file, capsys):
        rc = main(
            ["run", program_file, "--facts", facts_file, "--trace", "--stats"]
        )
        assert rc == 0
        _out, err = capsys.readouterr()
        assert "[cycle 1]" in err
        assert "match:" in err

    def test_matcher_option(self, program_file, facts_file):
        for matcher in ("treat", "naive"):
            assert (
                main(["run", program_file, "--facts", facts_file, "--matcher", matcher])
                == 0
            )

    def test_process_matcher_with_workers(self, program_file, facts_file):
        rc = main(
            ["run", program_file, "--facts", facts_file,
             "--matcher", "process", "--workers", "2"]
        )
        assert rc == 0

    def test_process_matcher_rejects_zero_workers(
        self, program_file, facts_file, capsys
    ):
        # Regression: --workers 0 used to fall through a falsy check and
        # silently run with the default worker count.
        rc = main(
            ["run", program_file, "--facts", facts_file,
             "--matcher", "process", "--workers", "0"]
        )
        assert rc == 2
        assert "--workers must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "profile"])
    @pytest.mark.parametrize("matcher", ["treat", "naive"])
    @pytest.mark.parametrize("workers", ["3", "0"])
    def test_workers_without_the_process_matcher_is_refused(
        self, program_file, facts_file, capsys, command, matcher, workers
    ):
        # Regression: a serial matcher used to ignore --workers and exit 0.
        rc = main(
            [command, program_file, "--facts", facts_file,
             "--matcher", matcher, "--workers", workers]
        )
        assert rc == 2
        out, err = capsys.readouterr()
        assert err == "error: --workers requires --matcher process\n"
        assert out == ""

    @pytest.mark.parametrize("command", ["run", "profile"])
    def test_workers_with_the_default_matcher_is_refused(
        self, program_file, facts_file, capsys, command
    ):
        rc = main([command, program_file, "--facts", facts_file, "--workers", "3"])
        assert rc == 2
        assert "--workers requires --matcher process" in capsys.readouterr().err

    def test_missing_file_errors(self, capsys):
        rc = main(["run", "/nonexistent/prog.pl"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_program_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.pl"
        bad.write_text("(p broken")
        rc = main(["run", str(bad)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


#: Why an output path is refused, by the shape of the path.
UNWRITABLE = {
    "dir": "is a directory",
    "orphan": "directory {missing} does not exist",
}
#: (engine, flag, shape): --trace-out and --metrics-out apply to the
#: parulel engine only.
UNWRITABLE_CASES = [
    (engine, flag, shape)
    for engine, flags in (
        ("parulel", ("--dump-wm", "--metrics-out", "--trace-out")),
        ("ops5", ("--dump-wm",)),
    )
    for flag in flags
    for shape in UNWRITABLE
]


class TestUnwritableOutputs:
    """An output path that can never be written is refused before the
    first cycle (exit 2), under either engine, and nothing is created."""

    @pytest.mark.parametrize("engine,flag,shape", UNWRITABLE_CASES)
    def test_refused_before_the_run(
        self, program_file, facts_file, tmp_path, capsys, engine, flag, shape
    ):
        problem = UNWRITABLE[shape]
        missing = tmp_path / "missing"
        path = str(tmp_path) if shape == "dir" else str(missing / "out.txt")
        rc = main(["run", program_file, "--facts", facts_file,
                   "--engine", engine, flag, path])
        assert rc == 2
        out, err = capsys.readouterr()
        assert err == (
            f"error: {flag} {path}: {problem.format(missing=missing)}\n"
        )
        # No cycle ran: tc writes a line per path it derives.
        assert out == ""
        assert not missing.exists()

    def test_a_writable_path_in_the_working_directory(
        self, program_file, facts_file, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        rc = main(["run", program_file, "--facts", facts_file,
                   "--dump-wm", "out.wm"])
        assert rc == 0
        assert "path" in (tmp_path / "out.wm").read_text()


class TestCheckCommand:
    def test_inventory(self, program_file, capsys):
        rc = main(["check", program_file])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 classes, 2 rules, 0 meta-rules" in out
        assert "tc-extend" in out

    def test_semantic_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.pl"
        bad.write_text("(literalize c a)(p r (d ^a 1) --> (halt))")
        rc = main(["check", str(bad)])
        assert rc == 1
        assert "undeclared class" in capsys.readouterr().err


class TestFmtCommand:
    def test_canonical_output_reparses(self, program_file, capsys):
        rc = main(["fmt", program_file])
        assert rc == 0
        out = capsys.readouterr().out
        from repro.lang.parser import parse_program

        assert parse_program(out) == parse_program(TC)


class TestDemoCommand:
    def test_known_demo(self, capsys):
        rc = main(["demo", "monkey"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "parulel:" in out and "OK" in out

    def test_unknown_demo(self, capsys):
        rc = main(["demo", "nope"])
        assert rc == 2
        assert "available" in capsys.readouterr().err


class TestDotCommand:
    def test_dot_output(self, program_file, facts_file, capsys):
        rc = main(["dot", program_file, "--facts", facts_file])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph treat {")
        assert "tc-extend" in out
        assert "[2 wmes]" in out  # the two edge facts

    def test_dot_without_facts(self, program_file, capsys):
        rc = main(["dot", program_file])
        assert rc == 0
        assert "digraph" in capsys.readouterr().out


class TestExplainCommand:
    def test_explain_derivation(self, program_file, facts_file, capsys):
        rc = main(
            [
                "explain",
                program_file,
                "--facts",
                facts_file,
                "--wme",
                "(path ^src a ^dst c)",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "made by rule 'tc-extend'" in out
        assert "asserted initially" in out

    def test_explain_no_match(self, program_file, facts_file, capsys):
        rc = main(
            [
                "explain",
                program_file,
                "--facts",
                facts_file,
                "--wme",
                "(path ^src z ^dst z)",
            ]
        )
        assert rc == 1
        assert "no live WME" in capsys.readouterr().err

    def test_explain_bad_pattern(self, program_file, facts_file, capsys):
        rc = main(
            ["explain", program_file, "--facts", facts_file, "--wme", "(a)(b)"]
        )
        assert rc == 2


class TestInputFiles:
    """A bad program or facts file ends in one typed line that names the
    file and the place — never a traceback."""

    PROGRAM = "(literalize a k)\n(p r (a ^k stop) --> (halt))\n"

    @pytest.fixture
    def program(self, tmp_path):
        path = tmp_path / "p.pl"
        path.write_text(self.PROGRAM)
        return str(path)

    def run(self, capsys, program, facts_path, *more):
        rc = main(["run", program, "--facts", str(facts_path), *more])
        return rc, capsys.readouterr().err.strip()

    @pytest.mark.parametrize(
        "data,offset",
        [
            (b"(a ^k \xff\xfe)\n", 6),
            # Past the text layer's read chunk: the offset is the file's.
            (b"(a ^k 1)\n" * 3000 + b"(a ^k \xe9)\n", 27006),
        ],
    )
    def test_facts_not_utf8(self, program, tmp_path, capsys, data, offset):
        facts = tmp_path / "f.facts"
        facts.write_bytes(data)
        rc, err = self.run(capsys, program, facts)
        assert rc == 1
        assert err == f"error: {facts}: not valid UTF-8 (byte {offset})"

    def test_program_not_utf8(self, tmp_path, capsys):
        prog = tmp_path / "latin1.pl"
        prog.write_bytes(self.PROGRAM.encode() + b"; caf\xe9\n")
        rc = main(["run", str(prog)])
        assert rc == 1
        assert capsys.readouterr().err.strip() == (
            f"error: {prog}: not valid UTF-8 (byte {len(self.PROGRAM) + 5})"
        )

    def test_files_are_utf8_whatever_the_locale(self, tmp_path):
        # Under the C locale open() would pick ASCII: reading "café" and
        # dumping it both used to die with a UnicodeError traceback.
        prog = tmp_path / "p.pl"
        prog.write_text(
            "(literalize a k)\n"
            "(p r (a ^k café) --> (make a ^k |déjà vu|) (halt))\n",
            encoding="utf-8",
        )
        facts = tmp_path / "f.facts"
        facts.write_text("(a ^k café) ; ☕\n", encoding="utf-8")
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(sys.path),
            LC_ALL="C",
            PYTHONUTF8="0",
            PYTHONCOERCECLOCALE="0",
        )

        def run(program, facts_path, dump):
            done = subprocess.run(
                [sys.executable, "-m", "repro.cli", "run", str(program), "--facts",
                 str(facts_path), "--dump-wm", str(dump), "--max-cycles", "1"],
                env=env, capture_output=True, timeout=60,
            )
            assert done.returncode == 0, done.stderr.decode("utf-8", "replace")
            return dump.read_bytes()

        first = run(prog, facts, tmp_path / "one.wm")
        assert first == "(a ^k café)\n(a ^k |déjà vu|)\n".encode("utf-8")
        # The dump is a facts file: it reloads, and dumps the same bytes.
        idle = tmp_path / "idle.pl"
        idle.write_text("(literalize a k)\n(p r (a ^k never) --> (halt))\n")
        assert run(idle, tmp_path / "one.wm", tmp_path / "two.wm") == first

    def test_syntax_error_names_the_facts_file(self, program, tmp_path, capsys):
        facts = tmp_path / "f.facts"
        facts.write_text("(a ^k 1)\n(a ^k 2\n")
        rc, err = self.run(capsys, program, facts)
        assert rc == 1
        assert err == (
            f"error: {facts}: facts: expected ')', found '' (line 3, column 1)"
        )

    @pytest.mark.parametrize(
        "more", [(), ("--engine", "ops5"), ("--wm-backend", "columnar")],
        ids=["parulel", "ops5", "columnar"],
    )
    @pytest.mark.parametrize(
        "bad,message",
        [
            ("(b ^k 2)", "class 'b' was never declared with literalize"),
            ("(a ^z 2)", "class 'a' has no attribute 'z' (declared: ['k'])"),
        ],
    )
    def test_rejected_fact_is_located(
        self, program, tmp_path, capsys, more, bad, message
    ):
        facts = tmp_path / "f.facts"
        facts.write_text(f"; header\n(a ^k 1) (a\n ^k 2)\n\n{bad}\n(a ^k 3)\n")
        rc, err = self.run(capsys, program, facts, *more)
        assert rc == 1
        assert err == f"error: {facts}: fact 3 (line 5): {message}"

    def test_other_subcommands_locate_too(self, program, tmp_path, capsys):
        facts = tmp_path / "f.facts"
        facts.write_text("(a ^k 1)\n(a ^z 2)\n")
        assert main(["dot", program, "--facts", str(facts)]) == 1
        assert f"{facts}: fact 2 (line 2): class 'a'" in capsys.readouterr().err
        facts.write_text("(a ^k 1")
        assert main(["profile", program, "--facts", str(facts)]) == 1
        assert f"error: {facts}: facts: expected ')'" in capsys.readouterr().err


class TestAnalyzeInterference:
    """``analyze`` reports the interference candidates (PA001)."""

    def test_clean_program(self, program_file, capsys):
        rc = main(["analyze", program_file])  # tc only makes -> clean
        assert rc == 0
        out = capsys.readouterr().out
        assert "redaction coverage: n/a — no interference candidates" in out
        assert "PA001" not in out

    def test_flagged_program(self, tmp_path, capsys):
        prog = tmp_path / "contended.pl"
        prog.write_text(
            "(literalize req n)\n"
            "(literalize slot owner)\n"
            "(p claim (req ^n <n>) (slot ^owner nil) --> (modify 2 ^owner <n>))\n"
        )
        rc = main(["analyze", str(prog)])
        assert rc == 0  # PA001 is a warning
        out = capsys.readouterr().out
        assert "PA001 warning [claim/CE 2] two instantiations of 'claim'" in out
        assert "(mp arbitrate-claim" in out


class TestRobustnessOptions:
    COUNTER = """
    (literalize count value)
    (p bump
        (count ^value {<v> < 8})
        -->
        (modify 1 ^value (compute <v> + 1)))
    """

    @pytest.fixture
    def counter_file(self, tmp_path):
        path = tmp_path / "counter.pl"
        path.write_text(self.COUNTER)
        return str(path)

    @pytest.fixture
    def counter_facts(self, tmp_path):
        path = tmp_path / "counter-facts.pl"
        path.write_text("(count ^value 0)\n")
        return str(path)

    def test_matcher_timeout_rejects_nonpositive(self, counter_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", counter_file, "--matcher", "process",
                  "--matcher-timeout", "0"])
        assert exc.value.code == 2
        assert (
            "argument --matcher-timeout: timeout must be a finite number > 0"
            in capsys.readouterr().err
        )

    @pytest.mark.parametrize("timeout", ["nan", "inf"])
    def test_matcher_timeout_rejects_non_finite(self, counter_file, capsys, timeout):
        with pytest.raises(SystemExit) as exc:
            main(["run", counter_file, "--matcher", "process",
                  "--matcher-timeout", timeout])
        assert exc.value.code == 2
        assert (
            "argument --matcher-timeout: timeout must be a finite number > 0"
            in capsys.readouterr().err
        )

    def test_respawn_limit_rejects_negative(self, counter_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", counter_file, "--matcher", "process",
                  "--respawn-limit", "-1"])
        assert exc.value.code == 2
        assert (
            "argument --respawn-limit: respawn_limit must be >= 0"
            in capsys.readouterr().err
        )

    def test_pool_flags_keep_argparse_type_errors(self, counter_file, capsys):
        with pytest.raises(SystemExit):
            main(["run", counter_file, "--matcher-timeout", "soon"])
        assert (
            "argument --matcher-timeout: invalid float value: 'soon'"
            in capsys.readouterr().err
        )

    def test_process_options_require_process_matcher(self, counter_file, capsys):
        rc = main(["run", counter_file, "--respawn-limit", "2"])
        assert rc == 2
        assert "require --matcher process" in capsys.readouterr().err

    def test_stats_on_the_process_backend_invents_no_counters(
        self, counter_file, counter_facts, capsys
    ):
        rc = main(["run", counter_file, "--facts", counter_facts,
                   "--matcher", "process", "--workers", "1", "--stats"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "match: the process backend keeps no match counters" in err
        assert "MatchStats(" not in err
        assert "phase collect:" in err

    def test_process_options_accepted(self, counter_file, counter_facts):
        rc = main(["run", counter_file, "--facts", counter_facts,
                   "--matcher", "process", "--workers", "1",
                   "--matcher-timeout", "30", "--respawn-limit", "2"])
        assert rc == 0

    def test_checkpoint_every_rejects_nonpositive(self, counter_file, capsys):
        rc = main(["run", counter_file, "--checkpoint-every", "0"])
        assert rc == 2
        assert "--checkpoint-every must be >= 1" in capsys.readouterr().err

    def test_checkpoint_options_rejected_for_ops5(self, counter_file, capsys):
        rc = main(["run", counter_file, "--engine", "ops5",
                   "--checkpoint-every", "2"])
        assert rc == 2
        assert "parulel only" in capsys.readouterr().err

    def test_checkpoint_written_at_default_path(
        self, counter_file, counter_facts
    ):
        rc = main(["run", counter_file, "--facts", counter_facts,
                   "--checkpoint-every", "3"])
        assert rc == 0
        store = counter_file + ".ckpt"
        assert os.path.isdir(store)
        assert sorted(os.listdir(store))[0].endswith(".full")

    def test_interrupted_run_resumes_to_same_result(
        self, counter_file, counter_facts, tmp_path, capsys
    ):
        ckpt = str(tmp_path / "run.ckpt")
        # Hit the cycle limit mid-run; the checkpoint store holds cycle 4.
        rc = main(["run", counter_file, "--facts", counter_facts,
                   "--checkpoint-every", "2", "--checkpoint", ckpt,
                   "--max-cycles", "4"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "cycle limit hit after 4 cycles and 4 firings" in err
        assert os.path.exists(ckpt)
        # Resuming finishes the remaining 4 cycles.
        rc = main(["run", counter_file, "--resume", ckpt,
                   "--dump-wm", str(tmp_path / "resumed.wm")])
        assert rc == 0
        assert "4 cycles, 4 firings" in capsys.readouterr().err
        # Uninterrupted reference.
        rc = main(["run", counter_file, "--facts", counter_facts,
                   "--dump-wm", str(tmp_path / "straight.wm")])
        assert rc == 0
        resumed = (tmp_path / "resumed.wm").read_text()
        straight = (tmp_path / "straight.wm").read_text()
        assert resumed == straight

    def test_a_run_stopped_by_the_cycle_limit_still_dumps_its_wm(
        self, counter_file, counter_facts, tmp_path, capsys
    ):
        # Regression: the cycle-limit exit saved the checkpoint and the obs
        # artifacts for the cycles that did complete, but no --dump-wm.
        dump, metrics = tmp_path / "o.wm", tmp_path / "m.json"
        rc = main(["run", counter_file, "--facts", counter_facts,
                   "--max-cycles", "3", "--dump-wm", str(dump),
                   "--metrics-out", str(metrics)])
        assert rc == 1
        assert "cycle limit hit after 3 cycles" in capsys.readouterr().err
        assert metrics.exists()
        assert dump.read_text(encoding="utf-8") == "(count ^value 3)\n"

    def test_resume_ignores_facts_with_warning(
        self, counter_file, counter_facts, tmp_path, capsys
    ):
        ckpt = str(tmp_path / "warn.ckpt")
        main(["run", counter_file, "--facts", counter_facts,
              "--checkpoint-every", "1", "--checkpoint", ckpt])
        capsys.readouterr()
        rc = main(["run", counter_file, "--resume", ckpt,
                   "--facts", counter_facts])
        assert rc == 0
        assert "--facts is ignored" in capsys.readouterr().err


class TestExplainJSON:
    def test_json_emits_derivation_trees(self, program_file, facts_file, capsys):
        import json

        rc = main(
            [
                "explain", program_file, "--facts", facts_file,
                "--wme", "(path ^src a ^dst c)", "--json",
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pattern"] == "(path ^src a ^dst c)"
        (tree,) = doc["matches"]
        assert tree["kind"] == "make"
        assert tree["rule"] == "tc-extend"
        # Parents walk down to the initially asserted edges.
        kinds = {p["kind"] for p in tree["parents"]}
        assert "initial" in kinds or "make" in kinds
        assert doc["ruleCounts"] == {"tc-init": 2, "tc-extend": 1}

    def test_text_mode_prints_rule_count_footer(
        self, program_file, facts_file, capsys
    ):
        rc = main(
            [
                "explain", program_file, "--facts", facts_file,
                "--wme", "(path ^src a ^dst c)",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "derivations by rule:" in out
        assert "tc-init: 2" in out
        assert "tc-extend: 1" in out

    def test_absent_wme_diagnostic_names_class_state(
        self, program_file, facts_file, capsys
    ):
        # Class exists but no attribute match: the hint says so.
        rc = main(
            [
                "explain", program_file, "--facts", facts_file,
                "--wme", "(path ^src z ^dst z)",
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "no live WME matches (path ^src z ^dst z)" in err
        assert "have other attributes" in err
        # Class entirely absent: different hint, still no traceback.
        rc = main(
            [
                "explain", program_file, "--facts", facts_file,
                "--wme", "(ghost ^x 1)",
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "no live WMEs of class 'ghost' at all" in err


class TestFileHandling:
    """Input files are closed as soon as they are read, and a path that
    cannot be read is a one-line error, never a traceback."""

    @pytest.mark.parametrize("command", ["run", "check", "profile"])
    def test_no_file_left_open(self, command, program_file, facts_file):
        argv = [command, program_file]
        if command != "check":
            argv += ["--facts", facts_file]
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        proc = subprocess.run(
            [sys.executable, "-W", "error::ResourceWarning", "-m", "repro.cli", *argv],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "ResourceWarning" not in proc.stderr

    def test_directory_and_unreadable_paths_are_one_line_errors(
        self, tmp_path, program_file, capsys
    ):
        unreadable = tmp_path / "secret.facts"
        unreadable.write_text("(edge ^src a ^dst b)")
        unreadable.chmod(0)
        cases = [["run", str(tmp_path)], ["check", str(tmp_path)]]
        if not os.access(unreadable, os.R_OK):  # root reads anything
            cases.append(["run", program_file, "--facts", str(unreadable)])
        for argv in cases:
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "Traceback" not in err
