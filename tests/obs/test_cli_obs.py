"""CLI observability: --trace-out/--metrics-out and `parulel profile`."""

import json
import os

import pytest

from repro.cli import main
from repro.obs import validate_chrome_trace
from repro.obs.flightrec import EV_CYCLE, FlightRecorder

TC_SRC = """\
(literalize edge src dst)
(literalize path src dst)
(p tc-init (edge ^src <a> ^dst <b>) -(path ^src <a> ^dst <b>)
   --> (make path ^src <a> ^dst <b>))
(p tc-extend (path ^src <a> ^dst <b>) (edge ^src <b> ^dst <c>)
   -(path ^src <a> ^dst <c>)
   --> (make path ^src <a> ^dst <c>))
"""

FACTS = "".join(f"(edge ^src n{i} ^dst n{i + 1})\n" for i in range(5))


@pytest.fixture()
def program_files(tmp_path):
    program = tmp_path / "tc.pl"
    facts = tmp_path / "tc.facts"
    program.write_text(TC_SRC)
    facts.write_text(FACTS)
    return str(program), str(facts)


class TestRunArtifacts:
    def test_trace_and_metrics_out(self, program_files, tmp_path, capsys):
        program, facts = program_files
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        code = main(
            [
                "run", program, "--facts", facts,
                "--trace-out", str(trace_path),
                "--metrics-out", str(metrics_path),
            ]
        )
        assert code == 0
        doc = json.loads(trace_path.read_text())
        validate_chrome_trace(doc)
        lanes = [
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["name"] == "thread_name"
        ]
        assert "engine" in lanes
        metrics = json.loads(metrics_path.read_text())
        assert metrics["counters"]["parulel_firings_total"] == 15

    def test_jsonl_and_prometheus_suffixes(self, program_files, tmp_path):
        program, facts = program_files
        trace_path = tmp_path / "trace.jsonl"
        metrics_path = tmp_path / "metrics.prom"
        code = main(
            [
                "run", program, "--facts", facts,
                "--trace-out", str(trace_path),
                "--metrics-out", str(metrics_path),
            ]
        )
        assert code == 0
        lines = [json.loads(l) for l in trace_path.read_text().splitlines()]
        assert all({"ph", "name", "lane", "ts_us"} <= set(l) for l in lines)
        prom = metrics_path.read_text()
        assert "# TYPE parulel_firings_total counter" in prom
        assert "parulel_firings_total 15" in prom

    def test_rejected_for_ops5(self, program_files, tmp_path, capsys):
        program, facts = program_files
        code = main(
            [
                "run", program, "--facts", facts, "--engine", "ops5",
                "--trace-out", str(tmp_path / "t.json"),
            ]
        )
        assert code == 2
        assert "parulel only" in capsys.readouterr().err


class TestProfileCommand:
    def test_profile_program_file(self, program_files, capsys):
        program, facts = program_files
        code = main(["profile", program, "--facts", facts])
        assert code == 0
        out = capsys.readouterr().out
        assert "hot rules" in out
        assert "tc-extend" in out
        assert "phases:" in out

    def test_profile_registry_workload(self, capsys):
        code = main(["profile", "tc", "--max-cycles", "1000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "tc-extend" in out
        assert "stopped by quiescence" in out

    def test_profile_writes_artifacts(self, program_files, tmp_path, capsys):
        program, facts = program_files
        trace_path = tmp_path / "p.json"
        metrics_path = tmp_path / "p.prom"
        code = main(
            [
                "profile", program, "--facts", facts,
                "--trace-out", str(trace_path),
                "--metrics-out", str(metrics_path),
            ]
        )
        assert code == 0
        validate_chrome_trace(json.loads(trace_path.read_text()))
        assert "parulel_rule_eval_seconds" in metrics_path.read_text()

    def test_profile_names_the_collector_and_serial_runs_have_no_sites(
        self, program_files, capsys
    ):
        import re

        program, facts = program_files
        assert main(["profile", program, "--facts", facts]) == 0
        out = capsys.readouterr().out
        assert re.search(
            r"^collector: \d+ passes, \d+\.\d ms \(gen0 \d+ / \d+\.\d ms, "
            r"gen1 \d+ / \d+\.\d ms, gen2 \d+ / \d+\.\d ms\)$",
            out,
            re.M,
        )
        assert "sites:" not in out

    def test_profile_process_prints_each_sites_share_of_busy(
        self, program_files, capsys
    ):
        import re

        program, facts = program_files
        code = main(
            ["profile", program, "--facts", facts, "--matcher", "process",
             "--workers", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        (line,) = [ln for ln in out.splitlines() if ln.startswith("sites:")]
        shares = [float(x) for x in re.findall(r"site \d+ [\d.]+ s \(([\d.]+)%\)", line)]
        assert len(shares) == 3 and abs(sum(shares) - 100.0) < 0.3
        ratio = float(re.search(r"busy-sum [\d.]+ s \(([\d.]+)\)", line).group(1))
        assert 1 / 3 - 0.01 <= ratio <= 1.0
        assert abs(ratio - max(shares) / 100) < 0.01

    def test_collector_log_counts_passes_per_generation(self):
        import gc

        from repro.obs.profile import CollectorLog

        log = CollectorLog()
        log.install()
        try:
            gc.collect(0)
            gc.collect(2)
        finally:
            log.remove()
        gc.collect(1)  # after remove: not counted
        assert log.passes == [1, 0, 1]
        assert log.seconds[0] > 0 and log.seconds[2] > 0 and log.seconds[1] == 0
        assert log not in gc.callbacks
        assert log.line().startswith("collector: 2 passes, ")

    def test_profile_unknown_target(self, capsys):
        code = main(["profile", "no-such-workload"])
        assert code == 2
        assert "neither a file nor a bundled workload" in capsys.readouterr().err

    def test_profile_top_limits_table(self, program_files, capsys):
        program, facts = program_files
        code = main(["profile", program, "--facts", facts, "--top", "1"])
        assert code == 0
        out = capsys.readouterr().out
        # Only the hottest rule row remains.
        assert out.count("tc-") == 1


class TestFlightRecorderFlags:
    def test_default_run_writes_no_dump(self, program_files, tmp_path):
        program, facts = program_files
        bb = tmp_path / "run.blackbox"
        assert main(
            ["run", program, "--facts", facts, "--blackbox", str(bb)]
        ) == 0
        assert not bb.exists()

    def test_cycle_limit_dumps_and_hints(self, program_files, tmp_path, capsys):
        program, facts = program_files
        bb = tmp_path / "limit.blackbox"
        code = main(
            [
                "run", program, "--facts", facts,
                "--max-cycles", "1", "--blackbox", str(bb),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "black-box dump written" in err
        assert "parulel blackbox dump" in err
        assert bb.exists()

    def test_no_flight_recorder_suppresses_dump(
        self, program_files, tmp_path, capsys
    ):
        program, facts = program_files
        bb = tmp_path / "off.blackbox"
        code = main(
            [
                "run", program, "--facts", facts, "--max-cycles", "1",
                "--no-flight-recorder", "--blackbox", str(bb),
            ]
        )
        assert code == 1
        assert not bb.exists()
        assert "black-box dump" not in capsys.readouterr().err

    def test_flags_rejected_for_ops5(self, program_files, capsys):
        program, facts = program_files
        code = main(
            [
                "run", program, "--facts", facts,
                "--engine", "ops5", "--no-flight-recorder",
            ]
        )
        assert code == 2


class TestBlackboxCommand:
    @pytest.fixture()
    def dump_path(self, program_files, tmp_path):
        program, facts = program_files
        bb = tmp_path / "crash.blackbox"
        assert main(
            [
                "run", program, "--facts", facts,
                "--max-cycles", "1", "--blackbox", str(bb),
            ]
        ) == 1
        return str(bb)

    def test_dump_prints_timeline(self, dump_path, capsys):
        capsys.readouterr()
        assert main(["blackbox", "dump", dump_path]) == 0
        out = capsys.readouterr().out
        assert "# reason: CycleLimitExceeded" in out
        assert "cycle 1 done" in out
        assert "dump: CycleLimitExceeded" in out

    def test_dump_limit_keeps_newest(self, dump_path, capsys):
        capsys.readouterr()
        assert main(["blackbox", "dump", dump_path, "--limit", "3"]) == 0
        out = capsys.readouterr().out
        assert "earlier event(s) omitted" in out
        body = [l for l in out.splitlines() if not l.startswith("#")]
        assert len(body) == 3

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["blackbox", "dump", "{dump}", "--limit", "0"], None),
            (["blackbox", "dump", "{dump}", "--limit", "-1"], "--limit"),
            (["profile", "{program}", "--top", "-1"], "--top"),
            (["run", "{program}", "--max-cycles", "-1"], "--max-cycles"),
            (["explain", "{program}", "--max-cycles", "-1"], "--max-cycles"),
        ],
        ids=[
            "limit-0", "limit-negative", "top-negative", "run-max-cycles-negative",
            "explain-max-cycles-negative",
        ],
    )
    def test_count_flags(self, argv, flag, dump_path, program_files, capsys):
        """``--limit 0`` prints no event; a negative count exits 2 naming
        its flag, before the command does anything."""
        program, _facts = program_files
        argv = [a.format(dump=dump_path, program=program) for a in argv]
        capsys.readouterr()
        if flag is None:
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert "earlier event(s) omitted (--limit 0)" in out
            assert [l for l in out.splitlines() if not l.startswith("#")] == []
            return
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}: must be >= 0, got -1" in capsys.readouterr().err
        assert not os.path.exists(program + ".blackbox")

    @pytest.mark.parametrize("command", ["dump", "report"])
    def test_retired_kinds_still_decode(self, tmp_path, capsys, command):
        """Kinds 8 (race) and 9 (sanitizer replay) are retired: dumps that
        hold them still render, through the generic ``kind#N`` line."""
        recorder = FlightRecorder(["r0", "r1"], capacity=16)
        try:
            recorder.record(8, 1, code=0, a=1)
            recorder.record(9, 1, a=3)
            recorder.record(EV_CYCLE, 1, a=2, b=2)
            path = recorder.dump(str(tmp_path / "old.blackbox"), reason="old")
        finally:
            recorder.close()
        capsys.readouterr()
        assert main(["blackbox", command, path]) == 0
        out = capsys.readouterr().out
        if command == "dump":
            assert "kind#8 code=0 a=1 b=0" in out
            assert "kind#9 code=0 a=3 b=0" in out
            assert "cycle 1 done: fired=2 conflict_set=2" in out

    def test_report_phases_and_rules(self, dump_path, tmp_path, capsys):
        capsys.readouterr()
        prom = tmp_path / "skew.prom"
        assert main(
            ["blackbox", "report", dump_path, "--metrics-out", str(prom)]
        ) == 0
        out = capsys.readouterr().out
        assert "cycle phases (seconds):" in out
        assert "rule time share" in out
        text = prom.read_text()
        assert "parulel_rule_time_share" in text

    def test_diff_identical_is_clean(self, dump_path, capsys):
        capsys.readouterr()
        assert main(["blackbox", "diff", dump_path, dump_path]) == 0
        assert "no divergence" in capsys.readouterr().out

    def test_diff_divergent_pinpoints_event(
        self, program_files, tmp_path, capsys
    ):
        program, facts = program_files
        left = tmp_path / "l.blackbox"
        right = tmp_path / "r.blackbox"
        main(["run", program, "--facts", facts,
              "--max-cycles", "1", "--blackbox", str(left)])
        # A different fact set diverges in cycle 1's deterministic record.
        short_facts = tmp_path / "short.facts"
        short_facts.write_text("(edge ^src n0 ^dst n1)\n")
        main(["run", program, "--facts", str(short_facts),
              "--max-cycles", "1", "--blackbox", str(right)])
        capsys.readouterr()
        code = main(["blackbox", "diff", str(left), str(right)])
        assert code == 1
        out = capsys.readouterr().out
        assert "first divergence at engine-ring event" in out
        assert "left :" in out and "right:" in out

    def test_corrupt_file_is_clear_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.blackbox"
        bad.write_bytes(b"not a dump")
        code = main(["blackbox", "dump", str(bad)])
        assert code == 1
        assert "not a blackbox dump" in capsys.readouterr().err
