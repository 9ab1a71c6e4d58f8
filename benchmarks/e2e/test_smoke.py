"""Smoke tests of the end-to-end benchmark: generator, launcher, output
checks, trace invariants and the driver contract, at tiny sizes.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` (not part of
the tier-1 suite, which collects ``tests/`` only).
"""

import io
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from benchmarks.e2e import harness, layers
from benchmarks.e2e.spans import Span
from benchmarks.e2e.workloads import WORKLOADS, generate

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke_report():
    return harness.run_set(
        0, list(WORKLOADS), untraced=1, traced=1, smoke=True
    )


def test_smoke_set_is_correct_and_complete(smoke_report):
    rate = smoke_report["error_rate"]
    assert rate["failed"] == 0, rate["failures"]
    # per workload: warm-up, one untraced round, one traced round (an
    # untraced execution and the traced one beside it)
    assert rate["attempted"] == 4 * len(WORKLOADS)
    assert set(smoke_report["workloads"]) == set(WORKLOADS)
    for name, result in smoke_report["workloads"].items():
        assert set(result["end_to_end"]) == set(harness.END_TO_END), name
        assert set(result["per_layer"]) == set(layers.PER_LAYER), name
        for summary in result["end_to_end"].values():
            assert summary["median"] > 0 and summary["n"] == 1


def test_rows_sum_to_traced_wall(smoke_report):
    for name, result in smoke_report["workloads"].items():
        rows = result["per_layer"]
        total = sum(rows[row]["median"] for row in layers.PARTITION)
        wall = rows["cli.traced_wall_s"]["median"]
        assert total == pytest.approx(wall, abs=1e-6), name
        assert rows["cli.unattributed_s"]["median"] <= 0.10 * wall, name
        assert rows["wm.columnar.leaked_segments"]["median"] == 0, name


def test_layers_see_what_the_workloads_stress(smoke_report):
    per_layer = {
        n: {k: v["median"] for k, v in r["per_layer"].items()}
        for n, r in smoke_report["workloads"].items()
    }
    assert per_layer["manners-rete"]["core.redaction.redacted"] > 0
    assert per_layer["tc-rete"]["core.redaction.redacted"] == 0
    assert per_layer["tc-rete"]["match.tokens"] > 0
    assert per_layer["tc-rete"]["parallel.process.ipc_bytes"] == 0
    assert per_layer["tc-process"]["parallel.process.worker_busy_max_s"] > 0
    dict_, columnar = (
        per_layer["bulk-process-dict"], per_layer["bulk-process-columnar"]
    )
    assert dict_["wm.columnar.shm_mb"] == 0 < columnar["wm.columnar.shm_mb"]
    assert (
        dict_["parallel.process.ipc_bytes"]
        > columnar["parallel.process.ipc_bytes"] > 0
    )


def test_generator_is_seeded(tmp_path):
    for name in ("tc-rete", "manners-rete", "bulk-process-dict"):
        texts = []
        for sub, seed in (("a", 1), ("b", 1), ("c", 2)):
            out = tmp_path / name / sub
            out.mkdir(parents=True)
            made = generate(WORKLOADS[name], seed, out, smoke=True)
            texts.append(made.program.read_text() + made.facts.read_text())
            manifest = json.loads(
                (out / f"{WORKLOADS[name].family}.json").read_text()
            )
            assert manifest["seed"] == seed
            assert manifest["expected_firings"] == made.firings
        assert texts[0] == texts[1] != texts[2]


def test_wrong_output_is_a_failed_execution():
    workload = WORKLOADS["tc-treat"]
    with harness.Session(seed=0, smoke=True) as session:
        inputs = session.inputs(workload)
        assert not session.execute(workload).failures
        inputs.firings += 1
        assert "cycles/firings" in session.execute(workload).failures[0]
        inputs.firings -= 1
        inputs.verify = lambda dump: ["made-up-check"]
        assert "made-up-check" in session.execute(workload).failures[0]
        assert (session.attempted, session.failed) == (3, 2)


def test_crash_and_twin_mismatch_are_failed_executions():
    with harness.Session(seed=0, smoke=True) as session:
        broken = replace(WORKLOADS["tc-treat"], flags=("--matcher", "nope"))
        assert session.execute(broken).failures == ["exit 2"]
        # A twin whose dump is not its reference's.
        session.warm_up(WORKLOADS["tc-process"])
        session._digests["tc-rete"] = "0" * 64
        failures = session.execute(WORKLOADS["tc-process"]).failures
        assert failures == ["dumped WM differs from tc-rete's"]


def test_trace_invariants_are_checked():
    ok = [Span("root", 0, 10, -1), Span("a", 1, 4, 0), Span("b", 4, 9, 0)]
    assert layers._self_times(ok) == [2, 3, 5]
    unclosed = [Span("root", 0, 10, -1), Span("a", 1, -1.0, 0)]
    overlapping = [Span("root", 0, 10, -1), Span("a", 1, 5, 0), Span("b", 4, 9, 0)]
    escaping = [Span("root", 0, 10, -1), Span("a", 1, 11, 0)]
    for bad in (unclosed, overlapping, escaping):
        with pytest.raises(layers.TraceError):
            layers._self_times(bad)


def _report(wall, spread=0.01, failed=0):
    summary = {"median": wall, "p25": wall * (1 - spread / 2),
               "p75": wall * (1 + spread / 2)}
    return {
        "workloads": {"tc-rete": {"end_to_end": {
            m["name"]: dict(summary) for m in SPEC["end_to_end"]
        }}},
        "error_rate": {"failed": failed, "attempted": 9},
    }


def test_compare_verdicts():
    def verdicts(a, b):
        out = io.StringIO()
        ok = harness.compare(a, b, out=out)
        return ok, out.getvalue()

    ok, text = verdicts(_report(1.0), _report(1.02))
    assert ok and "BREACH" not in text and "unresolved" not in text
    ok, text = verdicts(_report(1.0), _report(1.5))
    assert not ok and "BREACH" in text
    ok, text = verdicts(_report(1.0, spread=0.6), _report(1.02))
    assert ok and "unresolved" in text
    ok, _ = verdicts(_report(1.0), _report(1.0, failed=1))
    assert not ok


def test_benchmark_json_names_what_the_code_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    } == harness.END_TO_END
    assert {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    } == layers.PER_LAYER
    assert SPEC["paths"] == ["benchmarks/e2e"]


def _drive(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def test_driver_contract_last_line():
    done = _drive(harness.ROOT, "--workload", "tc-treat", "--seed", "4",
                  "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 1 + harness.MIN_REPS
    assert {
        name: value["unit"] for name, value in result["metrics"].items()
    } == harness.END_TO_END


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        harness.HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns(".work", "__pycache__"),
    )
    done = _drive(tmp_path, "--workload", "tc-treat", "--seed", "4",
                  "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
