#!/usr/bin/env bash
# The one gate CI and humans both run: tier-1 tests + static analysis.
#
#   scripts/check.sh            # fast gate (tier-1 tests minus slow
#                               # process-killing tests, static analysis)
#   scripts/check.sh --faults   # additionally run the full fault suite
#                               # (kills/SIGSTOPs real workers, each loss
#                               # must end in MatchError with a blackbox
#                               # and nothing left running; per-test
#                               # SIGALRM timeouts keep a bug from hanging
#                               # the gate)
#   scripts/check.sh --bench    # additionally regenerate the experiment
#                               # tables/figures under benchmarks/results/
#                               # and fail if a deterministic table moved
#   scripts/check.sh --resilience  # additionally run the live-recovery
#                               # chaos differential (a seeded worker
#                               # SIGKILL ends the run in MatchError; with
#                               # checkpoint truncation + segment unlinks
#                               # the restore must recover byte-identically)
#                               # for both WM backends, the shm-leak check
#                               # and a checkpoint-cost microbenchmark
#                               # smoke run
#   scripts/check.sh --obs      # additionally run the full observability
#                               # suite (flight recorder, blackbox decode,
#                               # metrics export) and the recorder-overhead
#                               # benchmark gate vs BENCH_obs.json
#   scripts/check.sh --analysis # additionally gate the commutativity
#                               # detector: per-pair verdicts over every
#                               # bundled workload must match the golden
#                               # file, and no COMMUTES pair may diverge
#                               # when real runs' fired pairs are replayed
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 tests (fast gate: slow worker-kill tests excluded)"
# A leaked file, pipe or socket fails the test that leaked it. Both flags
# are needed: pytest re-reports a ResourceWarning raised in a finalizer as
# PytestUnraisableExceptionWarning, which the first flag does not cover.
python -m pytest -x -q -m "not slow" \
    -W error::ResourceWarning -W error::pytest.PytestUnraisableExceptionWarning

echo "== static analysis (bundled workloads)"
# 'parulel analyze' exits 1 when any error-severity PAxxx diagnostic fires;
# on failure re-run with --json (flat machine JSON) so the log shows the
# exact regressing code.
python -m repro.cli analyze --no-hints || {
    echo "static analysis found error-severity diagnostics; JSON follows:"
    python -m repro.cli analyze --json
    exit 1
}

echo "== observability gate (trace + metrics artifacts validate)"
OBS_TMP="$(mktemp -d)"
trap 'rm -rf "$OBS_TMP"' EXIT
python -m repro.cli run examples/tc.pl --facts examples/tc.facts \
    --matcher process --workers 2 \
    --trace-out "$OBS_TMP/tc.trace.json" \
    --metrics-out "$OBS_TMP/tc.metrics.json" >/dev/null
python - "$OBS_TMP" <<'PYEOF'
import json, sys
from repro.obs import validate_chrome_trace

tmp = sys.argv[1]
doc = json.load(open(f"{tmp}/tc.trace.json"))
validate_chrome_trace(doc)
lanes = {e["args"]["name"] for e in doc["traceEvents"] if e["name"] == "thread_name"}
assert "engine" in lanes and any(l.startswith("worker-") for l in lanes), lanes
metrics = json.load(open(f"{tmp}/tc.metrics.json"))
assert metrics["counters"]["parulel_cycles_total"] > 0, metrics["counters"]
assert metrics["counters"]["parulel_firings_total"] > 0, metrics["counters"]
print(f"trace OK ({len(doc['traceEvents'])} events, lanes: {sorted(lanes)}); "
      f"metrics OK ({len(metrics['counters'])} counters)")
PYEOF

echo "== observability overhead benchmark (enabled tracing within 5%)"
python -m pytest tests/obs/test_overhead.py -q

echo "== match-kernel perf gate (deterministic join counters vs baseline)"
# Gates on the byte-stable join_probes/join_checks counters recorded in
# benchmarks/results/BENCH_match.json; wall-clock is advisory. After an
# intentional match-kernel change, refresh with:
#   python -m benchmarks.match_microbench --write
python -m benchmarks.match_microbench --check

echo "== end-to-end smoke (same-input dump twins, leaked segments)"
# Small versions of the six BENCHMARK.json workloads through the real CLI:
# fails when tc-rete/tc-process or bulk-process-dict/-columnar stop
# dumping byte-identical working memories, when a run's own checks fail,
# or when a process run strands a shared-memory segment — so every change
# to the matchers or the pool is held to them. Under 30 s; timings are
# not gated here (BENCHMARK.json's driver does that).
python -m benchmarks.e2e --smoke >"$OBS_TMP/e2e-smoke.json" || {
    echo "end-to-end smoke failed:"
    python -c 'import json, sys; print("\n".join(json.load(open(sys.argv[1]))["error_rate"]["failures"]))' \
        "$OBS_TMP/e2e-smoke.json"
    exit 1
}

echo "== working-memory store gate (columnar vs dict: bytes + identity)"
# Gates on the columnar store's IPC byte advantage, the column-scan probe
# kernel against the dict store's alpha cache (>=5x fewer WME
# materializations per cycle, refresh+match latency no worse, per-cycle
# match summaries byte-identical), and engine identity across the dict and
# columnar stores plus the full 9-workload sweep — all recorded in
# benchmarks/results/BENCH_wm.json; wall-clock is advisory.
# After an intentional WM/IPC/probe-kernel change, refresh with:
#   python -m benchmarks.wm_microbench --write           (gate tier)
#   python -m benchmarks.wm_microbench --write --full    (+ million tier
#                                                         + workload sweep)
python -m benchmarks.wm_microbench --check
# Shared-memory segments are unlinked by ColumnarWorkingMemory.close(),
# a pid-guarded finalizer, and the stdlib resource tracker — but a
# SIGKILLed *parent* can still strand named segments. The janitor sweeps
# any left by this gate's own runs so repeated CI runs cannot fill
# /dev/shm; it is safe by construction (only a segment whose name embeds
# the pid of a process that is gone is unlinked).
python -m repro.cli janitor

if [[ "${1:-}" == "--faults" ]]; then
    echo "== fault-injection/recovery suite (slow tests included)"
    python -m pytest tests/faults tests/core/test_checkpoint.py tests/resilience -q
fi

if [[ "${1:-}" == "--resilience" ]]; then
    echo "== resilience suite (checkpoints, chaos, janitor)"
    python -m pytest tests/resilience -q
    echo "== checkpoint cost microbenchmark (smoke: it must run; no gate)"
    python -m benchmarks.resilience_microbench --wmes 2000 --cycles 4
    echo "== chaos differential (crash + corruption -> byte-identical recovery)"
    # tc's fired instantiations are blocked by their own makes; routing's
    # stay matched, so its restores hand the engine fired entries to drop
    # and consume again.
    for workload in tc routing; do
        for seed in 0 1; do
            python -m repro.resilience.chaos --workload "$workload" --backend dict --seed "$seed"
            python -m repro.resilience.chaos --workload "$workload" --backend columnar --seed "$seed"
        done
    done
    # The chaos runs above include the janitor leg (orphaned-segment
    # reclamation after a SIGKILLed columnar owner); fail loudly if
    # anything pwm* is still both present and unowned afterwards.
    LEFT="$(python -m repro.cli janitor)"
    if [[ -n "$LEFT" ]]; then
        echo "chaos runs leaked shared-memory segments:"; echo "$LEFT"; exit 1
    fi
fi

if [[ "${1:-}" == "--obs" ]]; then
    echo "== observability suite (flight recorder, blackbox, metrics HTTP)"
    python -m pytest tests/obs -q
    echo "== flight-recorder overhead gate (recorder-on within budget)"
    # Gates fresh on-vs-off wall time for tc/manners against the budget
    # recorded in benchmarks/results/BENCH_obs.json; after an intentional
    # recorder change, refresh with:
    #   python -m benchmarks.obs_microbench --write
    python -m benchmarks.obs_microbench --check
fi

if [[ "${1:-}" == "--analysis" ]]; then
    echo "== commutativity verdicts (bundled workloads vs golden file)"
    # Per-pair COMMUTES/RACES/UNKNOWN verdicts recorded in
    # benchmarks/results/COMMUTE_verdicts.json; after an intentional
    # detector or workload change, refresh with:
    #   python -m repro.analysis.commute --write
    # (-c import avoids runpy's found-in-sys.modules warning: the package
    # __init__ imports the module eagerly)
    python -c "from repro.analysis.commute import main; raise SystemExit(main(['--check']))"
    echo "== COMMUTES verdicts audited on real runs (bundled workloads + random programs)"
    python -m pytest tests/core/test_commute_audit.py \
        tests/analysis/test_commute_differential.py -q
fi

if [[ "${1:-}" == "--bench" ]]; then
    echo "== experiment suite (regenerates benchmarks/results/)"
    python -m pytest benchmarks/ -q --benchmark-only
    echo "== simulator figures' plain assertions (--benchmark-only skips them)"
    python -m pytest benchmarks/test_fig5_distributed.py \
        benchmarks/test_fig6_faults.py -q --benchmark-disable
    echo "== deterministic tables byte-identical to the committed ones"
    # These tables have no wall-clock column: the simulators' cost-model
    # ticks, and the cycle/firing/token counts of Tables 1-2, Figure 4 and
    # Ablations A3/A5. Any byte that moves is a change to what a run does
    # or what the simulators charge. After an intentional one, commit the
    # regenerated files.
    SIM_TABLES=()
    for name in fig1_speedup fig2_copy_constrain fig5_distributed fig6_faults \
            ablation1_partition ablation4_multicast ablation6_analysis_partition \
            table1_programs table2_cycles fig4_firing_sets ablation3_policy \
            ablation5_beta_sharing; do
        SIM_TABLES+=("benchmarks/results/$name.txt" "benchmarks/results/$name.csv")
    done
    git diff --exit-code -- "${SIM_TABLES[@]}" || {
        echo "deterministic tables differ from the committed ones (diff above)"
        exit 1
    }
fi

echo "check.sh: all gates passed"
