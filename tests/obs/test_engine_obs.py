"""Observability wired through the engine and execution substrates.

Covers: engine phase spans + metrics, the exactly-one-trace-callback
guarantee (meta-cycles included), the process pool's worker lanes and
exact cross-process counts, and the distributed machine's virtual
site/network lanes.
"""

from collections import Counter

import pytest

from repro.core import EngineConfig, ParulelEngine
from repro.lang.parser import parse_program
from repro.obs import MetricsRegistry, Tracer, validate_chrome_trace
from repro.obs.profile import (
    RULE_CANDIDATES,
    RULE_EVAL_SECONDS,
    RULE_FIRINGS,
    RULE_MATCH_SECONDS,
    RULE_REDACTIONS,
    rule_profiles,
)
from repro.obs.trace import NULL_TRACER
from repro.obs.metrics import NULL_METRICS
from repro.lab.distributed import DistributedMachine
from repro.programs.tc import build_tc
from repro.resilience.checkpoint import write_envelope

TC_FACTS = [
    ("edge", {"src": f"n{i}", "dst": f"n{i + 1}"}) for i in range(6)
]

TC_SRC = """
(literalize edge src dst)
(literalize path src dst)
(p tc-init (edge ^src <a> ^dst <b>) -(path ^src <a> ^dst <b>)
   --> (make path ^src <a> ^dst <b>))
(p tc-extend (path ^src <a> ^dst <b>) (edge ^src <b> ^dst <c>)
   -(path ^src <a> ^dst <c>)
   --> (make path ^src <a> ^dst <c>))
"""

#: A program whose meta level redacts work every cycle AND ends in
#: redaction quiescence — the branchy reporting path of the engine.
REDACT_SRC = """
(literalize req name)
(literalize grant name)
(p grant (req ^name <n>) --> (make grant ^name <n>))
(mp keep-first
    (instantiation ^rule grant ^id <i> ^n <a>)
    (instantiation ^rule grant ^id {<j> <> <i>} ^n > <a>)
    -->
    (redact <j>))
"""


def run_tc(tracer=None, metrics=None, **config):
    engine = ParulelEngine(
        parse_program(TC_SRC),
        EngineConfig(**config),
        tracer=tracer,
        metrics=metrics,
    )
    for cls, attrs in TC_FACTS:
        engine.make(cls, attrs)
    result = engine.run(max_cycles=100)
    return engine, result


class TestEngineSpans:
    def test_phase_spans_cover_the_cycle(self):
        tracer = Tracer()
        engine, result = run_tc(tracer=tracer)
        names = {e[1] for e in tracer.events()}
        assert {"run", "match", "redact", "act", "merge"} <= names
        validate_chrome_trace(tracer.to_chrome())
        # Spans land on the engine lane, one closed match span per cycle
        # at least.
        assert tracer.lanes() == ["engine"]
        ends = [e for e in tracer.events() if e[0] == "E" and e[1] == "match"]
        assert len(ends) >= result.cycles

    def test_phase_times_public_keys_unchanged(self):
        tracer = Tracer()
        engine, result = run_tc(tracer=tracer)
        assert {"collect", "redact", "evaluate", "apply"} <= set(
            engine.phase_times
        )
        assert isinstance(engine.phase_times, Counter)
        # The run's slice is a snapshot, not a live view.
        assert result.phase_times == engine.phase_times
        assert result.phase_times is not engine.phase_times

    def test_run_span_closes_on_cycle_limit(self):
        from repro.errors import CycleLimitExceeded

        tracer = Tracer()
        engine = ParulelEngine(
            parse_program(TC_SRC), EngineConfig(), tracer=tracer
        )
        for cls, attrs in TC_FACTS:
            engine.make(cls, attrs)
        with pytest.raises(CycleLimitExceeded):
            engine.run(max_cycles=2)
        validate_chrome_trace(tracer.to_chrome())  # no unclosed spans

    def test_observability_defaults_to_noop_singletons(self):
        engine, _result = run_tc()
        assert engine.tracer is NULL_TRACER
        assert engine.metrics is NULL_METRICS


class TestEngineMetrics:
    def test_counts_match_the_run_result(self):
        metrics = MetricsRegistry()
        engine, result = run_tc(metrics=metrics)
        assert metrics.counter_value("parulel_cycles_total") == result.cycles
        assert metrics.counter_value("parulel_firings_total") == result.firings
        assert metrics.counter_value("parulel_candidates_total") == sum(
            r.candidates for r in engine.reports
        )
        assert metrics.counter_value("parulel_delta_makes_total") == sum(
            r.delta_makes for r in engine.reports
        )
        assert metrics.gauge_value("parulel_wm_size") == len(engine.wm)
        # Per-rule series agree with the total.
        per_rule = sum(metrics.series(RULE_FIRINGS).values())
        assert per_rule == result.firings
        # Rule evaluation histograms exist for every fired rule.
        assert set(
            dict(labels)["rule"]
            for labels in metrics.histogram_series(RULE_EVAL_SECONDS)
        ) == {"tc-init", "tc-extend"}

    def test_redaction_counts_per_rule(self):
        metrics = MetricsRegistry()
        engine = ParulelEngine(
            parse_program(REDACT_SRC), EngineConfig(), metrics=metrics
        )
        for i in range(4):
            engine.make("req", {"name": f"r{i}"})
        result = engine.run(max_cycles=100)
        redacted = metrics.counter_value("parulel_redacted_total")
        assert redacted == sum(r.redaction.redacted for r in engine.reports)
        assert (
            metrics.counter_value(RULE_REDACTIONS, rule="grant") == redacted
        )
        assert metrics.counter_value("parulel_meta_firings_total") > 0
        profile = next(
            p for p in rule_profiles(metrics) if p.rule == "grant"
        )
        assert profile.redacted == redacted
        assert profile.fired == result.firings


#: REDACT_SRC plus a rule the meta level vetoes *every* cycle, so the run
#: ends in redaction quiescence (candidates exist, all redacted, WM
#: unchanged) — the CycleReport branch that bypasses the act/merge path.
META_QUIESCE_SRC = REDACT_SRC + """
(literalize never x)
(p doomed (req ^name <n>) --> (make never ^x <n>))
(mp veto-doomed (instantiation ^rule doomed ^id <i>) --> (redact <i>))
"""


class TestTraceCallbackOnce:
    def test_exactly_one_callback_per_report_with_meta_rules(self):
        """Regression: every emitted CycleReport triggers the trace
        callback exactly once — including the final redaction-quiescent
        cycle, which leaves by a different branch."""
        seen = []
        engine = ParulelEngine(
            parse_program(META_QUIESCE_SRC), EngineConfig(), trace=seen.append
        )
        for i in range(4):
            engine.make("req", {"name": f"r{i}"})
        engine.run(max_cycles=100)
        assert seen == engine.reports
        assert [r.cycle for r in seen] == sorted({r.cycle for r in seen})
        # The run genuinely exercised both report branches: fired cycles
        # and the closing all-redacted cycle.
        assert any(r.fired for r in seen)
        assert seen[-1].fired == 0 and seen[-1].candidates > 0

    def test_exactly_one_callback_per_report_plain_program(self):
        seen = []
        engine = ParulelEngine(
            parse_program(TC_SRC), EngineConfig(), trace=seen.append
        )
        for cls, attrs in TC_FACTS:
            engine.make(cls, attrs)
        engine.run(max_cycles=100)
        assert seen == engine.reports


@pytest.mark.timeout(60)
class TestProcessBackendObs:
    def test_worker_lanes_and_exact_counts(self):
        tracer = Tracer()
        metrics = MetricsRegistry()
        engine, result = run_tc(
            tracer=tracer, metrics=metrics, matcher="process:2"
        )
        lanes = tracer.lanes()
        assert lanes[0] == "engine"
        worker_lanes = [l for l in lanes if l.startswith("worker-")]
        assert len(worker_lanes) == 2
        # Worker spans shipped across the process boundary and landed.
        worker_spans = [
            e for e in tracer.events() if e[2].startswith("worker-")
        ]
        assert any(e[1] == "match" for e in worker_spans)
        validate_chrome_trace(tracer.to_chrome())

        # Cross-process counts stay exact: every request got a reply, and
        # per-rule candidates equal what the engine observed.
        sends = metrics.counter_value(
            "parulel_ipc_messages_total", direction="request"
        )
        replies = metrics.counter_value(
            "parulel_ipc_messages_total", direction="reply"
        )
        assert sends == replies > 0
        assert metrics.counter_value("parulel_ipc_bytes_total", site=0) > 0
        assert sum(metrics.series(RULE_CANDIDATES).values()) == sum(
            r.candidates for r in engine.reports
        )
        # Workers attributed per-rule match time with site labels.
        match_sites = {
            dict(labels).get("site")
            for labels in metrics.histogram_series(RULE_MATCH_SECONDS)
        }
        assert match_sites == {"0", "1"}
        engine.close()


class TestDistributedObs:
    def test_site_and_network_lanes_on_virtual_clock(self):
        tracer = Tracer()
        metrics = MetricsRegistry()
        wl = build_tc(n_nodes=10)
        machine = DistributedMachine(
            wl.program, n_sites=3, tracer=tracer, metrics=metrics
        )
        wl.setup(machine)
        result = machine.run()

        assert tracer.lanes() == ["site-0", "site-1", "site-2", "network"]
        names_by_lane = {}
        for _ph, name, lane, _ts, _args in tracer.events():
            names_by_lane.setdefault(lane, set()).add(name)
        assert "gather" in names_by_lane["network"]
        assert "scatter" in names_by_lane["network"]
        assert "redact" in names_by_lane["site-0"]  # the master
        for site in range(3):
            assert "match+fire" in names_by_lane[f"site-{site}"]
        validate_chrome_trace(tracer.to_chrome())

        # Without faults the network counters account for every message.
        counted = sum(
            metrics.counter_value("parulel_network_messages_total", round=r)
            for r in ("gather", "verdict", "scatter")
        )
        assert counted == result.messages

    def test_single_site_machine_has_no_network_spans(self):
        tracer = Tracer()
        wl = build_tc(n_nodes=6)
        machine = DistributedMachine(wl.program, n_sites=1, tracer=tracer)
        wl.setup(machine)
        machine.run()
        network = [e for e in tracer.events() if e[2] == "network"]
        assert network == []
        validate_chrome_trace(tracer.to_chrome())


class TestRestore:
    def test_restored_engine_carries_observability(self, tmp_path):
        engine, _ = run_tc()
        path = str(tmp_path / "ck.json")
        write_envelope(path, engine.checkpoint())
        tracer = Tracer()
        metrics = MetricsRegistry()
        restored = ParulelEngine.restore(
            parse_program(TC_SRC), path, tracer=tracer, metrics=metrics
        )
        assert restored.tracer is tracer
        assert restored.metrics is metrics
