"""Nearest-rank percentiles and cycle summaries."""

import pytest

from repro.core import EngineConfig, ParulelEngine
from repro.lang.parser import parse_program
from repro.obs import summarize_cycles
from repro.obs.metrics import percentile


class TestPercentile:
    def test_nearest_rank(self):
        values = [10, 20, 30, 40, 50]
        assert percentile(values, 50) == 30
        assert percentile(values, 95) == 50
        assert percentile(values, 100) == 50
        assert percentile(values, 0) == 10
        assert percentile([7], 50) == 7.0

    def test_empty_is_zero(self):
        assert percentile([], 50) == 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestSummarizeCycles:
    SRC = """
    (literalize seed n)
    (literalize out n)
    (p expand (seed ^n <n>) -(out ^n <n>) --> (make out ^n <n>) (write done <n>))
    """

    def test_summary_fields_and_types(self):
        engine = ParulelEngine(parse_program(self.SRC), EngineConfig())
        for i in range(5):
            engine.make("seed", {"n": i})
        result = engine.run(max_cycles=10)
        summary = summarize_cycles(engine.reports)
        assert summary["cycles"] == result.cycles
        assert summary["firings"] == result.firings
        assert isinstance(summary["firings"], int)
        assert isinstance(summary["mean_firing_set"], float)
        assert summary["p50_firing_set"] == 5.0
        assert summary["p95_firing_set"] == 5.0
        assert summary["writes"] == 5

    def test_empty_reports(self):
        summary = summarize_cycles([])
        assert summary["cycles"] == 0
        assert summary["p50_firing_set"] == 0.0
        assert summary["p95_firing_set"] == 0.0

    def test_percentiles_ignore_zero_firing_cycles(self):
        class R:  # minimal CycleReport stand-in
            def __init__(self, fired):
                self.fired = fired
                self.delta_removes = 0
                self.delta_makes = 0
                self.writes = []

                class Red:
                    redacted = 0
                    meta_cycles = 0

                self.redaction = Red()

        summary = summarize_cycles([R(4), R(0), R(8)])
        assert summary["p50_firing_set"] == 4.0
        assert summary["p95_firing_set"] == 8.0
        assert summary["max_firing_set"] == 8
        assert summary["mean_firing_set"] == 6.0
