"""Per-rule profiler: folding registry series into the hot-rule table."""

from repro.match.stats import MatchStats
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import (
    RULE_CANDIDATES,
    RULE_EVAL_SECONDS,
    RULE_FIRINGS,
    RULE_MATCH_SECONDS,
    RULE_REDACTIONS,
    hot_rule_table,
    rule_profiles,
)


def _registry() -> MetricsRegistry:
    m = MetricsRegistry()
    # "hot" carries real match time split over two sites.
    m.inc(RULE_CANDIDATES, 40, rule="hot")
    m.inc(RULE_FIRINGS, 30, rule="hot")
    m.inc(RULE_REDACTIONS, 10, rule="hot")
    m.observe(RULE_MATCH_SECONDS, 0.5, rule="hot", site=0)
    m.observe(RULE_MATCH_SECONDS, 0.25, rule="hot", site=1)
    m.observe(RULE_EVAL_SECONDS, 0.1, rule="hot")
    # "cold" was matched by an incremental backend: no match attribution.
    m.inc(RULE_CANDIDATES, 5, rule="cold")
    m.inc(RULE_FIRINGS, 5, rule="cold")
    m.observe(RULE_EVAL_SECONDS, 0.01, rule="cold")
    return m


class TestRuleProfiles:
    def test_folding_and_ordering(self):
        profiles = rule_profiles(_registry())
        assert [p.rule for p in profiles] == ["hot", "cold"]
        hot, cold = profiles
        assert hot.candidates == 40
        assert hot.fired == 30
        assert hot.redacted == 10
        assert abs(hot.match_seconds - 0.75) < 1e-9
        assert sorted(hot.sites) == ["0", "1"]
        assert abs(hot.total_seconds - 0.85) < 1e-9
        assert cold.match_seconds is None
        assert cold.total_seconds == cold.eval_seconds

    def test_candidates_break_time_ties(self):
        m = MetricsRegistry()
        m.inc(RULE_CANDIDATES, 1, rule="b")
        m.inc(RULE_CANDIDATES, 9, rule="a")
        assert [p.rule for p in rule_profiles(m)] == ["a", "b"]

    def test_empty_registry(self):
        assert rule_profiles(MetricsRegistry()) == []


class TestHotRuleTable:
    def test_render_includes_dash_for_unattributed_match(self):
        text = str(hot_rule_table(_registry()))
        lines = text.splitlines()
        assert any(l.lstrip().startswith("hot") for l in lines)
        cold_line = next(l for l in lines if "cold" in l)
        assert " - " in f" {cold_line} "  # match_ms column renders "-"

    def test_top_limits_rows(self):
        text = str(hot_rule_table(_registry(), top=1))
        assert "hot" in text
        assert "cold" not in text

    def test_meta_rules_follow_with_their_join_counters(self):
        stats = MatchStats()
        stats.bump("join_probes", "tie-break", n=4)
        stats.bump("join_probes", "prefer-min", n=9)
        stats.bump("tokens", "prefer-min", n=5)
        stats.bump("instantiations", "prefer-min", n=3)
        stats.bump("alpha_tests", n=7)  # never per rule: adds no row
        lines = str(hot_rule_table(_registry(), top=1, meta_stats=stats)).splitlines()
        assert lines[1].split()[-3:] == ["join_probes", "tokens", "instantiations"]
        rows = [line.split() for line in lines[3:]]
        # ``top`` limits the object rules; every meta-rule is listed.
        assert [r[0] for r in rows] == ["hot", "prefer-min", "tie-break"]
        assert rows[0][-3:] == ["-", "-", "-"]
        assert rows[1][1:] == ["-"] * 5 + ["9", "5", "3"]
        assert rows[2][-3:] == ["4", "0", "0"]

    def test_no_meta_rules_no_extra_columns(self):
        plain = str(hot_rule_table(_registry()))
        assert str(hot_rule_table(_registry(), meta_stats=MatchStats())) == plain
