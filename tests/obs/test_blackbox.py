"""Blackbox decoding end to end: engine crash dumps, timelines, skew, diffs.

These drive real engines (``parse_program`` + :class:`ParulelEngine`) and
assert on the loaded ``*.blackbox`` artifacts — the same files an operator
would feed to ``parulel blackbox dump/report/diff`` after a crash.
"""

import pytest

from repro.core import EngineConfig, ParulelEngine
from repro.errors import CycleLimitExceeded, MatchError
from repro.lang.parser import parse_program
from repro.obs.blackbox import diff_blackbox, load_blackbox, skew_report
from repro.obs.flightrec import (
    EV_CYCLE,
    EV_DUMP,
    EV_FAULT,
    EV_MATCH_REPLY,
    EV_MATCH_REQ,
    EV_PHASE,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import RULE_TIME_SHARE, SITE_SKEW_RATIO

TC = """
(literalize edge src dst)
(literalize path src dst)
(p tc-init (edge ^src <a> ^dst <b>) -(path ^src <a> ^dst <b>)
 --> (make path ^src <a> ^dst <b>))
(p tc-extend (path ^src <a> ^dst <b>) (edge ^src <b> ^dst <c>)
 -(path ^src <a> ^dst <c>) --> (make path ^src <a> ^dst <c>))
"""

EDGES = [("a", "b"), ("b", "c"), ("c", "d")]


def tc_engine(blackbox_path, edges=EDGES, **cfg):
    engine = ParulelEngine(
        parse_program(TC),
        EngineConfig(blackbox_path=str(blackbox_path), **cfg),
    )
    for src, dst in edges:
        engine.make("edge", src=src, dst=dst)
    return engine


class TestEngineDumps:
    def test_cycle_limit_dumps_blackbox(self, tmp_path):
        path = tmp_path / "limit.blackbox"
        engine = tc_engine(path)
        try:
            with pytest.raises(CycleLimitExceeded):
                engine.run(max_cycles=1)
        finally:
            engine.close()
        bb = load_blackbox(str(path))
        assert bb.reason.startswith("CycleLimitExceeded")
        assert bb.header["info"]["cycle"] == 1
        assert "tc-init" in bb.rules and "tc-extend" in bb.rules
        kinds = {r["kind"] for r in bb.main.records}
        assert EV_CYCLE in kinds and EV_PHASE in kinds and EV_DUMP in kinds

    def test_clean_run_leaves_no_dump(self, tmp_path):
        path = tmp_path / "clean.blackbox"
        engine = tc_engine(path)
        try:
            result = engine.run()
            assert result.reason == "quiescence"
        finally:
            engine.close()
        assert not path.exists()

    @pytest.mark.slow
    @pytest.mark.timeout(60)
    def test_manual_dump_records_config(self, tmp_path):
        path = tmp_path / "manual.blackbox"
        engine = tc_engine(path, matcher="process:2")
        try:
            engine.run()
            assert engine.dump_blackbox() == str(path)
        finally:
            engine.close()
        bb = load_blackbox(str(path))
        assert bb.reason == "manual"
        assert "max_cycles" in bb.header["info"]["config"]

    @pytest.mark.slow
    @pytest.mark.timeout(90)
    def test_worker_kill_dumps_and_names_site(self, tmp_path):
        path = tmp_path / "kill.blackbox"
        engine = tc_engine(path, matcher="process:2")

        def kill_site_1(report):
            if report.cycle == 1:
                engine.matcher.pool._procs[1].kill()

        engine.trace = kill_site_1
        try:
            with pytest.raises(MatchError):
                engine.run()
        finally:
            engine.close()
        bb = load_blackbox(str(path))
        assert bb.reason.startswith("MatchError: match worker for site 1 lost")
        # The killed site's ring survived and shows up in the timeline.
        assert any(site == 1 for _, site, _ in bb.timeline())

    @pytest.mark.parametrize("kind", ["kill", "wedge", "respawn", "degrade"])
    def test_a_fault_record_from_an_older_dump_still_decodes(self, tmp_path, kind):
        """Pools that recovered from worker loss journalled these kinds;
        their dumps still read."""
        path = tmp_path / "fault.blackbox"
        engine = tc_engine(path)
        try:
            rec = engine.flightrec
            rec.record(EV_FAULT, 1, code=rec.intern(kind), a=1, site=1)
            engine.dump_blackbox()
        finally:
            engine.close()
        bb = load_blackbox(str(path))
        (fault,) = [r for r in bb.main.records if r["kind"] == EV_FAULT]
        assert bb.describe(fault) == f"fault {kind} site=1"


class TestTimeline:
    def test_merged_timeline_is_time_ordered(self, tmp_path):
        path = tmp_path / "t.blackbox"
        engine = tc_engine(path)
        try:
            engine.run()
            engine.dump_blackbox()
        finally:
            engine.close()
        timeline = load_blackbox(str(path)).timeline()
        assert timeline
        stamps = [ts for ts, _, _ in timeline]
        assert stamps == sorted(stamps)


class TestSkewReport:
    def test_serial_run_reports_phases_and_rules(self, tmp_path):
        path = tmp_path / "s.blackbox"
        engine = tc_engine(path)
        try:
            engine.run()
            engine.dump_blackbox()
        finally:
            engine.close()
        report = skew_report(load_blackbox(str(path)))
        assert set(report["phases"]) >= {"match", "act"}
        for stats in report["phases"].values():
            assert stats["p50"] <= stats["p95"] <= stats["max"]
        assert set(report["rules"]) == {"tc-init", "tc-extend"}
        assert sum(r["share"] for r in report["rules"].values()) == pytest.approx(1.0)

    def test_site_tagged_main_ring_records_fold_into_sites(self, tmp_path):
        # The threaded pool journals site-tagged req/reply pairs into the
        # engine ring instead of separate rings; skew must fold them.
        path = tmp_path / "tagged.blackbox"
        engine = tc_engine(path)
        try:
            fr = engine.flightrec
            for site, busy in ((0, 1), (1, 3)):
                fr.record(EV_MATCH_REQ, 1, site=site)
                fr.record(EV_MATCH_REPLY, 1, a=2, site=site)
            engine.dump_blackbox()
        finally:
            engine.close()
        report = skew_report(load_blackbox(str(path)))
        assert set(report["sites"]) == {0, 1}
        for stats in report["sites"].values():
            assert stats["cycles"] == 1

    def test_registry_export_gauges(self, tmp_path):
        path = tmp_path / "g.blackbox"
        engine = tc_engine(path)
        try:
            fr = engine.flightrec
            fr.record(EV_MATCH_REQ, 1, site=0)
            fr.record(EV_MATCH_REPLY, 1, a=2, site=0)
            engine.run()
            engine.dump_blackbox()
        finally:
            engine.close()
        registry = MetricsRegistry()
        skew_report(load_blackbox(str(path)), registry=registry)
        text = registry.to_prometheus()
        assert SITE_SKEW_RATIO in text
        assert RULE_TIME_SHARE in text
        assert 'rule="tc-init"' in text


class TestDiff:
    def _dump(self, tmp_path, name, edges):
        path = tmp_path / name
        engine = tc_engine(path, edges=edges)
        try:
            engine.run()
            engine.dump_blackbox()
        finally:
            engine.close()
        return load_blackbox(str(path))

    def test_same_seed_runs_diff_clean(self, tmp_path):
        left = self._dump(tmp_path, "l.blackbox", EDGES)
        right = self._dump(tmp_path, "r.blackbox", EDGES)
        assert diff_blackbox(left, right) is None

    def test_diverging_runs_pinpoint_first_event(self, tmp_path):
        left = self._dump(tmp_path, "l.blackbox", EDGES)
        right = self._dump(tmp_path, "r.blackbox", EDGES + [("d", "e")])
        result = diff_blackbox(left, right)
        assert result is not None
        assert result.index >= 0
        assert result.left_text != result.right_text or result.left != result.right
        # Divergence is detected from deterministic fields, so the index
        # is stable run to run for the same pair of workloads.
        again = diff_blackbox(left, right)
        assert again.index == result.index

    def test_timestamps_do_not_cause_divergence(self, tmp_path):
        # Two identical runs have different wall-clock durations on every
        # phase record; the projection must ignore them.
        left = self._dump(tmp_path, "a.blackbox", EDGES)
        right = self._dump(tmp_path, "b.blackbox", EDGES)
        lphase = [r for r in left.main.records if r["kind"] == EV_PHASE]
        rphase = [r for r in right.main.records if r["kind"] == EV_PHASE]
        assert lphase and rphase
        assert diff_blackbox(left, right) is None
