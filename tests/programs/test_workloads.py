"""Unit tests for the remaining workload generators (waltz, manners, sort,
sieve, monkey, synthetic)."""

import pytest

from repro.core import EngineConfig, ParulelEngine
from repro.lab.rete import create_lab_matcher
from repro.programs.manners import build_manners
from repro.programs.monkey import build_monkey
from repro.programs.sieve import build_sieve, primes_below
from repro.programs.sort import build_sort, build_sort_meta
from repro.programs.synthetic import build_churn_workload, build_join_workload
from repro.programs.waltz import LDICT, build_waltz


def run(wl, max_cycles=5000, **cfg):
    engine = ParulelEngine(wl.program, EngineConfig(**cfg))
    wl.setup(engine)
    result = engine.run(max_cycles=max_cycles)
    return engine, result


class TestWaltz:
    def test_dictionary_is_functional(self):
        # Unique v-out per (type, v-in): propagation is deterministic.
        assert len(LDICT) == len({k for k in LDICT})

    def test_cycles_track_chain_length_not_drawings(self):
        _e1, r1 = run(build_waltz(n_drawings=2, chain_length=8))
        _e2, r2 = run(build_waltz(n_drawings=8, chain_length=8))
        assert r1.cycles == r2.cycles == 8

    def test_firings_scale_with_drawings(self):
        _e, r = run(build_waltz(n_drawings=5, chain_length=6))
        assert r.firings == 5 * 6

    def test_verify_rejects_tampered_labels(self):
        wl = build_waltz(n_drawings=1, chain_length=3)
        engine, _ = run(wl)
        # Corrupt one label.
        victim = engine.wm.by_class("labeled")[1]
        engine.wm.remove(victim)
        engine.wm.make(
            "labeled", line=victim.get("line"), value="bogus"
        )
        assert "labels-match-dictionary" in wl.failed_checks(engine.wm)


class TestManners:
    def test_odd_guest_count_rejected(self):
        with pytest.raises(ValueError):
            build_manners(n_guests=7)

    def test_seating_valid_small(self):
        wl = build_manners(n_guests=6)
        engine, _ = run(wl)
        assert wl.failed_checks(engine.wm) == []

    def test_redactions_happen(self):
        wl = build_manners(n_guests=8)
        _engine, result = run(wl)
        assert sum(r.redaction.redacted for r in result.reports) > 0

    def test_every_guest_seated_exactly_once(self):
        wl = build_manners(n_guests=10)
        engine, _ = run(wl)
        occupants = [w.get("occupant") for w in engine.wm.by_class("seat")]
        assert sorted(occupants) == sorted({w.get("name") for w in engine.wm.by_class("guest")})


class TestSort:
    def test_sorted_result(self):
        wl = build_sort(n_items=10)
        engine, _ = run(wl)
        assert wl.failed_checks(engine.wm) == []

    def test_parallel_swaps_per_cycle(self):
        _e, result = run(build_sort(n_items=16))
        # At least one cycle must fire several swaps simultaneously.
        assert max(r.fired for r in result.reports) >= 3

    def test_meta_variant_sorted(self):
        wl = build_sort_meta(n_items=9)
        engine, result = run(wl)
        assert wl.failed_checks(engine.wm) == []
        # The meta rule must actually have redacted overlapping swaps.
        assert sum(r.redaction.redacted for r in result.reports) > 0

    def test_reverse_order_worst_case(self):
        wl = build_sort(n_items=8, seed=1)
        # Force worst case by overriding setup values directly.
        engine = ParulelEngine(wl.program)
        engine.make("phase", parity="even", round=0)
        for i in range(7):
            engine.make(
                "pair", left=i, right=i + 1, parity="even" if i % 2 == 0 else "odd"
            )
        for i, val in enumerate(reversed(range(8))):
            engine.make("item", pos=i, val=val)
        engine.run(max_cycles=100)
        vals = [
            w.get("val")
            for w in sorted(engine.wm.by_class("item"), key=lambda w: w.get("pos"))
        ]
        assert vals == list(range(8))


class TestSieve:
    def test_primes_below_reference(self):
        assert primes_below(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert primes_below(2) == [2]
        assert primes_below(1) == []

    @pytest.mark.parametrize("limit", [10, 31, 60])
    def test_sieve_exact(self, limit):
        wl = build_sieve(limit=limit)
        engine, _ = run(wl)
        assert wl.failed_checks(engine.wm) == []

    def test_markers_run_concurrently(self):
        _e, result = run(build_sieve(limit=60))
        # Multiple markers plus the cursor active in one cycle.
        assert max(r.fired for r in result.reports) >= 3


class TestMonkey:
    def test_plan_executes(self):
        wl = build_monkey()
        engine, result = run(wl)
        assert wl.failed_checks(engine.wm) == []
        assert result.reason == "halt"
        assert result.cycles == 4

    def test_narration_written(self):
        wl = build_monkey()
        _engine, result = run(wl)
        assert any("grabs the bananas" in line for line in result.output)


class TestSynthetic:
    def test_join_workload_output_size(self):
        jw = build_join_workload(n_rules=2, n_keys=4, seed=1)
        wm = jw.fresh_wm()
        matcher = create_lab_matcher("rete", jw.program.rules, wm)
        jw.load(wm, 20)
        insts = matcher.instantiations()
        assert len(insts) > 0
        # every instantiation joins matching keys
        for inst in insts:
            assert inst.wmes[0].get("key") == inst.wmes[1].get("key")

    def test_churn_workload_roundtrip(self):
        cw = build_churn_workload(chain_length=3, n_entities=5)
        wm = cw.fresh_wm()
        matcher = create_lab_matcher("rete", cw.program.rules, wm)
        block = cw.load(wm)
        before = len(matcher.instantiations())
        assert before == 5  # one chain instantiation per entity
        block = cw.churn(wm, block, step=1)
        assert len(matcher.instantiations()) == 5
        assert len(block) == 5

    def test_churn_preserves_wm_size(self):
        cw = build_churn_workload(chain_length=2, n_entities=4)
        wm = cw.fresh_wm()
        block = cw.load(wm)
        n = len(wm)
        cw.churn(wm, block, step=3)
        assert len(wm) == n
