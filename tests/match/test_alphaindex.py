"""Unit tests for the indexed alpha-memory layer."""

import pytest

from repro.lang.builder import ProgramBuilder, v
from repro.match.alphaindex import AlphaCache, IndexedMemory
from repro.match.compile import compile_rule
from repro.match.stats import MatchStats
from repro.wm.memory import WorkingMemory
from repro.wm.wme import WME


def _wmes(*attrs_list):
    return [
        WME("item", attrs, ts + 1) for ts, attrs in enumerate(attrs_list)
    ]


class TestIndexedMemory:
    def test_insertion_order_preserved(self):
        mem = IndexedMemory()
        wmes = _wmes({"k": 1}, {"k": 2}, {"k": 1})
        for w in wmes:
            mem.add(w)
        assert list(mem) == wmes
        assert len(mem) == 3

    def test_probe_returns_ordered_bucket(self):
        mem = IndexedMemory()
        wmes = _wmes({"k": 1, "m": 0}, {"k": 2, "m": 0}, {"k": 1, "m": 1})
        for w in wmes:
            mem.add(w)
        bucket = mem.probe(("k",), (1,))
        assert list(bucket) == [wmes[0], wmes[2]]
        assert mem.probe(("k",), (9,)) == ()

    def test_probe_compound_key(self):
        mem = IndexedMemory()
        wmes = _wmes({"k": 1, "m": 0}, {"k": 1, "m": 1}, {"k": 1, "m": 0})
        for w in wmes:
            mem.add(w)
        assert list(mem.probe(("k", "m"), (1, 0))) == [wmes[0], wmes[2]]

    def test_index_maintained_after_build(self):
        mem = IndexedMemory()
        first, second, third = _wmes({"k": 1}, {"k": 1}, {"k": 1})
        mem.add(first)
        assert list(mem.probe(("k",), (1,))) == [first]  # builds the index
        mem.add(second)
        mem.add(third)
        assert mem.remove(second)
        assert list(mem.probe(("k",), (1,))) == [first, third]
        assert mem.index_count == 1

    def test_remove_unknown_is_noop(self):
        mem = IndexedMemory()
        (only,) = _wmes({"k": 1})
        assert not mem.remove(only)
        mem.add(only)
        assert only in mem
        assert mem.remove(only)
        assert only not in mem
        assert mem.probe(("k",), (1,)) == ()


def _one_ce_rule():
    pb = ProgramBuilder()
    pb.rule("r").ce("item", k=v("x")).halt()
    return compile_rule(pb.build(analyze=False).rules[0], plan=False)


class TestAlphaCache:
    def test_lazy_prime_in_timestamp_order(self):
        wm = WorkingMemory()
        wmes = [wm.make("item", {"k": i % 2}) for i in range(4)]
        cache = AlphaCache(wm)
        ce = _one_ce_rule().ces[0]
        mem = cache.memory(ce)
        assert list(mem) == wmes
        assert cache.memory(ce) is mem  # cached, not re-primed

    def test_listener_keeps_memory_current(self):
        wm = WorkingMemory()
        cache = AlphaCache(wm)
        ce = _one_ce_rule().ces[0]
        mem = cache.memory(ce)
        assert len(mem) == 0
        a = wm.make("item", {"k": 1})
        b = wm.make("item", {"k": 2})
        cache.attach()
        # Pre-attach WMEs were primed lazily? No — memory was primed while
        # empty, and apply() only runs once attached: feed them explicitly.
        cache.apply(a, True)
        cache.apply(b, True)
        c = wm.make("item", {"k": 3})  # via listener
        assert list(mem) == [a, b, c]
        wm.remove(b)
        assert list(mem) == [a, c]
        cache.detach()
        wm.make("item", {"k": 4})
        assert len(mem) == 2  # detached: no longer maintained

    def test_unprimed_classes_ignored_by_apply(self):
        wm = WorkingMemory()
        cache = AlphaCache(wm)
        other = wm.make("other", {"k": 1})
        cache.apply(other, True)  # no primed memory for 'other': no-op
        ce = _one_ce_rule().ces[0]
        assert len(cache.memory(ce)) == 0

    def test_alpha_tests_counted_globally_only(self):
        wm = WorkingMemory()
        for i in range(3):
            wm.make("item", {"k": i})
        stats = MatchStats()
        cache = AlphaCache(wm, stats)
        cache.memory(_one_ce_rule().ces[0])
        assert stats.totals["alpha_tests"] == 3
        assert all(
            bucket.get("alpha_tests", 0) == 0
            for bucket in stats.per_rule.values()
        )
