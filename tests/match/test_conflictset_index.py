"""ConflictSet secondary indexes: remove_with_wme / of_rule stay exactly
equivalent to brute-force scans of the retained set, in insertion order."""

import random

import pytest

from repro.lang.builder import ProgramBuilder, v
from repro.match.instantiation import ConflictSet, Instantiation
from repro.wm.wme import WME


def _rules(n):
    pb = ProgramBuilder()
    for i in range(n):
        pb.rule(f"r{i}").ce("a", k=v("x")).ce("b", k=v("x")).halt()
    return pb.build(analyze=False).rules


def _inst(rule, wme_a, wme_b):
    return Instantiation(rule, (wme_a, wme_b), {"x": wme_a.get("k")})


class TestConflictSetIndexes:
    def _populate(self, rng, n_rules=3, n_wmes=8, n_insts=40):
        rules = _rules(n_rules)
        wmes_a = [WME("a", {"k": i % 3}, i + 1) for i in range(n_wmes)]
        wmes_b = [WME("b", {"k": i % 3}, n_wmes + i + 1) for i in range(n_wmes)]
        cs = ConflictSet()
        for _ in range(n_insts):
            cs.add(_inst(rng.choice(rules), rng.choice(wmes_a), rng.choice(wmes_b)))
        return cs, rules, wmes_a + wmes_b

    def test_remove_with_wme_matches_brute_force(self):
        rng = random.Random(7)
        for trial in range(20):
            cs, _rules_, wmes = self._populate(rng)
            victim = rng.choice(wmes)
            expected = [i for i in cs.instantiations() if i.uses(victim)]
            survivors = [i for i in cs.instantiations() if not i.uses(victim)]
            removed = cs.remove_with_wme(victim)
            assert [i.key for i in removed] == [i.key for i in expected]
            assert [i.key for i in cs.instantiations()] == [
                i.key for i in survivors
            ]

    def test_of_rule_matches_brute_force(self):
        rng = random.Random(11)
        cs, rules, _wmes = self._populate(rng)
        for rule in rules:
            expected = [i for i in cs.instantiations() if i.rule.name == rule.name]
            assert [i.key for i in cs.of_rule(rule.name)] == [
                i.key for i in expected
            ]
        assert cs.of_rule("no-such-rule") == []

    def test_indexes_survive_churn(self):
        """Random add/remove/discard interleaving: indexed queries always
        agree with scans of the live set."""
        rng = random.Random(23)
        rules = _rules(2)
        wmes = [WME("a", {"k": i % 2}, i + 1) for i in range(6)] + [
            WME("b", {"k": i % 2}, i + 7) for i in range(6)
        ]
        cs = ConflictSet()
        live = []
        for step in range(200):
            op = rng.random()
            if op < 0.5 or not live:
                inst = _inst(
                    rng.choice(rules),
                    rng.choice(wmes[:6]),
                    rng.choice(wmes[6:]),
                )
                if cs.add(inst):
                    live.append(inst)
            elif op < 0.7:
                inst = live.pop(rng.randrange(len(live)))
                cs.remove(inst)
            elif op < 0.85:
                inst = rng.choice(live)
                cs.discard_key(inst.key)
                live.remove(inst)
            else:
                victim = rng.choice(wmes)
                removed = cs.remove_with_wme(victim)
                expected = [i for i in live if i.uses(victim)]
                assert [i.key for i in removed] == [i.key for i in expected]
                live = [i for i in live if not i.uses(victim)]
            # Invariants after every step.
            assert [i.key for i in cs.instantiations()] == [i.key for i in live]
            for rule in rules:
                assert [i.key for i in cs.of_rule(rule.name)] == [
                    i.key for i in live if i.rule.name == rule.name
                ]

    def test_discard_key_unknown_returns_none(self):
        cs = ConflictSet()
        assert cs.discard_key(("r0", (1, 2))) is None

    def test_clear_resets_indexes(self):
        rng = random.Random(3)
        cs, rules, wmes = self._populate(rng)
        assert len(cs) > 0
        cs.clear()
        assert len(cs) == 0
        assert cs.of_rule(rules[0].name) == []
        assert cs.remove_with_wme(wmes[0]) == []

    def test_duplicate_add_rejected_and_unindexed_once(self):
        rules = _rules(1)
        a = WME("a", {"k": 1}, 1)
        b = WME("b", {"k": 1}, 2)
        cs = ConflictSet()
        assert cs.add(_inst(rules[0], a, b))
        assert not cs.add(_inst(rules[0], a, b))
        assert len(cs.remove_with_wme(a)) == 1
        assert len(cs) == 0

    def test_negated_none_slots_are_skipped(self):
        pb = ProgramBuilder()
        pb.rule("rn").ce("a", k=v("x")).neg("b", k=v("x")).halt()
        rule = pb.build(analyze=False).rules[0]
        a = WME("a", {"k": 1}, 1)
        cs = ConflictSet()
        cs.add(Instantiation(rule, (a, None), {"x": 1}))
        assert len(cs.remove_with_wme(a)) == 1


class TestJournal:
    """The drainable add/remove journal a process worker replies with."""

    def _parts(self):
        rule = _rules(1)[0]
        a = [WME("a", {"k": 1}, i + 1) for i in range(3)]
        b = WME("b", {"k": 1}, 9)
        return rule, a, b

    def test_first_drain_covers_entries_already_retained(self):
        rule, a, b = self._parts()
        cs = ConflictSet()
        first = _inst(rule, a[0], b)
        cs.add(first)
        cs.start_journal()
        cs.add(_inst(rule, a[1], b))
        added, removed = cs.drain_journal()
        assert [i.key for i in added] == [first.key, ("r0", (2, 9))]
        assert removed == []
        assert cs.drain_journal() == ([], [])

    def test_add_then_remove_inside_a_window_cancels(self):
        rule, a, b = self._parts()
        cs = ConflictSet()
        cs.start_journal()
        inst = _inst(rule, a[0], b)
        cs.add(inst)
        cs.remove(inst)
        assert cs.drain_journal() == ([], [])

    def test_remove_then_re_add_inside_a_window_cancels(self):
        rule, a, b = self._parts()
        cs = ConflictSet()
        cs.start_journal()
        cs.add(_inst(rule, a[0], b))
        cs.drain_journal()
        cs.discard_key(("r0", (1, 9)))
        cs.add(_inst(rule, a[0], b))  # an equal, rebuilt instantiation
        assert cs.drain_journal() == ([], [])
        assert len(cs) == 1

    def test_every_removal_path_is_journalled(self):
        rule, a, b = self._parts()
        cs = ConflictSet()
        cs.start_journal()
        insts = [_inst(rule, w, b) for w in a]
        for inst in insts:
            cs.add(inst)
        cs.drain_journal()
        cs.remove(insts[0])
        cs.discard_key(insts[1].key)
        cs.remove_with_wme(a[2])
        added, removed = cs.drain_journal()
        assert added == []
        assert removed == [i.key for i in insts]

    def test_clear_journals_what_it_drops(self):
        rule, a, b = self._parts()
        cs = ConflictSet()
        cs.start_journal()
        old = _inst(rule, a[0], b)
        cs.add(old)
        cs.drain_journal()
        cs.add(_inst(rule, a[1], b))  # added in this window: cancels
        cs.clear()
        assert cs.drain_journal() == ([], [old.key])

    def test_random_windows_replay_to_the_live_set(self):
        """A mirror fed only the drained journals tracks the live set."""
        rng = random.Random(41)
        rules = _rules(2)
        wa = [WME("a", {"k": i % 2}, i + 1) for i in range(5)]
        wb = [WME("b", {"k": i % 2}, i + 6) for i in range(5)]
        cs = ConflictSet()
        cs.start_journal()
        mirror = set()
        for step in range(300):
            op = rng.random()
            if op < 0.55:
                cs.add(_inst(rng.choice(rules), rng.choice(wa), rng.choice(wb)))
            elif op < 0.8 and len(cs):
                cs.remove(rng.choice(cs.instantiations()))
            else:
                cs.remove_with_wme(rng.choice(wa + wb))
            if step % 7 == 0:
                added, removed = cs.drain_journal()
                assert not {i.key for i in added} & set(removed)
                for key in removed:
                    mirror.remove(key)  # KeyError = a removal never added
                for inst in added:
                    assert inst.key not in mirror
                    mirror.add(inst.key)
                assert mirror == {i.key for i in cs.instantiations()}


class TestEnvIndex:
    """probe_env buckets stay equivalent to filtering of_rule()."""

    def test_probe_matches_scan_under_churn(self):
        rng = random.Random(5)
        rules = _rules(2)
        wa = [WME("a", {"k": i % 3}, i + 1) for i in range(6)]
        wb = [WME("b", {"k": i % 3}, i + 7) for i in range(6)]
        cs = ConflictSet()
        cs.add(_inst(rules[0], wa[0], wb[0]))  # indexed retroactively
        cs.index_env("r0", ("x",))
        cs.index_env("r0", ("x",))  # idempotent
        for _ in range(200):
            if rng.random() < 0.6 or not len(cs):
                cs.add(_inst(rng.choice(rules), rng.choice(wa), rng.choice(wb)))
            elif rng.random() < 0.5:
                cs.remove(rng.choice(cs.instantiations()))
            else:
                cs.remove_with_wme(rng.choice(wa + wb))
            for value in range(3):
                assert [i.key for i in cs.probe_env("r0", ("x",), (value,))] == [
                    i.key for i in cs.of_rule("r0") if i.env["x"] == value
                ]
        cs.clear()
        assert cs.probe_env("r0", ("x",), (0,)) == []

    def test_equal_numbers_share_a_bucket_and_nan_is_left_to_the_caller(self):
        rule = _rules(1)[0]
        nan = float("nan")
        cs = ConflictSet()
        cs.index_env("r0", ("x",))
        for ts, value in enumerate([1, 1.0, True, nan, "1"], start=1):
            cs.add(
                Instantiation(
                    rule, (WME("a", {"k": value}, ts), WME("b", {}, 20)), {"x": value}
                )
            )
        assert len(cs.probe_env("r0", ("x",), (1.0,))) == 3
        assert len(cs.probe_env("r0", ("x",), ("1",))) == 1
        # The bucket is a superset of the == matches: the same NaN object
        # finds itself (identity), a different one finds nothing.
        assert len(cs.probe_env("r0", ("x",), (nan,))) == 1
        assert cs.probe_env("r0", ("x",), (float("nan"),)) == []


class TestConsume:
    """What fired leaves the set: in one pass when it is all of it."""

    def _indexed(self, n=6):
        rules = _rules(2)
        wa = [WME("a", {"k": i % 3}, i + 1) for i in range(n)]
        wb = [WME("b", {"k": i % 3}, i + 1 + n) for i in range(n)]
        cs = ConflictSet()
        cs.index_env("r0", ("x",))
        insts = [_inst(rules[i % 2], wa[i], wb[i]) for i in range(n)]
        for inst in insts:
            cs.add(inst)
        return cs, insts, wa + wb

    def test_the_whole_set_leaves_no_bucket_behind(self):
        cs, insts, wmes = self._indexed()
        # Build both lazy indexes first, so the clear has buckets to empty.
        assert cs.probe_env("r0", ("x",), (0,))
        assert cs.remove_with_wme(WME("a", {"k": 0}, 999)) == []
        cs.consume([i.key for i in reversed(insts)])
        assert len(cs) == 0 and cs.instantiations() == []
        for rule in ("r0", "r1"):
            assert cs.of_rule(rule) == [] and cs.count_of_rule(rule) == 0
        for value in range(3):
            assert cs.probe_env("r0", ("x",), (value,)) == []
        for wme in wmes:
            assert cs.remove_with_wme(wme) == []
        # What comes back is indexed afresh, with nothing stale beside it.
        cs.add(insts[0])
        assert cs.of_rule("r0") == [insts[0]]
        assert cs.probe_env("r0", ("x",), (insts[0].env["x"],)) == [insts[0]]
        assert cs.remove_with_wme(wmes[0]) == [insts[0]]
        assert len(cs) == 0

    def test_a_partial_consume_keeps_the_others_indexed(self):
        cs, insts, wmes = self._indexed()
        gone, kept = insts[::2], insts[1::2]
        cs.consume([i.key for i in gone] + [("r0", (99, 99))])  # absent: skipped
        assert [i.key for i in cs.instantiations()] == [i.key for i in kept]
        for rule in ("r0", "r1"):
            assert [i.key for i in cs.of_rule(rule)] == [
                i.key for i in kept if i.rule.name == rule
            ]
        for value in range(3):
            assert [i.key for i in cs.probe_env("r0", ("x",), (value,))] == [
                i.key for i in kept if i.rule.name == "r0" and i.env["x"] == value
            ]
        for wme in wmes:
            expected = [i.key for i in cs.instantiations() if i.uses(wme)]
            assert [i.key for i in cs.remove_with_wme(wme)] == expected
        assert len(cs) == 0

    def test_consumed_inside_a_journal_window_cancels_the_add(self):
        for whole in (True, False):
            cs, insts, _wmes = self._indexed()
            cs.start_journal()
            cs.drain_journal()
            rule = insts[0].rule
            fresh = _inst(rule, WME("a", {"k": 0}, 50), WME("b", {"k": 0}, 51))
            cs.add(fresh)
            fired = insts + [fresh] if whole else [insts[0], fresh]
            cs.consume([i.key for i in fired])
            added, removed = cs.drain_journal()
            assert added == []
            assert removed == [i.key for i in fired if i is not fresh]


class EagerReference:
    """What the conflict set answers, computed by scanning an ordered list:
    the by-WME and environment lookups as if every index were kept from
    the first add."""

    def __init__(self):
        self.entries = {}

    def add(self, inst):
        if inst.key in self.entries:
            return False
        self.entries[inst.key] = inst
        return True

    def consume(self, keys):
        for key in keys:
            self.entries.pop(key, None)

    def remove_with_wme(self, wme):
        victims = [i for i in self.entries.values() if i.uses(wme)]
        self.consume([i.key for i in victims])
        return victims

    def probe_env(self, rule, variables, values):
        return [
            i for i in self.entries.values()
            if i.rule.name == rule
            and tuple(i.env[var] for var in variables) == values
        ]


class TestLazyIndexes:
    """The by-WME and environment indexes are built at their first read
    and kept from then on; answers never depend on when that was."""

    def test_a_random_sequence_matches_the_eager_reference(self):
        for seed in range(30):
            rng = random.Random(4100 + seed)
            rules = _rules(3)
            wa = [WME("a", {"k": i % 3}, i + 1) for i in range(6)]
            wb = [WME("b", {"k": i % 3}, i + 7) for i in range(6)]
            cs, ref = ConflictSet(), EagerReference()
            cs.index_env("r0", ("x",))
            cs.index_env("r2", ("x",))
            for step in range(120):
                op = rng.choice(["add"] * 4 + ["consume", "wme", "probe"])
                where = (seed, step, op)
                if op == "add":
                    inst = _inst(rng.choice(rules), rng.choice(wa), rng.choice(wb))
                    assert cs.add(inst) == ref.add(inst), where
                elif op == "consume":
                    live = list(ref.entries)
                    keys = rng.sample(live, rng.randint(0, len(live)))
                    cs.consume(keys)
                    ref.consume(keys)
                elif op == "wme":
                    wme = rng.choice(wa + wb)
                    got = cs.remove_with_wme(wme)
                    assert got == ref.remove_with_wme(wme), where
                else:
                    rule = rng.choice(["r0", "r2"])
                    values = (rng.randrange(3),)
                    got = cs.probe_env(rule, ("x",), values)
                    assert got == ref.probe_env(rule, ("x",), values), where
                assert cs.instantiations() == list(ref.entries.values()), where

    def test_an_undeclared_environment_index_is_refused(self):
        cs = ConflictSet()
        cs.add(_inst(_rules(1)[0], WME("a", {"k": 1}, 1), WME("b", {"k": 1}, 2)))
        with pytest.raises(KeyError):
            cs.probe_env("r0", ("x",), (1,))

    def test_a_tc_run_builds_neither_index(self):
        """On tc every entry leaves by firing: no WME it matched is ever
        retracted and no blocking WME meets a retained entry, so neither
        lazy index is ever read — nor built."""
        from repro.core import ParulelEngine
        from repro.programs import REGISTRY

        wl = REGISTRY["tc"]()
        engine = ParulelEngine(wl.program)
        wl.setup(engine)
        result = engine.run()
        assert wl.verify_ok(engine.wm) and result.firings > 0
        cs = engine.matcher.conflict_set
        assert cs._env_declared  # tc's negated CEs declare one each
        assert cs._by_wme is None and cs._env_indexes == {}
