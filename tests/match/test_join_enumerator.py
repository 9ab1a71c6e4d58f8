"""Direct unit tests for the seedable join enumerator (repro.match.join) —
the shared semantic core under the naive and TREAT engines."""

import random
from collections import Counter

import pytest

from repro.lang.parser import parse_program
from repro.match import treat
from repro.match.alphaindex import AlphaCache
from repro.match.compile import alpha_test_passes, compile_rule
from repro.match.join import enumerate_matches, join_tests_pass
from repro.match.naive import NaiveMatcher
from repro.match.stats import MatchStats
from repro.wm.memory import WorkingMemory

RULE = compile_rule(
    parse_program("(p r (a ^k <k>) (b ^k <k> ^v <v>) -(c ^k <k>) --> (halt))").rules[0]
)


@pytest.fixture
def wm():
    wm = WorkingMemory()
    wm.make("a", k=1)
    wm.make("a", k=2)
    wm.make("b", k=1, v="x")
    wm.make("b", k=2, v="y")
    wm.make("b", k=2, v="z")
    return wm


class TestFullEnumeration:
    def test_all_matches(self, wm):
        insts = list(enumerate_matches(RULE, wm))
        assert len(insts) == 3
        envs = sorted((i.env["k"], i.env["v"]) for i in insts)
        assert envs == [(1, "x"), (2, "y"), (2, "z")]

    def test_negation_respected(self, wm):
        wm.make("c", k=2)
        insts = list(enumerate_matches(RULE, wm))
        assert sorted(i.env["k"] for i in insts) == [1]

    def test_wme_tuple_alignment(self, wm):
        inst = next(enumerate_matches(RULE, wm))
        assert inst.wmes[0].class_name == "a"
        assert inst.wmes[1].class_name == "b"
        assert inst.wmes[2] is None  # negated slot

    def test_stats_counted(self, wm):
        stats = MatchStats()
        list(enumerate_matches(RULE, wm, stats))
        assert stats.totals["instantiations"] == 3
        assert stats.totals["join_probes"] > 0
        assert stats.per_rule["r"]["tokens"] > 0


class TestFixedSeeding:
    def test_pinned_positive_ce(self, wm):
        target = wm.find("a", k=2)[0]
        insts = list(enumerate_matches(RULE, wm, fixed=(0, (target,))))
        assert len(insts) == 2
        assert all(i.wmes[0] == target for i in insts)

    def test_pinned_wme_must_pass_alpha(self, wm):
        wrong_class = wm.find("b", k=1)[0]
        assert list(enumerate_matches(RULE, wm, fixed=(0, (wrong_class,)))) == []

    def test_pinned_second_ce(self, wm):
        target = wm.find("b", v="y")[0]
        insts = list(enumerate_matches(RULE, wm, fixed=(1, (target,))))
        assert len(insts) == 1
        assert insts[0].env == {"k": 2, "v": "y"}


class TestSeedEnv:
    def test_seed_constrains_bindings(self, wm):
        insts = list(enumerate_matches(RULE, wm, seed_env={"k": 2}))
        assert sorted(i.env["v"] for i in insts) == ["y", "z"]

    def test_seed_with_impossible_value(self, wm):
        assert list(enumerate_matches(RULE, wm, seed_env={"k": 99})) == []

    def test_seed_env_is_not_mutated(self, wm):
        seed = {"k": 1}
        list(enumerate_matches(RULE, wm, seed_env=seed))
        assert seed == {"k": 1}


class TestJoinTests:
    def test_join_tests_pass_helper(self, wm):
        ce = RULE.ces[1]  # (b ^k <k> ^v <v>) — join test on k
        b1 = wm.find("b", k=1)[0]
        assert join_tests_pass(ce, b1, {"k": 1})
        assert not join_tests_pass(ce, b1, {"k": 2})


# ---------------------------------------------------------------------------
# Late-pinned batches: the pinned CE carries a predicate on a variable a
# later CE binds, so its seeded plan cannot visit it first (sort's ``swap``).
# ---------------------------------------------------------------------------

LATE = parse_program(
    """
    (p swap
        (a ^k <k> ^v <x>)
        (b ^k <k> ^v {<y> < <x>})
        --> (halt))
    (p swap-guarded
        (a ^k <k> ^v <x>)
        (c ^k <k> ^w <w>)
        (b ^k <k> ^w <w> ^v {<y> >= <x>})
        -(d ^k <k> ^v > <y>)
        --> (halt))
    (p no-equality
        (a ^v <x>)
        (b ^v {<y> < <x>})
        --> (halt))
    """
).rules

#: ``1``, ``1.0`` and ``True`` are one join key; ``None`` leaves the
#: attribute absent, which reads as the symbol ``nil``.
KEYS = [1, 1.0, True, 2, "s", "nil", None]


def _make(wm, rng, class_name):
    attrs = {"k": rng.choice(KEYS), "w": rng.choice(KEYS), "v": rng.randint(0, 6)}
    return wm.make(class_name, {a: v for a, v in attrs.items() if v is not None})


def _recount(compiled, wm, pinned_index, batch):
    """Counters of ``enumerate_matches(fixed=(pinned_index, batch))`` made
    one candidate at a time: filter instead of hash, ``+= 1`` per visit."""
    plan = compiled.seeded_plan(pinned_index) or compiled.plan
    counts = Counter()
    partials = [{}]
    for ce in plan.ces if plan is not None else compiled.ces:
        if not partials:
            break
        source = batch if ce.index == pinned_index else wm.by_class(ce.class_name)
        pool = [
            w
            for w in source
            if w.class_name == ce.class_name
            and alpha_test_passes(ce.alpha_conds, w)
            and (ce.index != pinned_index or alpha_test_passes(ce.local_conds, w))
        ]
        bound = partials[0]
        keyed = [(a, v) for a, op, v in ce.join_tests if op == "=" and v in bound]
        visit = "join_checks" if ce.negated else "join_probes"
        survivors = []
        for env in partials:
            candidates = pool
            if keyed:
                counts["hash_probes"] += 1
                candidates = [
                    w for w in pool if all(w.get(a) == env[v] for a, v in keyed)
                ]
                counts["bucket_hits"] += len(candidates)
            blocked = False
            for w in candidates:
                counts[visit] += 1
                if not join_tests_pass(ce, w, env) or not alpha_test_passes(
                    ce.local_conds, w
                ):
                    continue
                if ce.negated:
                    blocked = True
                    break
                counts["tokens"] += 1
                survivors.append({**env, **{v: w.get(a) for a, v in ce.bindings}})
            if ce.negated and not blocked:
                survivors.append(env)
        partials = survivors
    counts["instantiations"] = len(partials)
    return +counts  # drop zeros: a counter never bumped is absent


class TestLatePinnedBatch:
    def test_the_pinned_ce_is_reached_late(self):
        for rule in LATE:
            compiled = compile_rule(rule)
            b = next(ce.index for ce in compiled.ces if ce.class_name == "b")
            order = compiled.seeded_plan(b)
            assert (order.order if order else (0, 1)).index(b) > 0

    @pytest.mark.parametrize("seed", range(25))
    def test_counters_equal_a_per_candidate_recount(self, seed):
        rng = random.Random(seed)
        wm = WorkingMemory()
        for class_name in "acd":
            for _ in range(rng.randint(0, 8)):
                _make(wm, rng, class_name)
        batch = [_make(wm, rng, "b") for _ in range(rng.randint(1, 40))]
        for victim in rng.sample(wm.snapshot(), rng.randint(0, 6)):
            wm.remove(victim)
        batch = tuple(w for w in batch if w in wm)
        for rule in LATE:
            compiled = compile_rule(rule)
            pinned = next(ce.index for ce in compiled.ces if ce.class_name == "b")
            stats = MatchStats()
            got = list(
                enumerate_matches(
                    compiled, wm, stats, fixed=(pinned, batch),
                    alpha_source=AlphaCache(wm),
                )
            )
            want = list(
                enumerate_matches(compiled, wm, fixed=(pinned, batch), indexed=False)
            )
            assert [i.key for i in got] == [i.key for i in want], (seed, rule.name)
            recount = _recount(compiled, wm, pinned, batch)
            assert stats.totals == recount, (seed, rule.name)
            assert stats.per_rule == ({rule.name: recount} if recount else {})

    @pytest.mark.parametrize("seed", range(12))
    def test_treat_order_survives_churn(self, seed, monkeypatch):
        # A small chunk puts batch sizes 1..2*BATCH_CHUNK on both sides of
        # the chunk boundary without thousand-WME batches.
        monkeypatch.setattr(treat, "BATCH_CHUNK", 6)
        rng = random.Random(100 + seed)
        wm = WorkingMemory()
        indexed = treat.TreatMatcher(LATE, wm)
        nested = treat.TreatMatcher(LATE, wm, indexed=False)
        naive = NaiveMatcher(LATE, wm)
        live = []
        for _round in range(8):
            for class_name in "acd":
                live += [_make(wm, rng, class_name) for _ in range(rng.randint(0, 2))]
            live += [
                _make(wm, rng, "b")
                for _ in range(rng.randint(1, 2 * treat.BATCH_CHUNK))
            ]
            for victim in rng.sample(live, rng.randint(0, min(4, len(live)))):
                live.remove(victim)
                wm.remove(victim)
            order = [i.key for i in indexed.instantiations()]
            assert order == [i.key for i in nested.instantiations()], seed
            assert sorted(order) == sorted(i.key for i in naive.instantiations())
