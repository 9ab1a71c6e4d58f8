"""Randomized differential tests for the hash-indexed join kernel.

Seeded ``random.Random`` program generation (modeled on the hypothesis
strategies in ``test_differential.py``, but with a fixed example count so the
coverage floor is explicit): across ≥50 random programs with churn-heavy
add/remove scripts, the indexed path must produce the *identical ordered*
conflict set as the ``indexed=False`` nested-loop path for the incremental
matchers, and the identical set as RETE. A second class checks whole-run
equivalence at the engine level: final working memory is byte-identical
with and without indexing. A third holds the kernel's existence mode to the
projection of the full enumeration, over the same generated programs.
"""

import random

import pytest

from repro.core import EngineConfig, ParulelEngine
from repro.lab.rete import create_lab_matcher
from repro.lang.builder import ProgramBuilder, conj, gt, lt, ne, v
from repro.match.alphaindex import AlphaCache
from repro.match.compile import compile_rule
from repro.match.instantiation import ConflictSet
from repro.match.interface import create_matcher
from repro.match.join import enumerate_matches, project_matches
from repro.match.naive import NaiveMatcher
from repro.match.stats import MatchStats
from repro.match.treat import TreatMatcher
from repro.programs import REGISTRY
from repro.wm.memory import WorkingMemory

from tests.nested_loop import SERIAL_MATCHERS, nested_loop_engine

CLASSES = ["a", "b", "c"]
ATTRS = ["k", "m"]
VALUES = [0, 1, 2]

N_PROGRAMS = 60  # ≥50 seeds: the coverage floor promised in the PR


def _random_program(rng, values=VALUES):
    """1-3 rules, 1-3 CEs each: joins, constants, predicates, negation."""
    pb = ProgramBuilder()
    for r in range(rng.randint(1, 3)):
        rb = pb.rule(f"r{r}")
        bound = []
        for i in range(rng.randint(1, 3)):
            cls = rng.choice(CLASSES)
            negated = bool(i > 0 and bound and rng.random() < 0.3)
            tests = {}
            for attr in ATTRS:
                choice = rng.randint(0, 4)
                if choice == 0:
                    continue
                if choice == 1:
                    tests[attr] = rng.choice(values)
                elif choice == 2 and bound:
                    tests[attr] = v(rng.choice(bound))
                elif choice == 3 and bound:
                    tests[attr] = rng.choice([ne, lt, gt])(v(rng.choice(bound)))
                elif not negated:
                    var = f"v{r}_{i}_{attr}"
                    if rng.random() < 0.5:
                        tests[attr] = v(var)
                    else:
                        tests[attr] = conj(v(var), gt(-1))
                    bound.append(var)
                else:
                    tests[attr] = rng.choice(values)
            if negated and not tests:
                tests["k"] = rng.choice(values)
            if negated:
                rb.neg(cls, **tests)
            else:
                rb.ce(cls, **tests)
        rb.halt()
    return pb.build(analyze=False)


def _random_script(rng, n_steps=30, values=VALUES):
    """Churn-heavy: removals as likely as additions once memory is warm."""
    return [
        ("add", rng.choice(CLASSES), rng.choice(values), rng.choice(values))
        if rng.random() < 0.55
        else ("remove", rng.randrange(10_000))
        for _ in range(n_steps)
    ]


def _ordered_keys(matcher):
    return [i.key for i in matcher.instantiations()]


class TestIndexedVersusNestedLoop:
    @pytest.mark.parametrize("seed", range(N_PROGRAMS))
    def test_identical_ordered_conflict_sets(self, seed):
        rng = random.Random(1000 + seed)
        program = _random_program(rng)
        script = _random_script(rng)
        wm = WorkingMemory()
        pairs = {
            name: (
                create_lab_matcher(name, program.rules, wm),
                SERIAL_MATCHERS[name](program.rules, wm, indexed=False),
            )
            for name in ("treat", "naive")
        }
        rete = create_lab_matcher("rete", program.rules, wm)
        live = []
        for step in script:
            if step[0] == "add":
                _tag, cls, k, mval = step
                live.append(wm.make(cls, k=k, m=mval))
            else:
                if not live:
                    continue
                wm.remove(live.pop(step[1] % len(live)))
            rete_image = sorted(_ordered_keys(rete))
            for name, (indexed, noindex) in pairs.items():
                got = _ordered_keys(indexed)
                want = _ordered_keys(noindex)
                assert got == want, (
                    f"seed {seed}, {name}: indexed order diverges from "
                    f"nested-loop after {step}:\n{got}\n!=\n{want}"
                )
                assert sorted(got) == rete_image, (
                    f"seed {seed}, {name}: diverges from rete after {step}"
                )


#: Value pool for the batched-TREAT axis: 1, 1.0 and True are one hash
#: key and one ``==`` class, "1" is neither, and every NaN drawn is a fresh
#: object equal to nothing (itself included).
MIXED_VALUES = [1, 1.0, True, 0, 2, "1", "s", "nan"]

#: Negated-CE shapes over the dedicated class ``n`` (so no WME can both
#: bind a variable and block on it): equality keys on one or two
#: variables, an equality key with a residual test, and two with no
#: equality at all — the scan fallback.
NEGATION_SHAPES = [
    lambda x, y: {"k": v(x)},
    lambda x, y: {"k": v(x), "m": v(y)},
    lambda x, y: {"k": v(x), "m": ne(v(y))},
    lambda x, y: {"k": ne(v(x))},
    lambda x, y: {"m": gt(v(y))},
]


def _mixed(rng):
    value = rng.choice(MIXED_VALUES)
    return float("nan") if value == "nan" else value


def _negation_program(rng):
    """1-3 rules: one or two positive CEs over distinct classes binding
    <x>/<y>, then one or two negated CEs drawn from NEGATION_SHAPES."""
    pb = ProgramBuilder()
    for r in range(rng.randint(1, 3)):
        rb = pb.rule(f"r{r}")
        if rng.random() < 0.5:
            rb.ce(rng.choice(["a", "b"]), k=v("x"), m=v("y"))
        else:
            first, second = rng.sample(["a", "b"], 2)
            rb.ce(first, k=v("x"))
            rb.ce(second, k=v("x"), m=v("y"))
        for shape in rng.sample(NEGATION_SHAPES, rng.randint(1, 2)):
            rb.neg("n", **shape("x", "y"))
        rb.halt()
    return pb.build(analyze=False)


class TestBatchedTreatVersusNaive:
    """Set-oriented TREAT against the recompute-everything oracle.

    Each step is a *cycle*: several adds, removes and modifies (remove +
    add of the same class) land before the conflict set is read, so
    TREAT's joins run batched and its negated-CE invalidation goes
    through the environment index. After every cycle the indexed matcher
    must list the same instantiations in the same order as the
    ``indexed=False`` one (which scans instead of probing), and the same
    set as the nested-loop naive matcher."""

    @pytest.mark.parametrize("seed", range(N_PROGRAMS))
    def test_batched_cycles_agree(self, seed):
        rng = random.Random(4000 + seed)
        program = _negation_program(rng)
        wm = WorkingMemory()
        for _ in range(rng.randint(0, 6)):  # attach to a populated memory
            wm.make(rng.choice(["a", "b", "n"]), k=_mixed(rng), m=_mixed(rng))
        treat = create_matcher("treat", program.rules, wm)
        scan = TreatMatcher(program.rules, wm, indexed=False)
        naive = NaiveMatcher(program.rules, wm, indexed=False)
        live = list(wm)
        for cycle in range(12):
            for _ in range(rng.randint(1, 6)):
                op = rng.random()
                if op < 0.5 or not live:
                    cls = rng.choice(["a", "b", "n", "n"])
                    live.append(wm.make(cls, k=_mixed(rng), m=_mixed(rng)))
                elif op < 0.75:
                    wm.remove(live.pop(rng.randrange(len(live))))
                else:
                    old = live.pop(rng.randrange(len(live)))
                    wm.remove(old)
                    attrs = dict(old.attributes)
                    attrs[rng.choice(["k", "m"])] = _mixed(rng)
                    live.append(wm.make(old.class_name, attrs))
            got = _ordered_keys(treat)
            assert got == _ordered_keys(scan), (
                f"seed {seed}, cycle {cycle}: indexed invalidation diverges "
                f"from the of_rule() scan"
            )
            assert sorted(got) == sorted(_ordered_keys(naive)), (
                f"seed {seed}, cycle {cycle}: batched TREAT diverges from naive"
            )


#: How TREAT's negated-CE invalidation may be made to walk: from each new
#: WME (the retained set looks huge) or from each retained instantiation
#: (it looks like one) — by what ``count_of_rule`` reports. An empty rule
#: still reads as empty: that is the walk's early exit, not a direction.
WALKS = {
    "from-wmes": lambda n: 10**9 if n else 0,
    "from-instantiations": lambda n: min(n, 1),
}


def _walk_forced(monkeypatch, walk):
    real = ConflictSet.count_of_rule
    monkeypatch.setattr(
        ConflictSet, "count_of_rule", lambda cs, rule: WALKS[walk](real(cs, rule))
    )


class TestInvalidationWalks:
    """The retracting walk starts from the smaller side, and both sides
    check the same (WME, instantiation) pairs in the same order: forcing
    either direction leaves the conflict set, its order and every
    counter exactly as the size-chosen walk has them."""

    @pytest.mark.parametrize("seed", range(0, N_PROGRAMS, 2))
    def test_forced_walks_agree_on_generated_cycles(self, seed, monkeypatch):
        def run():
            rng = random.Random(4000 + seed)
            program = _negation_program(rng)
            wm = WorkingMemory()
            treat = create_matcher("treat", program.rules, wm)
            live, images = [], []
            for _cycle in range(12):
                for _ in range(rng.randint(1, 8)):
                    if rng.random() < 0.6 or not live:
                        cls = rng.choice(["a", "b", "n", "n"])
                        live.append(wm.make(cls, k=_mixed(rng), m=_mixed(rng)))
                    else:
                        wm.remove(live.pop(rng.randrange(len(live))))
                images.append(_ordered_keys(treat))
            return images, treat.stats.snapshot()

        chosen = run()
        for walk in WALKS:
            with monkeypatch.context() as m:
                _walk_forced(m, walk)
                assert run() == chosen, walk

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_forced_walks_agree_on_the_workloads(self, name, monkeypatch):
        def run():
            wl = REGISTRY[name]()
            engine = ParulelEngine(wl.program, EngineConfig(matcher="treat"))
            wl.setup(engine)
            result = engine.run(max_cycles=5000)
            return result.cycles, result.firings, engine.matcher.stats.snapshot()

        chosen = run()
        for walk in WALKS:
            with monkeypatch.context() as m:
                _walk_forced(m, walk)
                assert run() == chosen, walk


class TestExistenceMode:
    """``project_matches`` on CE ``c`` ≡ the distinct ``inst.wmes[c]`` of
    ``enumerate_matches``, in timestamp order — for every rule and every
    positive CE of both generators' programs, probing and scanning."""

    def test_projection_of_the_full_enumeration(self):
        multi_ce = negated = nonempty = proper_subset = 0
        for seed in range(N_PROGRAMS):
            rng = random.Random(7000 + seed)
            for program, classes, draw in (
                (_random_program(rng), CLASSES, lambda: rng.choice(VALUES)),
                (_negation_program(rng), ["a", "b", "n"], lambda: _mixed(rng)),
            ):
                wm = WorkingMemory()
                for _ in range(rng.randint(4, 14)):
                    wm.make(rng.choice(classes), k=draw(), m=draw())
                cache = AlphaCache(wm)
                for rule in program.rules:
                    compiled = compile_rule(rule)
                    for indexed in (True, False):
                        full = list(
                            enumerate_matches(
                                compiled, wm, alpha_source=cache, indexed=indexed
                            )
                        )
                        for ce in compiled.positive_ces:
                            want = sorted(
                                {inst.wmes[ce.index] for inst in full},
                                key=lambda w: w.timestamp,
                            )
                            stats = MatchStats()
                            got = project_matches(
                                compiled, wm, ce.index, stats,
                                alpha_source=cache, indexed=indexed,
                            )
                            assert got == want, (seed, rule.name, ce.index, indexed)
                            assert stats.totals["instantiations"] == len(want)
                            assert stats.per_rule == (
                                {rule.name: stats.totals} if stats.totals else {}
                            )
                            # Witnesses known beforehand are neither
                            # returned nor forgotten.
                            known = {w.timestamp for w in want[::2]}
                            rest = project_matches(
                                compiled, wm, ce.index,
                                alpha_source=cache, indexed=indexed,
                                witnessed=known,
                            )
                            assert rest == want[1::2]
                            assert known == {w.timestamp for w in want}
                            nonempty += bool(want)
                            proper_subset += 0 < len(want) < len(cache.memory(ce))
                    multi_ce += len(compiled.positive_ces) > 1
                    negated += bool(compiled.negative_ces)
        # The sweep must reach what it claims to cover.
        assert multi_ce >= 60 and negated >= 60
        assert nonempty >= 200 and proper_subset >= 60

    def test_a_negated_ce_cannot_be_projected(self):
        pb = ProgramBuilder()
        pb.rule("r").ce("a", k=v("x")).neg("b", k=v("x")).halt()
        compiled = compile_rule(pb.build(analyze=False).rules[0])
        with pytest.raises(ValueError, match="negated"):
            project_matches(compiled, WorkingMemory(), 1)


class TestWholeRunEquivalence:
    """Full engine runs: indexing must not change a single fired rule or
    final WME — ``dump_records`` output is compared byte-for-byte."""

    @pytest.mark.parametrize("workload", ["tc", "monkey", "waltz"])
    @pytest.mark.parametrize("matcher", ["treat", "naive"])
    def test_final_wm_identical(self, workload, matcher):
        def run(indexed):
            wl = REGISTRY[workload]()
            build = ParulelEngine if indexed else nested_loop_engine
            engine = build(wl.program, EngineConfig(matcher=matcher))
            wl.setup(engine)
            result = engine.run(max_cycles=5000)
            return result, engine.wm.dump_records(), wl.verify(engine.wm)

        res_i, wm_i, ok_i = run(True)
        res_n, wm_n, ok_n = run(False)
        assert ok_i and ok_n
        assert res_i.cycles == res_n.cycles
        assert res_i.firings == res_n.firings
        assert wm_i == wm_n
