"""Phase-local meta join ≡ the reify-into-WM oracle, over generated programs.

Each seed draws a meta-program from a pool of meta-rule shapes — negated
``instantiation`` CEs that a redaction can enable (chains of three and more
meta-cycles), redact-only rules (with and without such a CE) next to rules
that also ``write``, joins and negations over ordinary classes the object
rules rewrite between cycles, a redact id computed with ``bind``, mixed
``1`` / ``1.0`` / ``True`` / symbol join keys, ``write`` actions, the
order-comparison shapes the meta level answers from a per-group extremum
(over ints, floats, big ints, symbols and NaN) and their near misses that
must still walk the join kernel — plus a fact set. Two engines run it in lockstep, one on :class:`~repro.core.redaction.MetaLevel`
and one on :class:`tests.core.meta_oracle.OracleMetaLevel`; after every
cycle the survivors (via the applied delta), every ``RedactionReport``
field, the meta ``write`` lines, the next timestamp and the WM records
must agree.
"""

import random

import pytest

from repro.core import EngineConfig, ParulelEngine
from repro.errors import ExecutionError
from repro.lang.parser import parse_program
from repro.obs import MetricsRegistry
from repro.obs.profile import RULE_REDACTIONS
from repro.programs import REGISTRY, build_manners
from tests.core.meta_oracle import redact_only, use_oracle

#: The pool grew to 18 shapes; 96 draws still reach every coverage floor.
N_PROGRAMS = 96

#: ``bystander`` precedes ``pick``: candidate ids follow rule position, so
#: ``evict-prev``'s ``<i> - 1`` can name a bystander candidate — the only
#: way one is ever redacted.
OBJECT_LEVEL = """
(literalize item x p tag w)
(literalize blocked x)
(literalize quota n)
(literalize log x)
(p bystander (item ^x <v> ^tag <t>) --> (make log ^x <t>))
(p pick (item ^x <v> ^p <p> ^w <w>) --> (remove 1) (make log ^x <v>))
(p unblock (blocked ^x <v>) (log ^x <v>) --> (remove 1))
(p tighten (quota ^n {<n> > 0}) --> (modify 1 ^n (compute <n> - 1)))
"""

#: name -> meta-rule source. ``peel``, ``peel-quiet`` and ``heir`` test for
#: the absence of an instantiation, so each redaction can ready the next
#: one. ``peel-quiet``, ``tie`` and every rule after ``stop`` only redact:
#: the :data:`EXTREMUM` ones are answered from a per-group extremum, the
#: others run in the join kernel's existence mode, and every other rule is
#: enumerated in full.
META_POOL = {
    "peel": """
        (mp peel
            (instantiation ^rule pick ^id <i> ^p <p> ^v <x>)
            -(instantiation ^rule pick ^p > <p>)
            (blocked ^x <x>)
            --> (write peel <i> <x>) (redact <i>))""",
    "heir": """
        (mp heir
            (instantiation ^rule pick ^id <i> ^v <x>)
            -(instantiation ^rule pick ^v <x> ^id < <i>)
            (blocked ^x <x>)
            --> (write heir <i>) (redact <i>))""",
    "peel-quiet": """
        (mp peel-quiet
            (instantiation ^rule pick ^id <i> ^p <p> ^v <x>)
            -(instantiation ^rule pick ^p > <p>)
            (blocked ^x <x>)
            --> (redact <i>))""",
    "tie": """
        (mp tie
            (instantiation ^rule pick ^id <i> ^v <x>)
            (instantiation ^rule pick ^id {<j> > <i>} ^v <x>)
            --> (redact <j>))""",
    "over-quota": """
        (mp over-quota
            (instantiation ^rule pick ^id <i> ^p <p>)
            (quota ^n < <p>)
            --> (write over <i> <p>) (redact <i>))""",
    "evict-prev": """
        (mp evict-prev
            (instantiation ^rule pick ^id {<i> > 1} ^v <x>)
            (blocked ^x <x>)
            --> (bind <k> (compute <i> - 1)) (write evict <k>) (redact <k>))""",
    "narrate": """
        (mp narrate
            (instantiation ^rule pick ^id <i> ^v <x>)
            -(blocked ^x <x>)
            --> (write free <i> <x>))""",
    "roll-call": """
        (mp roll-call
            (instantiation ^id <i> ^rule <r> ^recency <t>)
            --> (write saw <r> <i> <t>))""",
    "stop": """
        (mp stop
            (instantiation ^rule pick ^id <i> ^p 5)
            (quota ^n 0)
            --> (halt))""",
    # Answered from a per-group extremum: ``>`` keyed on ``^v`` with the id
    # test, ``<`` with neither, and an order across two attributes (where
    # a candidate may be its own partner).
    "floor": """
        (mp floor
            (instantiation ^rule pick ^id <i> ^v <x> ^w <a>)
            (instantiation ^rule pick ^id {<j> <> <i>} ^v <x> ^w > <a>)
            --> (redact <j>))""",
    "ceiling": """
        (mp ceiling
            (instantiation ^rule pick ^w <a>)
            (instantiation ^rule pick ^id <j> ^w < <a>)
            --> (redact <j>))""",
    "skew": """
        (mp skew
            (instantiation ^rule pick ^v <x> ^p <a>)
            (instantiation ^rule pick ^id <j> ^v <x> ^w > <a>)
            --> (redact <j>))""",
    # Near misses: redact-only, but they walk the join kernel.
    "floor-or-equal": """
        (mp floor-or-equal
            (instantiation ^rule pick ^id <i> ^v <x> ^w <a>)
            (instantiation ^rule pick ^id {<j> <> <i>} ^v <x> ^w >= <a>)
            --> (redact <j>))""",
    "two-orders": """
        (mp two-orders
            (instantiation ^rule pick ^w <a> ^p <q>)
            (instantiation ^rule pick ^id <j> ^w > <a> ^p < <q>)
            --> (redact <j>))""",
    "other-differs": """
        (mp other-differs
            (instantiation ^rule pick ^w <a> ^p <q>)
            (instantiation ^rule pick ^id <j> ^w > <a> ^p <> <q>)
            --> (redact <j>))""",
    "skew-distinct": """
        (mp skew-distinct
            (instantiation ^rule pick ^id <i> ^p <a>)
            (instantiation ^rule pick ^id {<j> <> <i>} ^w > <a>)
            --> (redact <j>))""",
    "floor-blocked": """
        (mp floor-blocked
            (instantiation ^rule pick ^v <x> ^w <a>)
            (instantiation ^rule pick ^id <j> ^v <x> ^w > <a>)
            (blocked ^x <x>)
            --> (redact <j>))""",
    "top-of-group": """
        (mp top-of-group
            (instantiation ^rule pick ^id <j> ^v <x> ^w <a>)
            -(instantiation ^rule pick ^v <x> ^w > <a>)
            --> (redact <j>))""",
}

#: The meta-rules answered from a per-group extremum.
EXTREMUM = ("ceiling", "floor", "skew", "tie")

#: ``1``, ``1.0`` and ``True`` are one join key; so are ``2`` and ``2.0``.
X_VALUES = [1, 1.0, True, 2, 2.0, "a", "b", 3]
#: ``^w`` is only ever ordered: numbers of every kind (a big int next to
#: the float it rounds to), symbols, and NaN, which is ordered against
#: nothing.
W_VALUES = [1, 1.0, True, 2.5, -3, 10**20, 10**20 + 1, float(10**20), "a", "m", float("nan")]


def _draw(seed):
    """(program source, facts) for one seed."""
    rng = random.Random(4200 + seed)
    names = rng.sample(sorted(META_POOL), rng.randint(1, 4))
    source = OBJECT_LEVEL + "".join(META_POOL[name] for name in names)
    facts = []
    for n in range(rng.randint(4, 9)):
        facts.append(
            (
                "item",
                {
                    "x": rng.choice(X_VALUES),
                    "p": rng.randint(0, 5),
                    "tag": f"t{n}",
                    "w": rng.choice(W_VALUES),
                },
            )
        )
    for x in rng.sample(X_VALUES, rng.randint(1, 5)):
        # Biased towards blocking: chains need several blocked in a row.
        facts.append(("blocked", {"x": x}))
    facts.append(("quota", {"n": rng.randint(1, 5)}))
    rng.shuffle(facts)
    return source, facts


def _engine(source, facts, oracle=None):
    engine = ParulelEngine(
        parse_program(source),
        EngineConfig(matcher="treat", interference="merge"),
        metrics=MetricsRegistry(),
    )
    if oracle is not None:
        use_oracle(engine, oracle)
    for class_name, attrs in facts:
        engine.make(class_name, attrs)
    return engine


def _report_fields(report):
    red = report.redaction
    return (
        report.candidates,
        report.fired,
        red.candidates,
        red.redacted,
        red.meta_cycles,
        red.meta_firings,
        report.delta_removes,
        report.delta_makes,
        report.halted,
    )


def _lockstep(seed, oracle):
    """Run one seed on both meta levels; returns coverage facts."""
    source, facts = _draw(seed)
    new = _engine(source, facts)
    old = _engine(source, facts, oracle=oracle)
    deepest = 0
    wrote = 0
    consulted_changed = 0
    consulted = None
    for _cycle in range(40):
        now = (new.wm.by_class("blocked"), new.wm.by_class("quota"))
        if consulted is not None and now != consulted:
            consulted_changed += 1
        consulted = now
        got, want = new.step(), old.step()
        assert (got is None) == (want is None), seed
        assert new.wm.latest_timestamp == old.wm.latest_timestamp, seed
        assert new.wm.dump_records() == old.wm.dump_records(), seed
        if got is None:
            break
        assert _report_fields(got) == _report_fields(want), seed
        assert got.writes == want.writes, seed
        deepest = max(deepest, got.redaction.meta_cycles)
        wrote += len(new.meta.writes)
    bystander_redacted = new.metrics.counter_value(
        RULE_REDACTIONS, rule="bystander"
    )
    assert bystander_redacted == old.metrics.counter_value(
        RULE_REDACTIONS, rule="bystander"
    )
    kinds = {redact_only(rule) for rule in new.program.meta_rules}
    names = {rule.name for rule in new.program.meta_rules}
    assert set(new.meta._extremum) == names.intersection(EXTREMUM), seed
    per_rule = new.meta.stats.per_rule
    return {
        "redact_only": True in kinds,
        "both_paths": kinds == {True, False},
        "extremum_witnesses": sum(
            per_rule[name]["instantiations"] for name in new.meta._extremum
        ),
        "near_misses": sum(
            1
            for rule in new.program.meta_rules
            if redact_only(rule) and rule.name not in EXTREMUM
        ),
        "deepest": deepest,
        "wrote": wrote,
        "consulted_changed": consulted_changed,
        "bystander_redacted": bystander_redacted,
    }


class TestPhaseLocalAgreesWithOracle:
    @pytest.mark.parametrize("oracle", ["naive", "rete"])
    def test_generated_meta_programs(self, oracle):
        seen = [_lockstep(seed, oracle) for seed in range(N_PROGRAMS)]
        # The sweep must actually reach what it claims to cover.
        assert sum(1 for s in seen if s["deepest"] >= 3) >= 5
        assert sum(1 for s in seen if s["consulted_changed"]) >= 20
        assert sum(s["bystander_redacted"] for s in seen) >= 5
        assert sum(1 for s in seen if s["wrote"]) >= 30
        assert sum(1 for s in seen if s["redact_only"]) >= 25
        assert sum(1 for s in seen if s["both_paths"]) >= 20
        assert sum(1 for s in seen if s["extremum_witnesses"]) >= 25
        assert sum(1 for s in seen if s["near_misses"]) >= 40

    @pytest.mark.parametrize("oracle", ["naive", "rete"])
    def test_numeric_keys_unify_across_types(self, oracle):
        # 1, 1.0 and True are one ``^v`` group for ``tie``; the symbol is
        # its own.
        source = OBJECT_LEVEL + META_POOL["tie"]
        facts = [
            ("item", {"x": x, "p": 0, "tag": "t"}) for x in (1, 1.0, True, "a")
        ]
        for engine in (
            _engine(source, facts),
            _engine(source, facts, oracle=oracle),
        ):
            report = engine.step()
            picks = report.redaction.candidates - 4  # minus the bystanders
            assert (picks, report.redaction.redacted) == (4, 2)

    @pytest.mark.parametrize("oracle", ["naive", "rete"])
    @pytest.mark.parametrize("name", ["manners", "routing", "sort-meta"])
    def test_bundled_meta_workloads(self, name, oracle):
        wl = REGISTRY[name]()
        new, old = ParulelEngine(wl.program), ParulelEngine(wl.program)
        use_oracle(old, oracle)
        for engine in (new, old):
            wl.setup(engine)
            engine.run(max_cycles=2000)
        assert [_report_fields(r) for r in new.reports] == [
            _report_fields(r) for r in old.reports
        ]
        assert new.wm.dump_records() == old.wm.dump_records()


class TestNothingReachesTheWorkingMemory:
    def test_no_listener_sees_an_instantiation(self):
        wl = build_manners(n_guests=8)
        engine = ParulelEngine(wl.program)
        seen = []
        engine.wm.add_listener(
            lambda wmes, added: seen.extend(w.class_name for w in wmes)
        )
        wl.setup(engine)
        result = engine.run(max_cycles=2000)
        assert sum(r.redaction.redacted for r in result.reports) > 0
        assert seen and "instantiation" not in seen

    def test_failed_phase_leaves_wm_as_it_was(self):
        # The second meta-cycle redacts an id nobody has: by then the first
        # has already redacted a real candidate.
        source = """
        (literalize req name)
        (p grant (req ^name <n>) --> (remove 1))
        (mp first (instantiation ^rule grant ^id 1) --> (redact 1))
        (mp then-bad
            (instantiation ^rule grant ^id 2)
            -(instantiation ^rule grant ^id 1)
            --> (redact 999))
        """
        engines = [ParulelEngine(parse_program(source)) for _ in range(2)]
        use_oracle(engines[1])
        outcomes = []
        for engine in engines:
            engine.make("req", name="a")
            engine.make("req", name="b")
            before = engine.wm.dump_records()[0]
            events = []
            engine.wm.add_listener(lambda wmes, added: events.extend(wmes))
            with pytest.raises(ExecutionError, match="no instantiation") as err:
                engine.step()
            assert engine.wm.dump_records()[0] == before
            outcomes.append((str(err.value), engine.wm.latest_timestamp))
            if engine is engines[0]:
                assert events == []
        assert outcomes[0] == outcomes[1]
