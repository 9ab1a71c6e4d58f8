"""The batch act phase against the per-instantiation reference.

The engine evaluates each rule's survivors as one batch through a compiled
closure and merges the batches (:mod:`repro.core.actions`,
:func:`repro.core.delta.merge_deltas`); :mod:`tests.act_oracle` walks the
RHS AST one firing at a time and merges firing by firing. Every cycle of
every run here is checked against it: the same :class:`CycleDelta` —
removes, makes, origins, writes, halt, conflicts resolved, makes deduped —
the same host calls, and the same error text when a firing fails.
"""

from __future__ import annotations

import pytest

from repro.core import EngineConfig, ParulelEngine
from repro.core.actions import ActionEvaluator
from repro.core.delta import InterferencePolicy
from repro.lang.ast import Rule
from repro.lang.parser import parse_program
from repro.match.instantiation import Instantiation
from repro.programs import REGISTRY
from repro.wm.wme import WME
from tests.act_oracle import OracleEvaluator, oracle_cycle, outcome

POLICIES = ["error", "first", "merge"]


class Witness:
    """Checks every cycle ``engine`` commits against the reference."""

    def __init__(self, engine: ParulelEngine) -> None:
        self.engine = engine
        self.oracle = OracleEvaluator()
        self.cycles = 0
        self.firings = 0
        #: Host calls in the order the reference collected them.
        self.calls = []
        apply = engine._apply

        def checked(merged, batches):
            self.check(merged, batches)
            apply(merged, batches)

        engine._apply = checked

    def check(self, merged, batches) -> None:
        config = self.engine.config
        insts = [inst for batch in batches for inst in batch.insts]
        # One batch per maximal run of one rule, in firing order.
        for batch in batches:
            assert len({inst.rule.name for inst in batch.insts}) == 1
        for left, right in zip(batches, batches[1:]):
            assert left.rule is not right.rule
        want, per_firing = oracle_cycle(
            self.oracle, insts, config.interference, config.dedupe_makes
        )
        if not config.track_provenance:
            assert merged.make_origins == []
            want.make_origins = []
        assert merged == want
        calls = [call for d in per_firing for call in d.calls]
        assert [call for b in batches for call in b.calls] == calls
        self.calls.extend(calls)
        self.cycles += 1
        self.firings += len(insts)


def run_witnessed(program, facts=(), **config):
    engine = ParulelEngine(program, EngineConfig(**config))
    witness = Witness(engine)
    for class_name, attrs in facts:
        engine.make(class_name, attrs)
    return engine, witness


@pytest.mark.parametrize("name", sorted(REGISTRY))
@pytest.mark.parametrize("provenance", [False, True])
def test_registry_programs_match_the_reference(name, provenance):
    wl = REGISTRY[name]()
    engine = ParulelEngine(wl.program, EngineConfig(track_provenance=provenance))
    witness = Witness(engine)
    wl.setup(engine)
    result = engine.run()
    assert wl.verify_ok(engine.wm)
    assert witness.cycles == sum(1 for r in result.reports if r.fired)
    assert witness.firings == result.firings > 0


def program(text):
    return parse_program(text)


BIND = program("""
(literalize c v)
(literalize d v w)
(p b (c ^v <v>)
   --> (bind <v> (compute <v> * 10)) (bind <w> (compute <v> + 1))
       (make d ^v <v> ^w <w>) (bind <v> <w>) (write <v> <w>))
""")

COMPUTE = program("""
(literalize c v)
(literalize e a b c d)
(p k (c ^v <v>)
   --> (make e ^a (compute <v> / 2) ^b (compute <v> // 3)
               ^c (compute <v> mod 4) ^d (compute <v> * 3 - 1 / 2)))
""")

GENATOM = program("""
(literalize c v)
(literalize d id v)
(p g1 (c ^v <v>) --> (make d ^id (genatom n) ^v <v>) (make d ^v <v> ^id (genatom n)))
(p g2 (c ^v <v>) --> (make d ^id (genatom n) ^v (compute <v> + 100)))
""")

WRITE = program("""
(literalize c v)
(p w (c ^v <v>) --> (write v is <v> half (compute <v> / 2)) (write done))
""")

CALLS = program("""
(literalize c v)
(p first (c ^v <v>) --> (call note first <v>) (call note again (compute <v> + 1)))
(p second (c ^v <v>) --> (call note second <v>))
""")

HALT = program("""
(literalize c v)
(literalize d v)
(p mark (c ^v <v>) --> (make d ^v <v>))
(p stop (c ^v 2) --> (halt) (write stopping))
""")

DEDUPE = program("""
(literalize c v)
(literalize d k)
(p same (c ^v <v>) --> (make d ^k 1) (make d ^k <v>))
(p other (c ^v <v>) --> (make d ^k 1))
""")

FACTS = [("c", {"v": v}) for v in (4, 5, 7.5, 1, 2, "sym")]
NUMERIC = [fact for fact in FACTS if fact[1]["v"] != "sym"]


@pytest.mark.parametrize(
    "prog,facts",
    [
        (BIND, NUMERIC),
        (COMPUTE, NUMERIC),
        (GENATOM, NUMERIC),
        (WRITE, NUMERIC),
        (HALT, FACTS),
    ],
    ids=["bind-shadowing", "compute-chains", "genatom", "write", "halt"],
)
@pytest.mark.parametrize("dedupe", [True, False])
def test_targeted_shapes_match_the_reference(prog, facts, dedupe):
    engine, witness = run_witnessed(
        prog, facts, dedupe_makes=dedupe, track_provenance=True
    )
    engine.run()
    assert witness.firings > 0


def test_dedupe_counts_match_the_reference():
    engine, witness = run_witnessed(DEDUPE, NUMERIC, track_provenance=True)
    engine.run()
    assert engine.reports[0].makes_deduped > 0 and witness.cycles == 1


def test_genatom_numbers_a_batch_in_firing_order():
    engine, _witness = run_witnessed(GENATOM, NUMERIC[:3])
    engine.run()
    ids = {(w.get("v"), w.get("id")) for w in engine.wm.by_class("d")}
    # g1 fires first (rule order), two fresh symbols per firing, then g2.
    assert ids == {
        (4, "n1"), (4, "n2"), (5, "n3"), (5, "n4"), (7.5, "n5"), (7.5, "n6"),
        (104, "n7"), (105, "n8"), (107.5, "n9"),
    }


def test_host_calls_run_in_the_reference_order():
    seen = []
    engine, witness = run_witnessed(CALLS, NUMERIC)
    engine.register_function("note", lambda *args: seen.append(args))
    engine.run()
    assert seen == [args for _name, args in witness.calls]
    assert [a[0] for a in seen] == ["first", "again"] * 5 + ["second"] * 5


INTERFERE = program("""
(literalize counter n)
(literalize tick t)
(p bump (counter ^n <n>) (tick ^t <t>) --> (modify 1 ^n <t>))
(p both (counter ^n <n>) (tick ^t <t>) --> (remove 2) (modify 1 ^n (compute <t> * 2)))
(p drop (counter ^n <n>) (tick ^t 2) --> (remove 1))
""")

MODIFY_THEN_REMOVE = program("""
(literalize counter n)
(literalize tick t)
(p bump (counter ^n <n>) (tick ^t <t>) --> (modify 1 ^n 5))
(p drop (counter ^n <n>) (tick ^t 2) --> (remove 1))
""")

REMOVE_THEN_MODIFY = program("""
(literalize counter n)
(literalize tick t)
(p drop (counter ^n <n>) (tick ^t 2) --> (remove 1))
(p bump (counter ^n <n>) (tick ^t <t>) --> (modify 1 ^n 5))
""")

#: Two firings of one rule, each removing what the other modifies.
SWAP = program("""
(literalize counter n)
(literalize tick t)
(p swap (counter ^n <n>) (counter ^n {<m> <> <n>}) --> (remove 1) (modify 2 ^n 9))
""")

TICKS = [("counter", {"n": 0})] + [("tick", {"t": t}) for t in (1, 2, 3)]


@pytest.mark.parametrize(
    "prog",
    [INTERFERE, MODIFY_THEN_REMOVE, REMOVE_THEN_MODIFY, SWAP],
    ids=["modify-modify", "modify-remove", "remove-modify", "swap"],
)
@pytest.mark.parametrize("policy", POLICIES)
def test_interference_matches_the_reference(prog, policy):
    facts = TICKS + [("counter", {"n": 1})] if prog is SWAP else TICKS
    engine, witness = run_witnessed(
        prog, facts, interference=policy, track_provenance=True
    )
    for _ in range(4):
        insts = engine.conflict_set()
        want = outcome(
            oracle_cycle, OracleEvaluator(), insts, InterferencePolicy.of(policy)
        )
        got = outcome(engine.step)
        if want[0] == "error":
            assert got == want
            return
        assert got[0] == "ok"
        if got[1] is None:
            break
    assert witness.cycles > 0


def test_an_error_policy_clash_is_reported_as_before():
    engine, _witness = run_witnessed(INTERFERE, TICKS)
    got = outcome(engine.step)
    assert got[:2] == ("error", "InterferenceError")
    assert "rules 'bump' and 'bump' both modify attribute(s) n" in got[2]


DIVIDE = program("""
(literalize c v)
(literalize e q)
(p z (c ^v <v>) --> (make e ^q (compute 10 / <v>)))
""")


@pytest.mark.parametrize(
    "values,text",
    [
        ((5, 0, 2), "compute: division by zero"),
        ((5, "sym"), "compute: arithmetic on non-numbers (10 / 'sym')"),
    ],
)
def test_firing_errors_carry_the_reference_text(values, text):
    engine, _witness = run_witnessed(DIVIDE, [("c", {"v": v}) for v in values])
    want = outcome(oracle_cycle, OracleEvaluator(), engine.conflict_set())
    got = outcome(engine.step)
    assert got == want
    assert got[2] == text


def _inst(source, env, wmes=None):
    rule = parse_program(source).rules[0]
    if wmes is None:
        wmes = (WME("c", {"v": 1}, 1),)
    return Instantiation(rule, wmes, env)


@pytest.mark.parametrize(
    "source",
    [
        "(p u (c ^v <v>) --> (make d ^a <v> ^b <v>))",
        "(p u (c ^v <v>) --> (make d ^z <v> ^a (compute <v> + 1)))",
        "(p u (c ^v <v>) --> (modify 1 ^v <v>))",
        "(p u (c ^v <v>) --> (write <v>))",
        "(p u (c ^v <v>) --> (call f <v>))",
        "(p u (c ^v <v>) --> (bind <w> <v>) (make d ^w <w>))",
    ],
)
def test_unbound_variables_carry_the_reference_text(source):
    inst = _inst(source, {})
    want = outcome(OracleEvaluator().evaluate, inst)
    got = outcome(ActionEvaluator().evaluate, inst)
    assert want[0] == "error" and got == want


def test_the_first_unbound_variable_in_source_order_is_named():
    rule = parse_program(
        "(p u (c ^z <z>) (c ^a <a>) --> (make d ^z <z> ^a <a>))"
    ).rules[0]
    wmes = (WME("c", {"z": 1}, 1), WME("c", {"a": 1}, 2))
    inst = Instantiation(rule, wmes, {})
    want = outcome(OracleEvaluator().evaluate, inst)
    assert outcome(ActionEvaluator().evaluate, inst) == want
    assert want[2] == "unbound variable <z> on RHS"


def test_a_bad_ce_index_carries_the_reference_text():
    base = parse_program("(p r (c ^v <v>) -(d ^v <v>) --> (halt))").rules[0]
    remove = parse_program("(p r (c ^v <v>) --> (remove 1))").rules[0].actions[0]
    bad = type(remove)(ce_indices=(2,))
    rule = Rule(base.name, base.conditions, (bad,))
    inst = Instantiation(rule, (WME("c", {"v": 1}, 1), None), {"v": 1})
    want = outcome(OracleEvaluator().evaluate, inst)
    assert want[0] == "error"
    assert outcome(ActionEvaluator().evaluate, inst) == want


def test_a_batch_is_its_firings_one_after_another():
    """Evaluating a rule's firings as one batch proposes what evaluating
    them one at a time does, in the same order."""
    rule = BIND.rules[0]
    insts = [
        Instantiation(rule, (WME("c", {"v": v}, i + 1),), {"v": v})
        for i, v in enumerate((1, 2, 3))
    ]
    batch = ActionEvaluator().evaluate_batch(insts)
    singles = [ActionEvaluator().evaluate(inst) for inst in insts]
    assert batch.insts == insts
    for field in ("makes", "make_keys", "writes", "removes", "modifies"):
        assert getattr(batch, field) == [
            item for single in singles for item in getattr(single, field)
        ]
