"""PA001 soundness: every *runtime* interference is a *static* candidate.

PA001 is allowed to over-approximate — flagging pairs that never
actually clash — but it must never under-approximate: if the merge step
raises :class:`InterferenceError` for a pair of rules, that pair must be
among the interference candidates ``analyze`` reports. A pair the
commute analysis proves COMMUTES leaves PA001, so this also holds it to
that proof. We strip each bundled workload's meta-rules (they exist
precisely to prevent interference) and run under the ERROR policy to
provoke the clashes.
"""

import pytest

from repro.analysis import analyze
from repro.core.engine import ParulelEngine
from repro.errors import CycleLimitExceeded, InterferenceError
from repro.lang.ast import Program
from repro.programs import REGISTRY


def _stripped(program: Program) -> Program:
    return Program(
        literalizes=program.literalizes,
        rules=program.rules,
        meta_rules=(),
    )


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_runtime_interference_is_statically_predicted(name):
    workload = REGISTRY[name]()
    program = _stripped(workload.program)
    static_pairs = {c.names for c in analyze(program).interference}

    engine = ParulelEngine(program)
    workload.setup(engine)
    try:
        engine.run(max_cycles=50)
    except CycleLimitExceeded:
        pass  # didn't clash within the budget — vacuously sound
    except InterferenceError as exc:
        # The error must carry the clashing pair, and the pair must be
        # a subset of what the static analysis promised to warn about.
        assert exc.rules, "InterferenceError lost its rule attribution"
        assert frozenset(exc.rules) in static_pairs, (name, exc.rules)


def test_interference_error_carries_rules():
    # Directly provoke a modify/modify clash and check the attribution.
    src = """
    (literalize req n)
    (literalize slot owner)
    (p claim (req ^n <n>) (slot ^owner nil) --> (modify 2 ^owner <n>))
    """
    from repro.lang.parser import parse_program

    engine = ParulelEngine(parse_program(src))
    engine.make("req", n=1)
    engine.make("req", n=2)
    engine.make("slot", owner="nil")
    with pytest.raises(InterferenceError) as excinfo:
        engine.run(max_cycles=5)
    assert excinfo.value.rules == ("claim", "claim")
