"""The commute analysis's COMMUTES verdicts, audited on real runs.

Every bundled workload's fired pairs are replayed in both orders
(:mod:`tests.core.commute_audit`): no statically-COMMUTES pair may
diverge, and auditing must not change a byte of the run. A deliberately
wrong certification must be caught, naming the rules and the cycle.
"""

import pytest

from repro.core import EngineConfig, ParulelEngine
from repro.lang import parse_program
from repro.programs import REGISTRY

from tests.core.commute_audit import CommuteAudit, CommuteViolation

WORKLOADS = ["tc", "waltz", "manners", "routing", "circuit", "sort", "monkey"]


def _run(workload, audited):
    wl = REGISTRY[workload]()
    engine = ParulelEngine(wl.program, EngineConfig())
    audit = CommuteAudit(engine) if audited else None
    wl.setup(engine)
    result = engine.run(max_cycles=5000)
    assert wl.verify(engine.wm)
    fingerprint = (
        result.cycles,
        result.firings,
        tuple(result.output),
        engine.wm.dump_records(),
    )
    return fingerprint, result, audit


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_clean_under_the_audit(workload):
    plain, _result, _ = _run(workload, audited=False)
    audited, result, audit = _run(workload, audited=True)
    assert audited == plain
    if result.firings > result.cycles:
        # At least one multi-firing cycle existed, so pairs replayed.
        assert audit.pairs > 0


def test_audit_replays_every_fired_pair_once():
    _fingerprint, result, audit = _run("tc", audited=True)
    expected = sum(r.fired * (r.fired - 1) // 2 for r in result.reports)
    assert audit.pairs == expected > 0


CLAIM_SRC = """
(literalize slot owner)
(literalize req n)
(p claim (slot ^owner nil) (req ^n <n>) --> (modify 1 ^owner <n>))
"""


def _claim_engine():
    engine = ParulelEngine(
        parse_program(CLAIM_SRC),
        EngineConfig(interference="merge", flight_recorder=False),
    )
    engine.make("slot", owner="nil")
    engine.make("req", n=1)
    engine.make("req", n=2)
    return engine


def test_a_lying_certificate_is_caught():
    """Force a bogus COMMUTES claim onto a racing pair: the audit must
    catch the divergence and name the rules and the cycle."""
    # Without the bogus claim the divergence is a plain non-commuting
    # pair, not a violation.
    honest = _claim_engine()
    CommuteAudit(honest)
    honest.run(max_cycles=10)

    lying = _claim_engine()
    CommuteAudit(lying, commuting={frozenset(("claim",))})
    with pytest.raises(CommuteViolation) as exc:
        lying.run(max_cycles=10)
    assert "claim" in str(exc.value)
    assert exc.value.rules == ("claim", "claim")
    assert exc.value.cycle == 1
