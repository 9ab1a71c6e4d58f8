"""Consume on fire: what fires leaves the matcher's conflict set.

Refraction bars a fired instantiation for good, so the engine hands the
firing set to ``Matcher.consume`` and the matcher stops retaining it. The
engine's refraction set stays the authority: a fired instantiation a
matcher finds again (a restore's first collect, an unblock, a recompute)
is dropped at collect and consumed anew, and nothing a run reports moves.
"""

import pytest

from repro.core import EngineConfig, ParulelEngine
from repro.lang.parser import parse_program
from repro.programs import REGISTRY
from repro.wm.io import dumps

#: ``gen`` counts ``^v`` up to ``^lim``, making one ``item`` a cycle;
#: ``mark`` makes a ``seen`` for each. Nothing retracts an ``item``, so
#: every ``mark`` instantiation stays matched after it fires.
GEN = """
(literalize next v lim)
(literalize item n)
(literalize seen n)
(p gen
    (next ^v <v> ^lim {<l> > <v>})
    -->
    (make item ^n <v>)
    (modify 1 ^v (compute <v> + 1)))
(p mark
    (item ^n <x>)
    -->
    (make seen ^n <x>))
"""


def projection(report):
    """Everything a :class:`CycleReport` says, as hashable values."""
    red = report.redaction
    return (
        report.cycle, report.conflict_set_size, report.candidates,
        (red.candidates, red.redacted, red.meta_cycles, red.meta_firings),
        report.fired, report.delta_removes, report.delta_makes,
        report.conflicts_resolved, report.makes_deduped, tuple(report.writes),
        report.halted,
    )


def count_collects(matcher):
    """Wrap ``matcher.instantiations``; returns the list of sizes seen."""
    sizes = []
    real = matcher.instantiations

    def counted():
        insts = real()
        sizes.append(len(insts))
        return insts

    matcher.instantiations = counted
    return sizes


@pytest.mark.parametrize("matcher", ["treat", "process:2"])
def test_a_never_retracted_match_leaves_the_conflict_set_as_it_fires(matcher):
    n = 2000
    engine = ParulelEngine(
        parse_program(GEN), EngineConfig(matcher=matcher, flight_recorder=False)
    )
    try:
        sizes = count_collects(engine.matcher)
        engine.make("next", v=0, lim=n)
        result = engine.run()
    finally:
        engine.close()
    assert (result.cycles, result.firings) == (n + 1, 2 * n)
    # One collect per cycle plus the quiescent one; each finds at most the
    # next gen and the newest item's mark, never the marks that fired.
    assert len(sizes) == n + 2
    assert max(sizes) <= 2


@pytest.mark.parametrize("matcher", ["treat", "naive", "process:2"])
def test_a_routing_run_resumed_mid_run_reports_what_an_unbroken_one_does(matcher):
    # routing keeps fired instantiations matched (their WMEs stay), so the
    # restored matcher's first collect finds them again.
    config = EngineConfig(matcher=matcher, flight_recorder=False)
    wl = REGISTRY["routing"]()
    with ParulelEngine(wl.program, config) as whole:
        wl.setup(whole)
        whole.run()
        want = [projection(r) for r in whole.reports]
        want_dump = dumps(whole.wm)
    split = 6
    with ParulelEngine(wl.program, config) as first:
        wl.setup(first)
        for _ in range(split):
            first.step()
        state = first.checkpoint()
        head = [projection(r) for r in first.reports]
    with ParulelEngine.restore(wl.program, state, config=config) as resumed:
        consumed = []
        real = resumed.matcher.consume
        resumed.matcher.consume = lambda keys: consumed.append(list(keys)) or real(keys)
        resumed.run()
        tail = [projection(r) for r in resumed.reports]
        got_dump = dumps(resumed.wm)
    assert len(want) > split + 1
    assert head + tail == want
    assert got_dump == want_dump
    # The first consume is the collect's: fired keys the fresh matcher
    # found again, dropped without firing.
    fired_before = {(rule, tuple(ts)) for rule, ts in state["fired"]}
    assert consumed[0] and set(consumed[0]) <= fired_before


def test_pool_workers_drop_what_the_parent_consumed():
    # Each site's fired keys ride with its next request, so no worker goes
    # on to unlink one (a tc firing's `make` blocks its own match) and
    # report that removal back.
    wl = REGISTRY["tc"]()
    config = EngineConfig(matcher="process:2", flight_recorder=False)
    with ParulelEngine(wl.program, config) as engine:
        pool = engine.matcher.pool
        consumed, replied, stale = set(), set(), []
        real_consume, real_apply = pool.consume, pool._apply_reply

        def consume(keys):
            consumed.update(keys)
            real_consume(keys)

        def apply_reply(site, reply):
            if site in replied:
                stale.extend(key for key in reply[2] if key in consumed)
            replied.add(site)
            return real_apply(site, reply)

        pool.consume, pool._apply_reply = consume, apply_reply
        wl.setup(engine)
        result = engine.run()
    assert result.firings == len(consumed) > 0
    assert replied == {0, 1}
    assert stale == []
