"""The process pool under a meta-heavy program.

Reifications live in the redaction phase only, so a pooled run of Miss
Manners must ship nothing about them: no ``instantiation`` WME in any
drained wire delta (dict store), no ``instantiation`` table, structural
spec or journal record (columnar store) — and the dump must still be the
serial run's, byte for byte.
"""

import pytest

from repro.core import EngineConfig, ParulelEngine
from repro.programs import build_manners

GUESTS = 24


def run_manners(config, watch=None):
    """(records, next timestamp, report rows) of one run; ``watch(engine)``
    may instrument the built engine and return a post-run check."""
    wl = build_manners(n_guests=GUESTS)
    engine = ParulelEngine(wl.program, config)
    try:
        check = watch(engine) if watch is not None else None
        wl.setup(engine)
        result = engine.run(max_cycles=5000)
        assert wl.failed_checks(engine.wm) == []
        assert sum(r.redaction.redacted for r in result.reports) > 0
        if check is not None:
            check()
        return (
            engine.wm.dump_records(),
            [
                (r.candidates, r.fired, r.redaction.meta_cycles,
                 r.redaction.meta_firings)
                for r in result.reports
            ],
        )
    finally:
        engine.close()


@pytest.fixture(scope="module")
def serial():
    return run_manners(EngineConfig())


@pytest.mark.timeout(120)
class TestPoolShipsNoReifications:
    def test_dict_store_wire_deltas(self, serial):
        def watch(engine):
            recorder = engine.matcher.pool._recorder
            drain = recorder.drain
            shipped = []

            def recording_drain():
                delta = drain()
                shipped.append(delta)
                return delta

            recorder.drain = recording_drain

            # The recorder compacts an add/remove pair inside one window,
            # so also watch what it is told, not only what it ships.
            observed = set()
            engine.wm.add_listener(
                lambda wmes, added: observed.update(w.class_name for w in wmes)
            )

            def check():
                shipped_classes = {w.class_name for d in shipped for w in d.adds}
                assert shipped_classes and shipped_classes <= observed
                assert "instantiation" not in observed

            return check

        pooled = run_manners(EngineConfig(matcher="process:2"), watch)
        assert pooled == serial

    def test_columnar_store_tables_and_journal(self, serial):
        def watch(engine):
            wm = engine.wm
            cycle_info = wm.cycle_info
            specs = []

            def recording_cycle_info():
                info = cycle_info()
                specs.extend(info[2])
                return info

            wm.cycle_info = recording_cycle_info

            def check():
                assert "instantiation" not in wm._tables
                named = {spec[1] for spec in specs}
                assert named and "instantiation" not in named
                # One journal record per object-level make or remove.
                removed = sum(len(r) for r, _m in engine.delta_log)
                made = sum(len(m) for _r, m in engine.delta_log)
                loaded = len(wm) + removed - made
                assert wm.journal_len == loaded + made + removed

            return check

        pooled = run_manners(
            EngineConfig(matcher="process:2", wm_backend="columnar"), watch
        )
        assert pooled == serial
