"""The runtime race sanitizer.

``sanitize_races=True`` must be byte-identical to the plain engine — same
cycles, firings, output and final working memory (timestamps included),
also through ``parulel run --sanitize-races`` on every matcher; every
statically-COMMUTES verdict must survive the dynamic sanitizer; and a
deliberately wrong certification must be caught as
:class:`CommuteViolationError`.
"""

import pytest

from repro.cli import main
from repro.core import EngineConfig, ParulelEngine
from repro.errors import CommuteViolationError
from repro.lang import parse_program
from repro.obs import MetricsRegistry
from repro.obs.profile import SANITIZER_REPLAYS
from repro.programs import REGISTRY


def _run(workload, metrics=None, **config):
    wl = REGISTRY[workload]()
    engine = ParulelEngine(wl.program, EngineConfig(**config), metrics=metrics)
    wl.setup(engine)
    result = engine.run(max_cycles=5000)
    return engine, result, wl


def _fingerprint(engine, result):
    return (
        result.cycles,
        result.firings,
        tuple(result.output),
        engine.wm.dump_records(),
    )


class TestByteIdentity:
    @pytest.mark.parametrize(
        "workload",
        ["tc", "waltz", "manners", "routing", "circuit", "sort", "monkey"],
    )
    def test_sanitizer_is_byte_identical(self, workload):
        base_engine, base_result, wl = _run(workload)
        san_engine, san_result, _ = _run(workload, sanitize_races=True)
        assert _fingerprint(san_engine, san_result) == _fingerprint(
            base_engine, base_result
        )
        assert wl.verify(san_engine.wm)


class TestSanitizer:
    @pytest.mark.parametrize(
        "workload",
        ["tc", "waltz", "manners", "sort", "routing", "circuit", "monkey"],
    )
    def test_clean_run_with_sanitizer(self, workload):
        metrics = MetricsRegistry()
        engine, result, wl = _run(
            workload, metrics=metrics, sanitize_races=True
        )
        assert wl.verify(engine.wm)
        if result.firings > result.cycles:
            # At least one multi-firing cycle existed, so pairs replayed.
            assert metrics.counter_value(SANITIZER_REPLAYS) > 0

    @pytest.mark.parametrize("sanitize", [False, True])
    def test_commute_state_built_only_under_the_sanitizer(self, sanitize):
        engine = ParulelEngine(
            REGISTRY["tc"]().program, EngineConfig(sanitize_races=sanitize)
        )
        built = (engine._commute_index, engine._pair_replayer)
        if sanitize:
            assert None not in built
        else:
            assert built == (None, None)

    def test_wrong_certification_raises(self):
        """Force a bogus COMMUTES claim onto a racing pair: the sanitizer
        must catch the divergence and name the rules."""
        src = """
        (literalize slot owner)
        (literalize req n)
        (p claim (slot ^owner nil) (req ^n <n>) --> (modify 1 ^owner <n>))
        """
        program = parse_program(src)
        engine = ParulelEngine(
            program, EngineConfig(sanitize_races=True, interference="merge")
        )
        engine.make("slot", owner="nil")
        engine.make("req", n=1)
        engine.make("req", n=2)
        # Sanity: without the bogus claim the divergence is tolerated
        # (detected as a plain non-commuting pair, not a violation).
        engine_ok = ParulelEngine(
            program, EngineConfig(sanitize_races=True, interference="merge")
        )
        engine_ok.make("slot", owner="nil")
        engine_ok.make("req", n=1)
        engine_ok.make("req", n=2)
        engine_ok.run(max_cycles=10)

        class _LyingIndex:
            def statically_commutes(self, a, b):
                return True

        engine._commute_index = _LyingIndex()
        with pytest.raises(CommuteViolationError) as exc:
            engine.run(max_cycles=10)
        assert "claim" in str(exc.value)
        assert exc.value.rules == ("claim", "claim")
        assert exc.value.cycle >= 1


class TestCommandLine:
    TC_SRC = """\
(literalize edge src dst)
(literalize path src dst)
(p tc-init (edge ^src <a> ^dst <b>) -(path ^src <a> ^dst <b>)
   --> (make path ^src <a> ^dst <b>))
(p tc-extend (path ^src <a> ^dst <b>) (edge ^src <b> ^dst <c>)
   -(path ^src <a> ^dst <c>)
   --> (make path ^src <a> ^dst <c>))
"""

    @pytest.fixture()
    def program_files(self, tmp_path):
        program = tmp_path / "tc.pl"
        facts = tmp_path / "tc.facts"
        program.write_text(self.TC_SRC)
        facts.write_text(
            "".join(f"(edge ^src n{i} ^dst n{i + 1})\n" for i in range(6))
        )
        return str(program), str(facts)

    @pytest.mark.parametrize("matcher", ["treat", "naive", "process"])
    def test_sanitized_run_dumps_the_plain_runs_bytes(
        self, program_files, tmp_path, matcher
    ):
        program, facts = program_files
        plain, sanitized = tmp_path / "plain.wm", tmp_path / "sanitized.wm"
        assert main(
            ["run", program, "--facts", facts, "--dump-wm", str(plain)]
        ) == 0
        workers = ["--workers", "2"] if matcher == "process" else []
        assert main(
            [
                "run", program, "--facts", facts, "--matcher", matcher,
                *workers, "--sanitize-races",
                "--dump-wm", str(sanitized),
            ]
        ) == 0
        assert sanitized.read_bytes() == plain.read_bytes()

    def test_ops5_rejects_the_sanitizer(self, program_files, capsys):
        program, facts = program_files
        code = main(
            ["run", program, "--facts", facts, "--engine", "ops5",
             "--sanitize-races"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "--sanitize-races" in err and "parulel only" in err
