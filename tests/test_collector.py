"""The collector schedule (``repro.collector``): who changes the cyclic
collector's settings, for how long, and that they come back exactly.

``repro.cli.main`` raises the gen-0 threshold for ``run`` and ``profile``
and freezes the loaded heap before ``ParulelEngine.run``; everything is as
it was found once ``main`` returns — tier-1 and the benchmark launcher
call it in-process — however the command ends. The library never touches
``gc``.
"""

import gc
import subprocess
import sys

import pytest

from repro.cli import main
from repro.collector import GEN0_THRESHOLD, CollectorSchedule
from repro.core import ParulelEngine
from repro.lang.parser import parse_program
from tests.lab_engine import lab_engine

TC = """
(literalize edge src dst)
(literalize path src dst)
(p tc-init (edge ^src <a> ^dst <b>) -(path ^src <a> ^dst <b>)
 --> (make path ^src <a> ^dst <b>))
(p tc-extend (path ^src <a> ^dst <b>) (edge ^src <b> ^dst <c>)
 -(path ^src <a> ^dst <c>) --> (make path ^src <a> ^dst <c>))
"""

#: Never quiesces: ``run --max-cycles`` ends by raising.
RUNAWAY = """
(literalize count value)
(p bump (count ^value <v>) --> (modify 1 ^value (compute <v> + 1)))
"""


def collector_state():
    return gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()


@pytest.fixture
def files(tmp_path):
    (tmp_path / "tc.pl").write_text(TC)
    (tmp_path / "tc.facts").write_text(
        "".join(f"(edge ^src n{i} ^dst n{i + 1})\n" for i in range(6))
    )
    (tmp_path / "runaway.pl").write_text(RUNAWAY)
    (tmp_path / "runaway.facts").write_text("(count ^value 0)\n")
    return tmp_path


@pytest.fixture
def seen_by_run(monkeypatch):
    """The collector's state as ``ParulelEngine.run`` finds it."""
    seen = []
    run = ParulelEngine.run

    def spying_run(self, *args, **kwargs):
        seen.append(collector_state())
        return run(self, *args, **kwargs)

    monkeypatch.setattr(ParulelEngine, "run", spying_run)
    return seen


class TestCliCommands:
    @pytest.mark.parametrize("command", ["run", "profile"])
    @pytest.mark.parametrize("matcher", ["treat", "process"])
    def test_schedule_holds_for_the_run_and_no_longer(
        self, files, seen_by_run, command, matcher
    ):
        before = collector_state()
        code = main(
            [command, str(files / "tc.pl"), "--facts", str(files / "tc.facts"),
             "--matcher", matcher]
        )
        assert code == 0
        assert collector_state() == before
        ((enabled, threshold, frozen),) = seen_by_run
        assert enabled == before[0]  # never switched off
        assert threshold == (GEN0_THRESHOLD,) + before[1][1:]
        assert frozen > 1000  # program, facts and matcher are out of sight

    def test_restored_when_the_run_raises(self, files, seen_by_run):
        before = collector_state()
        code = main(
            ["run", str(files / "runaway.pl"), "--facts",
             str(files / "runaway.facts"), "--max-cycles", "5",
             "--no-flight-recorder"]
        )
        assert code == 1  # cycle limit: reported, not raised past main
        assert len(seen_by_run) == 1
        assert collector_state() == before

    def test_restored_when_an_exception_escapes_main(self, files, monkeypatch):
        def boom(self, *args, **kwargs):
            raise RuntimeError("host function blew up")

        monkeypatch.setattr(ParulelEngine, "run", boom)
        before = collector_state()
        with pytest.raises(RuntimeError):
            main(["run", str(files / "tc.pl"), "--facts", str(files / "tc.facts")])
        assert collector_state() == before

    def test_other_commands_leave_it_alone(self, files, monkeypatch):
        def no_schedule(self):
            raise AssertionError("only run and profile schedule the collector")

        monkeypatch.setattr(CollectorSchedule, "__enter__", no_schedule)
        assert main(["check", str(files / "tc.pl")]) == 0
        assert main(["fmt", str(files / "tc.pl")]) == 0


class TestSchedule:
    def test_someone_elses_frozen_heap_is_not_touched(self):
        assert gc.get_freeze_count() == 0
        gc.freeze()
        try:
            theirs = gc.get_freeze_count()
            with CollectorSchedule() as schedule:
                schedule.freeze()
                assert gc.get_freeze_count() == theirs
            assert gc.get_freeze_count() == theirs
        finally:
            gc.unfreeze()

    def test_freezing_twice_is_freezing_once(self):
        before = collector_state()
        with CollectorSchedule() as schedule:
            schedule.freeze()
            frozen = gc.get_freeze_count()
            garbage = [[] for _ in range(100)]
            schedule.freeze()
            assert gc.get_freeze_count() == frozen
            del garbage
        assert collector_state() == before


class TestLibraryNeverTouchesIt:
    def test_engines_and_pools_leave_the_collector_alone(self):
        before = collector_state()
        for matcher in ("treat", "naive", "rete", "process:2"):
            with lab_engine(parse_program(TC), matcher) as engine:
                for i in range(5):
                    engine.make("edge", src=f"n{i}", dst=f"n{i + 1}")
                engine.run()
                assert collector_state() == before
        assert collector_state() == before

    def test_importing_the_package_does_not_import_or_set_anything(self):
        out = subprocess.run(
            [
                sys.executable,
                "-c",
                "import gc\n"
                "before = gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()\n"
                "import repro, repro.cli\n"
                "from repro import ParulelEngine, parse_program\n"
                "engine = ParulelEngine(parse_program('(p r (a ^k 1) --> (halt))'))\n"
                "engine.make('a', k=1); engine.run(); engine.close()\n"
                "after = gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()\n"
                "assert before == after, (before, after)\n"
                "print('ok')",
            ],
            capture_output=True,
            text=True,
        )
        assert out.stdout.strip() == "ok", out.stderr

    def test_gc_is_named_by_the_schedule_and_the_profiler_only(self):
        import pathlib
        import re

        import repro

        root = pathlib.Path(repro.__file__).parent
        users = sorted(
            str(path.relative_to(root))
            for path in root.rglob("*.py")
            if re.search(r"^\s*(import gc\b|from gc\b)", path.read_text(), re.M)
        )
        assert users == ["collector.py", "obs/profile.py"]
