"""CLI resume robustness: corrupt checkpoints fail typed, stores fall back.

Coverage for the ``--resume`` path: a missing, truncated, or
digest-flipped checkpoint must exit 1 with an error naming the file —
never a raw traceback — and a rotating store directory must resume from
the newest checkpoint that verifies, warning about what it skipped. The
CLI writes only stores; the bare envelope files here are written through
the library, because ``--resume`` still reads them.
"""

import os
import subprocess

import pytest

from repro.cli import main
from repro.core import ParulelEngine
from repro.lang import parse_program
from repro.resilience.checkpoint import (
    CheckpointStore,
    read_envelope,
    write_envelope,
)
from repro.wm.columnar import SEGMENT_PREFIX

COUNTER = """
(literalize count value)
(literalize audit value)
(p bump
    (count ^value {<v> < 10})
    -->
    (modify 1 ^value (compute <v> + 1))
    (make audit ^value <v>))
"""


@pytest.fixture
def counter_file(tmp_path):
    path = tmp_path / "counter.pl"
    path.write_text(COUNTER)
    return str(path)


@pytest.fixture
def counter_facts(tmp_path):
    path = tmp_path / "counter-facts.pl"
    path.write_text("(count ^value 0)\n")
    return str(path)


def write_checkpoint(ckpt, cycles=4):
    """A bare envelope file of the counter after ``cycles`` cycles."""
    with ParulelEngine(parse_program(COUNTER)) as engine:
        engine.make("count", value=0)
        for _ in range(cycles):
            engine.step()
        write_envelope(ckpt, engine.checkpoint())


class TestResumeFailures:
    def test_missing_checkpoint_exits_1_naming_path(self, counter_file, capsys):
        missing = counter_file + ".nope"
        rc = main(["run", counter_file, "--resume", missing])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert missing in err

    def test_truncated_checkpoint_exits_1(
        self, counter_file, counter_facts, tmp_path, capsys
    ):
        ckpt = str(tmp_path / "torn.ckpt")
        write_checkpoint(ckpt)
        size = os.path.getsize(ckpt)
        with open(ckpt, "r+b") as fh:
            fh.truncate(size // 2)
        rc = main(["run", counter_file, "--resume", ckpt])
        assert rc == 1
        err = capsys.readouterr().err
        assert "corrupt checkpoint" in err
        assert ckpt in err

    def test_digest_mismatch_exits_1(
        self, counter_file, counter_facts, tmp_path, capsys
    ):
        ckpt = str(tmp_path / "flip.ckpt")
        write_checkpoint(ckpt)
        with open(ckpt, "rb") as fh:
            blob = bytearray(fh.read())
        blob[-2] ^= 0xFF
        with open(ckpt, "wb") as fh:
            fh.write(blob)
        rc = main(["run", counter_file, "--resume", ckpt])
        assert rc == 1
        err = capsys.readouterr().err
        assert "corrupt checkpoint" in err
        assert "digest" in err

    def test_empty_store_dir_exits_1(self, counter_file, tmp_path, capsys):
        store = tmp_path / "store"
        store.mkdir()
        rc = main(["run", counter_file, "--resume", str(store)])
        assert rc == 1
        assert "no full checkpoint" in capsys.readouterr().err

    def test_delta_file_alone_exits_1(self, counter_file, tmp_path, capsys):
        bare = str(tmp_path / "bare.delta")
        write_envelope(bare, {"base_cycle": 1}, kind="delta")
        rc = main(["run", counter_file, "--resume", bare])
        assert rc == 1
        assert "base snapshot" in capsys.readouterr().err

    def test_bare_file_resumes_to_the_straight_run(
        self, counter_file, counter_facts, tmp_path, capsys
    ):
        ckpt = str(tmp_path / "old.ckpt")
        write_checkpoint(ckpt)
        rc = main(["run", counter_file, "--resume", ckpt,
                   "--dump-wm", str(tmp_path / "resumed.wm")])
        assert rc == 0
        assert "skipped" not in capsys.readouterr().err
        rc = main(["run", counter_file, "--facts", counter_facts,
                   "--dump-wm", str(tmp_path / "straight.wm")])
        assert rc == 0
        assert (tmp_path / "resumed.wm").read_text() == (
            tmp_path / "straight.wm"
        ).read_text()

    def test_checkpoint_path_that_is_a_file_exits_2_before_running(
        self, counter_file, counter_facts, tmp_path, capsys
    ):
        # A file left where the store goes (the old single-file format's
        # default name among them) is refused before any cycle runs.
        old = tmp_path / "counter.pl.ckpt"
        write_checkpoint(str(old))
        before = old.read_bytes()
        rc = main(["run", counter_file, "--facts", counter_facts,
                   "--checkpoint-every", "1", "--trace"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: --checkpoint {old} is a file; checkpoints are now a "
            f"store directory (resume it with --resume {old}, then pass "
            f"--checkpoint DIR)\n"
        )
        assert old.read_bytes() == before


class TestStoreResume:
    def run_store(self, counter_file, counter_facts, store, capsys):
        rc = main(["run", counter_file, "--facts", counter_facts,
                   "--checkpoint-every", "1", "--checkpoint", store,
                   "--max-cycles", "6"])
        assert rc == 1
        capsys.readouterr()

    def test_store_resume_matches_straight_run(
        self, counter_file, counter_facts, tmp_path, capsys
    ):
        store = str(tmp_path / "store")
        self.run_store(counter_file, counter_facts, store, capsys)
        names = sorted(os.listdir(store))
        assert any(n.endswith(".full") for n in names)
        assert any(n.endswith(".delta") for n in names)
        rc = main(["run", counter_file, "--resume", store,
                   "--dump-wm", str(tmp_path / "resumed.wm")])
        assert rc == 0
        assert "skipped" not in capsys.readouterr().err
        rc = main(["run", counter_file, "--facts", counter_facts,
                   "--dump-wm", str(tmp_path / "straight.wm")])
        assert rc == 0
        resumed = (tmp_path / "resumed.wm").read_text()
        straight = (tmp_path / "straight.wm").read_text()
        assert resumed == straight

    def test_corrupt_newest_warns_and_falls_back(
        self, counter_file, counter_facts, tmp_path, capsys
    ):
        store = str(tmp_path / "store")
        self.run_store(counter_file, counter_facts, store, capsys)
        newest = sorted(os.listdir(store))[-1]
        victim = os.path.join(store, newest)
        with open(victim, "r+b") as fh:
            fh.truncate(os.path.getsize(victim) // 2)
        rc = main(["run", counter_file, "--resume", store,
                   "--dump-wm", str(tmp_path / "resumed.wm")])
        assert rc == 0
        err = capsys.readouterr().err
        assert f"warning: skipped corrupt checkpoint {victim}" in err
        rc = main(["run", counter_file, "--facts", counter_facts,
                   "--dump-wm", str(tmp_path / "straight.wm")])
        assert rc == 0
        assert (tmp_path / "resumed.wm").read_text() == (
            tmp_path / "straight.wm"
        ).read_text()


    def test_salvage_does_not_repeat_the_last_save(
        self, counter_file, counter_facts, tmp_path, capsys
    ):
        # The cycle limit falls on a checkpoint cycle: the salvage would
        # only write an empty delta of the save just made.
        store = str(tmp_path / "store")
        rc = main(["run", counter_file, "--facts", counter_facts,
                   "--checkpoint-every", "2", "--checkpoint", store,
                   "--max-cycles", "4"])
        assert rc == 1
        capsys.readouterr()
        names = sorted(os.listdir(store))
        cycles = [read_envelope(os.path.join(store, n))[1]["cycle"]
                  for n in names]
        assert cycles == [2, 4]
        load = CheckpointStore(store).load()
        assert load.state["cycle"] == 4 and not load.skipped
        # A resumed run that completes no cycle has nothing to salvage.
        rc = main(["run", counter_file, "--resume", store,
                   "--checkpoint-every", "2", "--checkpoint", store,
                   "--max-cycles", "0"])
        assert rc == 1
        assert sorted(os.listdir(store)) == names

    def test_resume_and_continue_into_the_same_store(
        self, counter_file, counter_facts, tmp_path, capsys
    ):
        store = str(tmp_path / "store")
        self.run_store(counter_file, counter_facts, store, capsys)
        rc = main(["run", counter_file, "--resume", store,
                   "--checkpoint-every", "1", "--checkpoint", store,
                   "--max-cycles", "2"])
        assert rc == 1
        assert "skipped" not in capsys.readouterr().err
        assert CheckpointStore(store).load().state["cycle"] == 8
        rc = main(["run", counter_file, "--resume", store,
                   "--dump-wm", str(tmp_path / "resumed.wm")])
        assert rc == 0
        assert "skipped" not in capsys.readouterr().err
        rc = main(["run", counter_file, "--facts", counter_facts,
                   "--dump-wm", str(tmp_path / "straight.wm")])
        assert rc == 0
        assert (tmp_path / "resumed.wm").read_bytes() == (
            tmp_path / "straight.wm"
        ).read_bytes()


class TestStoreFlagValidation:
    def test_checkpoint_without_a_cadence_is_refused(
        self, counter_file, tmp_path, monkeypatch, capsys
    ):
        # Without --checkpoint-every, --checkpoint would do nothing.
        monkeypatch.chdir(tmp_path)
        rc = main(["run", counter_file, "--checkpoint", "run.ckpt"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: --checkpoint requires --checkpoint-every" in err
        assert not (tmp_path / "run.ckpt").exists()


class TestJanitorCommand:
    def seg_for_dead_pid(self, tmp_path):
        proc = subprocess.Popen(["true"])
        proc.wait()
        name = f"{SEGMENT_PREFIX}{proc.pid:08x}p0011aabbj0000"
        (tmp_path / name).write_text("x")
        return name

    def test_dry_run_reports_to_stdout(self, tmp_path, capsys):
        name = self.seg_for_dead_pid(tmp_path)
        rc = main(["janitor", "--shm-dir", str(tmp_path), "--dry-run"])
        assert rc == 0
        out, err = capsys.readouterr()
        assert f"would remove {name}" in out
        assert "would remove 1 orphaned segment(s)" in err
        assert (tmp_path / name).exists()

    def test_sweep_removes_and_verbose_explains_kept(self, tmp_path, capsys):
        dead = self.seg_for_dead_pid(tmp_path)
        live = f"{SEGMENT_PREFIX}{os.getpid():08x}p0011aabbj0000"
        (tmp_path / live).write_text("x")
        rc = main(["janitor", "--shm-dir", str(tmp_path), "--verbose"])
        assert rc == 0
        out, err = capsys.readouterr()
        assert f"removed {dead}" in out
        assert not (tmp_path / dead).exists()
        assert (tmp_path / live).exists()
        assert f"owner pid {os.getpid()} is alive" in err
