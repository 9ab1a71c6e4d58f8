"""CLI resume robustness: corrupt checkpoints fail typed, stores fall back.

Satellite coverage for the ``--resume`` path: a missing, truncated, or
digest-flipped checkpoint must exit 1 with an error naming the file —
never a raw traceback — and a rotating store directory must resume from
the newest checkpoint that verifies, warning about what it skipped.
"""

import os
import subprocess

import pytest

from repro.cli import main
from repro.resilience.checkpoint import write_envelope
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


def write_checkpoint(counter_file, counter_facts, ckpt, capsys):
    rc = main(["run", counter_file, "--facts", counter_facts,
               "--checkpoint-every", "2", "--checkpoint", ckpt,
               "--max-cycles", "4"])
    assert rc == 1  # cycle limit: the salvage checkpoint is written
    capsys.readouterr()


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
        write_checkpoint(counter_file, counter_facts, ckpt, capsys)
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
        write_checkpoint(counter_file, counter_facts, ckpt, capsys)
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


class TestStoreResume:
    def run_store(self, counter_file, counter_facts, store, capsys):
        rc = main(["run", counter_file, "--facts", counter_facts,
                   "--checkpoint-every", "1", "--checkpoint", store,
                   "--checkpoint-keep", "3", "--checkpoint-full-every", "2",
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


class TestStoreFlagValidation:
    def test_keep_requires_checkpoint_every(self, counter_file, capsys):
        rc = main(["run", counter_file, "--checkpoint-keep", "2"])
        assert rc == 2
        assert "requires --checkpoint-every" in capsys.readouterr().err

    def test_keep_rejects_nonpositive(self, counter_file, capsys):
        rc = main(["run", counter_file, "--checkpoint-every", "1",
                   "--checkpoint-keep", "0"])
        assert rc == 2
        assert "--checkpoint-keep must be >= 1" in capsys.readouterr().err

    def test_full_every_rejects_nonpositive(self, counter_file, capsys):
        rc = main(["run", counter_file, "--checkpoint-every", "1",
                   "--checkpoint-keep", "2", "--checkpoint-full-every", "0"])
        assert rc == 2
        assert "--checkpoint-full-every must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, refused",
        [
            (["--checkpoint", "run.ckpt"], "--checkpoint requires --checkpoint-every"),
            (
                ["--checkpoint-every", "1", "--checkpoint", "run.ckpt",
                 "--checkpoint-full-every", "2"],
                "--checkpoint-full-every requires --checkpoint-keep",
            ),
        ],
        ids=["checkpoint", "checkpoint-full-every"],
    )
    def test_a_flag_that_does_nothing_alone_is_refused(
        self, counter_file, tmp_path, monkeypatch, capsys, flags, refused
    ):
        # Without the flag it refines, the flag would do nothing.
        monkeypatch.chdir(tmp_path)
        rc = main(["run", counter_file, *flags])
        assert rc == 2
        assert f"error: {refused}" in capsys.readouterr().err
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
