"""Shared-memory janitor: reclaim orphans, never touch live segments.

The sweep runs against a temporary directory standing in for /dev/shm,
with fabricated segment names — no real shared memory involved, so these
tests are fast and hermetic. The one live-process fact used is our own
pid (alive) versus a freshly reaped child pid (dead).
"""

import mmap
import os
import subprocess
import time

import pytest

from repro.obs.flightrec import FLIGHT_PREFIX
from repro.resilience.janitor import DEFAULT_PREFIXES, JanitorReport, sweep_orphans
from repro.wm.columnar import SEGMENT_PREFIX, parse_owner_pid


def dead_pid():
    """A pid that existed a moment ago and is certainly gone now."""
    proc = subprocess.Popen(["true"])
    proc.wait()
    return proc.pid


def seg_name(pid):
    return f"{SEGMENT_PREFIX}{pid:08x}p0011aabbj0000"


def touch(shm_dir, name, age=0.0):
    path = os.path.join(str(shm_dir), name)
    with open(path, "w") as fh:
        fh.write("x")
    if age:
        past = time.time() - age
        os.utime(path, (past, past))
    return path


class TestParseOwnerPid:
    def test_new_format_roundtrips(self):
        assert parse_owner_pid(seg_name(0x1234)) == 0x1234

    @pytest.mark.parametrize(
        "name",
        [
            "pwm0011aabbj0000",  # legacy: kind letter where 'p' would be
            "pwm0011aabbh0000",
            "pwm0011aabbc0000",
            "pwmshort",
            "pwmzzzzzzzzp0000",  # not hex
            "other00000001p00",  # wrong prefix
        ],
    )
    def test_legacy_and_foreign_names_return_none(self, name):
        assert parse_owner_pid(name) is None


class TestSweep:
    def test_dead_owner_removed_live_owner_kept(self, tmp_path):
        dead = seg_name(dead_pid())
        live = seg_name(os.getpid())
        touch(tmp_path, dead)
        touch(tmp_path, live)
        report = sweep_orphans(shm_dir=str(tmp_path))
        assert report.removed == [dead]
        assert not os.path.exists(tmp_path / dead)
        assert os.path.exists(tmp_path / live)
        assert (live, f"owner pid {os.getpid()} is alive") in report.kept

    # A name ``parse_owner_pid`` cannot read (the pid-less format of old
    # stores included) is foreign: no sweep unlinks it, at any age, mapped
    # or not.

    def test_legacy_young_segment_kept(self, tmp_path):
        name = "pwm0011aabbj0000"
        path = touch(tmp_path, name)  # just created
        with open(path, "r+b") as fh, mmap.mmap(fh.fileno(), 0):
            report = sweep_orphans(shm_dir=str(tmp_path))
        assert report.removed == []
        assert os.path.exists(path)
        assert (name, "no owner pid in name") in report.kept

    def test_legacy_old_unmapped_segment_kept(self, tmp_path):
        name = "pwm0011aabbj0000"
        path = touch(tmp_path, name, age=120.0)
        report = sweep_orphans(shm_dir=str(tmp_path))
        assert report.removed == []
        assert os.path.exists(path)
        assert (name, "no owner pid in name") in report.kept

    def test_foreign_names_untouched(self, tmp_path):
        touch(tmp_path, "psm_someone_elses")
        touch(tmp_path, "unrelated", age=120.0)
        report = sweep_orphans(shm_dir=str(tmp_path))
        assert report.removed == []
        assert report.kept == []
        assert sorted(os.listdir(tmp_path)) == ["psm_someone_elses", "unrelated"]

    def test_dry_run_reports_without_unlinking(self, tmp_path):
        dead = seg_name(dead_pid())
        touch(tmp_path, dead)
        report = sweep_orphans(shm_dir=str(tmp_path), dry_run=True)
        assert report.removed == [dead]
        assert report.dry_run
        assert os.path.exists(tmp_path / dead)
        assert "would remove 1" in str(report)

    def test_missing_shm_dir_is_a_noop(self, tmp_path):
        report = sweep_orphans(shm_dir=str(tmp_path / "nope"))
        assert report.removed == []
        assert report.kept == []

    def test_report_str_counts(self):
        report = JanitorReport(removed=["a", "b"], kept=[("c", "why")])
        assert "removed 2" in str(report)
        assert "kept 1" in str(report)


def flight_name(pid):
    return f"{FLIGHT_PREFIX}{pid:08x}p0011aabb"


class TestFlightRecorderSegments:
    """Orphaned ``pfr*`` flight-recorder rings are reclaimed by the same
    sweep that handles columnar WM segments (DEFAULT_PREFIXES covers both
    families)."""

    def test_default_prefixes_cover_both_families(self):
        assert SEGMENT_PREFIX in DEFAULT_PREFIXES
        assert FLIGHT_PREFIX in DEFAULT_PREFIXES

    def test_orphaned_flight_ring_removed(self, tmp_path):
        dead = flight_name(dead_pid())
        touch(tmp_path, dead)
        report = sweep_orphans(shm_dir=str(tmp_path))
        assert report.removed == [dead]
        assert not os.path.exists(tmp_path / dead)

    def test_live_owner_flight_ring_kept(self, tmp_path):
        live = flight_name(os.getpid())
        touch(tmp_path, live)
        report = sweep_orphans(shm_dir=str(tmp_path))
        assert report.removed == []
        assert os.path.exists(tmp_path / live)
        assert (live, f"owner pid {os.getpid()} is alive") in report.kept

    def test_mixed_families_one_sweep(self, tmp_path):
        gone = dead_pid()
        dead_wm = seg_name(gone)
        dead_fr = flight_name(gone)
        live_fr = flight_name(os.getpid())
        for name in (dead_wm, dead_fr, live_fr):
            touch(tmp_path, name)
        report = sweep_orphans(shm_dir=str(tmp_path))
        assert sorted(report.removed) == sorted([dead_wm, dead_fr])
        assert os.path.exists(tmp_path / live_fr)

    def test_single_prefix_opt_out_skips_flight_rings(self, tmp_path):
        dead_fr = flight_name(dead_pid())
        touch(tmp_path, dead_fr)
        report = sweep_orphans(shm_dir=str(tmp_path), prefix=SEGMENT_PREFIX)
        assert report.removed == []
        assert os.path.exists(tmp_path / dead_fr)

    def test_real_orphan_from_sigkilled_recorder(self):
        """End to end against real /dev/shm: a child process creates a
        recorder ring and is SIGKILLed (no cleanup); the sweep reclaims
        the segment because its embedded owner pid is dead."""
        import sys

        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        code = (
            "import os, signal\n"
            "from repro.obs.flightrec import FlightRing\n"
            "ring = FlightRing(capacity=16, shared=True)\n"
            "if ring.name is None:\n"
            "    raise SystemExit(3)\n"
            "print(ring.name, flush=True)\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        with subprocess.Popen(
            [sys.executable, "-c", code],
            stdout=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": "src"},
            text=True,
        ) as proc:  # leaving closes stdout and waits
            name = proc.stdout.readline().strip()
        if proc.returncode == 3:
            pytest.skip("child could not create a shared ring")
        assert name.startswith(FLIGHT_PREFIX)
        assert os.path.exists(f"/dev/shm/{name}")
        report = sweep_orphans()
        assert name in report.removed
        assert not os.path.exists(f"/dev/shm/{name}")
