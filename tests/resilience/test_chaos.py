"""Chaos differential: crash + corruption + recovery == clean run.

These run the full :mod:`repro.resilience.chaos` scenario — real worker
processes, real SIGKILLs, a truncated checkpoint, and (columnar) a live
segment unlinked out from under the pool — so they carry ``slow`` and
explicit timeouts. ``scripts/check.sh --resilience`` runs the same
scenarios across more seeds from the command line.
"""

import pytest

from repro.resilience.chaos import kill_columnar_child, run_chaos

pytestmark = pytest.mark.faults


class TestChaosDifferential:
    @pytest.mark.slow
    @pytest.mark.timeout(180)
    def test_dict_backend_recovers_byte_identically(self):
        result = run_chaos(workload="tc", backend="dict", seed=0)
        assert result.ok, result.summary()
        assert result.error is None  # the crash was the seeded stop
        # The scenario actually exercised recovery machinery.
        assert result.fault_kinds.get("kill", 0) >= 1
        assert result.skipped, "truncated checkpoint should have been skipped"
        assert result.restored_cycle < result.clean_cycles

    @pytest.mark.slow
    @pytest.mark.timeout(180)
    def test_columnar_backend_recovers_byte_identically(self):
        result = run_chaos(workload="tc", backend="columnar", seed=0)
        assert result.ok, result.summary()
        assert result.fault_kinds.get("kill", 0) >= 1
        # Seed 0 kills a worker after its segment was unlinked: the
        # respawned worker cannot re-attach, and the run ends in a typed
        # error naming the site — which recovery still undoes exactly.
        assert result.error is not None
        assert result.error.startswith("match worker for site 1 failed: ")
        assert "FileNotFoundError" in result.error
        assert result.restored_cycle < result.crash_cycle

    @pytest.mark.slow
    @pytest.mark.timeout(120)
    def test_different_seed_still_recovers(self):
        result = run_chaos(workload="tc", backend="dict", seed=2)
        assert result.ok, result.summary()


class TestJanitorAfterKill:
    @pytest.mark.slow
    @pytest.mark.timeout(120)
    def test_sigkilled_owner_segments_are_reclaimed(self):
        names, removed = kill_columnar_child()
        assert names, "child should have reported its segments"
        assert set(names) <= set(removed)
