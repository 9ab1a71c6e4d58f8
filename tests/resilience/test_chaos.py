"""Chaos differential: crash + corruption + recovery == clean run.

These run the full :mod:`repro.resilience.chaos` scenario — real worker
processes, a real SIGKILL that ends the run in ``MatchError``, a truncated
checkpoint, and (columnar) a live segment unlinked out from under the
store — so they carry ``slow`` and explicit timeouts. ``scripts/check.sh --resilience`` runs the same
scenarios across more seeds from the command line.
"""

import re

import pytest

from repro.resilience.chaos import kill_columnar_child, run_chaos

pytestmark = pytest.mark.faults


class TestChaosDifferential:
    @pytest.mark.slow
    @pytest.mark.timeout(180)
    def test_dict_backend_recovers_byte_identically(self):
        result = run_chaos(workload="tc", backend="dict", seed=0)
        assert result.ok, result.summary()
        # The SIGKILL was the crash: the run ended naming the killed site.
        assert result.fault_kinds == {"kill": 1}
        assert result.error.startswith("match worker for site 1 lost: ")
        assert result.skipped, "truncated checkpoint should have been skipped"
        assert result.restored_cycle < result.clean_cycles

    @pytest.mark.slow
    @pytest.mark.timeout(180)
    def test_columnar_backend_recovers_byte_identically(self):
        result = run_chaos(workload="tc", backend="columnar", seed=0)
        assert result.ok, result.summary()
        assert result.fault_kinds == {"kill": 1, "unlink": 1}
        # The run ends in a typed error naming the killed site — which
        # recovery still undoes exactly.
        assert result.error.startswith("match worker for site 1 lost: ")
        assert result.restored_cycle < result.crash_cycle

    @pytest.mark.slow
    @pytest.mark.timeout(120)
    def test_different_seed_still_recovers(self):
        result = run_chaos(workload="tc", backend="dict", seed=2)
        assert result.ok, result.summary()

    @pytest.mark.slow
    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("seed", [1, 3, 4, 5])
    @pytest.mark.parametrize("backend", ["dict", "columnar"])
    def test_every_seed_ends_in_the_killed_sites_error_and_recovers(
        self, backend, seed
    ):
        """Whichever site and cycle the seed picks, the kill is the crash
        point and recovery still reproduces the clean run byte for byte."""
        result = run_chaos(workload="tc", backend=backend, seed=seed)
        assert result.ok, result.summary()
        assert result.fault_kinds["kill"] == 1
        assert re.match(
            r"match worker for site [01] lost: .*exited with code -9$", result.error
        ), result.error
        assert result.restored_cycle < result.crash_cycle < result.clean_cycles


class TestJanitorAfterKill:
    @pytest.mark.slow
    @pytest.mark.timeout(120)
    def test_sigkilled_owner_segments_are_reclaimed(self):
        names, removed = kill_columnar_child()
        assert names, "child should have reported its segments"
        assert set(names) <= set(removed)
