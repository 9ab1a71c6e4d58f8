"""Process-backend tests for the columnar shared-memory store.

Covers the shared-attach protocol end to end: workers attach segments and
refresh from the journal instead of receiving pickled deltas, results stay
byte-identical to the dict store, respawned workers re-attach correctly,
the IPC byte metrics are exact, and the bounded-deadline receive path
fails over to a dead worker's respawn in a fraction of the configured
timeout.
"""

import glob
import pickle
import time

import pytest

from repro.core import EngineConfig, ParulelEngine
from repro.lab.rete import create_lab_matcher
from repro.lang.parser import parse_program
from repro.match.interface import PoolConfig
from repro.obs.metrics import MetricsRegistry
from repro.parallel.process import ProcessMatchPool
from repro.programs import REGISTRY
from repro.programs.synthetic import build_scale_workload
from repro.resilience import FaultPlan, WorkerKill
from repro.wm.columnar import ColumnarWorkingMemory
from repro.wm.memory import DeltaRecorder, WorkingMemory
from tests.lab_engine import lab_engine

SRC = """
(p j0 (a0 ^k <k>) (b0 ^k <k>) --> (halt))
(p j1 (a1 ^k <k>) (b1 ^k <k>) --> (halt))
(p neg (a0 ^k <k>) -(b1 ^k <k>) --> (halt))
"""


def load(wm, n=6):
    for r in range(2):
        for i in range(n):
            wm.make(f"a{r}", k=i % 3)
            wm.make(f"b{r}", k=i % 3)


def keys(insts):
    return sorted(i.key for i in insts)


class TestColumnarPool:
    def test_agrees_with_rete_and_tracks_churn(self):
        prog = parse_program(SRC)
        wm = ColumnarWorkingMemory()
        try:
            rete = create_lab_matcher("rete", prog.rules, wm)
            load(wm)
            with ProcessMatchPool(prog.rules, wm, 2) as pool:
                assert keys(pool.conflict_set()) == keys(rete.instantiations())
                live = list(wm.by_class("a0"))
                wm.remove(live[0])
                wm.make("a0", k=2)
                wm.make("b1", k=2)
                assert keys(pool.conflict_set()) == keys(rete.instantiations())
        finally:
            wm.close()

    def test_instantiations_reference_parent_wme_objects(self):
        prog = parse_program(SRC)
        wm = ColumnarWorkingMemory()
        try:
            a = wm.make("a0", k=1)
            b = wm.make("b0", k=1)
            with ProcessMatchPool(prog.rules, wm, 2) as pool:
                insts = [i for i in pool.conflict_set() if i.rule.name == "j0"]
            assert len(insts) == 1
            assert insts[0].wmes[0] is a
            assert insts[0].wmes[1] is b
        finally:
            wm.close()

    def test_engine_run_byte_identical_to_dict_store(self):
        results = {}
        for backend in ("dict", "columnar"):
            wl = REGISTRY["tc"]()
            engine = ParulelEngine(
                wl.program,
                EngineConfig(matcher="process:2", wm_backend=backend),
            )
            try:
                wl.setup(engine)
                run = engine.run()
                results[backend] = (
                    run.cycles,
                    run.firings,
                    run.output,
                    engine.wm.dump_records(),
                )
                assert wl.verify(engine.wm)
            finally:
                engine.close()
        assert results["dict"] == results["columnar"]

    def test_killed_worker_reattaches_and_agrees(self):
        prog = parse_program(SRC)
        wm = ColumnarWorkingMemory()
        try:
            rete = create_lab_matcher("rete", prog.rules, wm)
            load(wm)
            plan = FaultPlan(kills=(WorkerKill(cycle=2, site=0),))
            with ProcessMatchPool(
                prog.rules, wm, 2, PoolConfig(fault_plan=plan)
            ) as pool:
                assert keys(pool.conflict_set()) == keys(rete.instantiations())
                wm.make("a0", k=0)
                # Cycle 2: site 0's worker is SIGKILLed before the request;
                # the respawned worker must re-attach the shared segments
                # (including rows journaled since its predecessor attached).
                assert keys(pool.conflict_set()) == keys(rete.instantiations())
                assert pool.respawns >= 1
                wm.make("b1", k=0)
                assert keys(pool.conflict_set()) == keys(rete.instantiations())
        finally:
            wm.close()

    def test_close_releases_listener_and_segments_outlive_pool(self):
        prog = parse_program(SRC)
        wm = ColumnarWorkingMemory()
        try:
            pool = ProcessMatchPool(prog.rules, wm, 2)
            pool.close()
            wm.make("a0", k=0)  # must not notify a closed pool
        finally:
            wm.close()
        assert not glob.glob(f"/dev/shm/{wm.token}*")


class TestVectorProbe:
    """The column-scan probe kernel through the pool: columnar workers
    build alpha state from shared-column scans (``ColumnVectorCache``),
    never a replica WM, and must stay byte-identical to RETE."""

    def test_pool_agrees_with_rete(self):
        prog = parse_program(SRC)
        wm = ColumnarWorkingMemory()
        try:
            rete = create_lab_matcher("rete", prog.rules, wm)
            load(wm)
            with ProcessMatchPool(prog.rules, wm, 2) as pool:
                assert keys(pool.conflict_set()) == keys(rete.instantiations())
                # churn incl. a value only the fallback path can key
                wm.remove(list(wm.by_class("a0"))[0])
                wm.make("a0", k=2)
                wm.make("a0", k=2**70)
                wm.make("b0", k=2**70)
                assert keys(pool.conflict_set()) == keys(rete.instantiations())
        finally:
            wm.close()

    def test_engine_run_byte_identical_to_rete(self):
        results = {}
        for matcher, backend in (("process:2", "columnar"), ("rete", "dict")):
            wl = REGISTRY["tc"]()
            engine = lab_engine(wl.program, matcher, EngineConfig(wm_backend=backend))
            try:
                wl.setup(engine)
                run = engine.run()
                results[matcher] = (
                    run.cycles,
                    run.firings,
                    run.output,
                    engine.wm.dump_records(),
                )
                assert wl.verify(engine.wm)
            finally:
                engine.close()
        assert results["process:2"] == results["rete"]

    def test_columnar_workers_report_column_scans(self):
        from repro.obs.profile import VECTOR_SCAN_ROWS

        prog = parse_program(SRC)
        wm = ColumnarWorkingMemory()
        try:
            load(wm)
            metrics = MetricsRegistry()
            with ProcessMatchPool(prog.rules, wm, 2, metrics=metrics) as pool:
                pool.conflict_set()
                wm.make("a0", k=1)
                pool.conflict_set()
            assert sum(metrics.series(VECTOR_SCAN_ROWS).values()) > 0
        finally:
            wm.close()


class TestByteAccounting:
    def test_columnar_ships_10x_fewer_bytes(self):
        """The acceptance bar, at test scale: a bulky inert WM plus small
        churn must cost >= 10x fewer request bytes under the columnar
        store than under delta shipping."""
        wl = build_scale_workload(n_facts=3000, n_keys=30, churn_block=20)
        totals = {}
        images = {}
        for backend in ("dict", "columnar"):
            wm = (
                ColumnarWorkingMemory(wl.fresh_wm().templates)
                if backend == "columnar"
                else wl.fresh_wm()
            )
            try:
                block = wl.load(wm)
                metrics = MetricsRegistry()
                with ProcessMatchPool(
                    wl.program.rules, wm, 2, metrics=metrics
                ) as pool:
                    imgs = [keys(pool.conflict_set())]
                    for step in range(3):
                        block = wl.churn(wm, block, step + 1)
                        imgs.append(keys(pool.conflict_set()))
                totals[backend] = sum(
                    metrics.series("parulel_ipc_bytes_total").values()
                )
                images[backend] = imgs
            finally:
                if backend == "columnar":
                    wm.close()
        assert images["dict"] == images["columnar"]
        assert totals["dict"] >= 10 * totals["columnar"], totals

    def test_delta_mode_byte_metric_is_exact(self):
        """The metric must equal the pickled request blob's length exactly
        (the old scatter path measured a *second* pickle of only the
        payload — off by the envelope and doubled the serialization work)."""
        prog = parse_program(SRC)
        wm = WorkingMemory()
        shadow = WorkingMemory()
        load(wm)
        load(shadow)
        shadow_recorder = DeltaRecorder(shadow)
        metrics = MetricsRegistry()
        with ProcessMatchPool(prog.rules, wm, 1, metrics=metrics) as pool:
            pool.conflict_set()
            expected = len(
                pickle.dumps(
                    ("match", [shadow_recorder.drain().wire()], ()),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            )
            assert metrics.counter_value(
                "parulel_ipc_bytes_total", site=0
            ) == expected

    def test_columnar_byte_metric_is_exact(self):
        prog = parse_program(SRC)
        wm = ColumnarWorkingMemory()
        try:
            load(wm)
            metrics = MetricsRegistry()
            with ProcessMatchPool(prog.rules, wm, 1, metrics=metrics) as pool:
                # Drain structural dirt first so the expected cursor-only
                # message below matches what the pool will ship.
                wm.cycle_info()
                expected = len(
                    pickle.dumps(
                        ("attach", wm.attach_spec()),
                        protocol=pickle.HIGHEST_PROTOCOL,
                    )
                ) + len(
                    pickle.dumps(
                        ("match-shm", wm.refresh_info(), ()),
                        protocol=pickle.HIGHEST_PROTOCOL,
                    )
                )
                pool.conflict_set()
                assert metrics.counter_value(
                    "parulel_ipc_bytes_total", site=0
                ) == expected
        finally:
            wm.close()


class TestBoundedRecv:
    @pytest.mark.parametrize("backend", ["dict", "columnar"])
    def test_dead_worker_fails_over_long_before_timeout(self, backend):
        """A worker that dies after the request is sent must be detected by
        liveness polling in well under the reply deadline — the hang this
        fix removes would burn the full 60 s (or block forever when no
        timeout was configured)."""
        prog = parse_program(SRC)
        wm = ColumnarWorkingMemory() if backend == "columnar" else WorkingMemory()
        try:
            load(wm)
            plan = FaultPlan(kills=(WorkerKill(cycle=2, site=0),))
            with ProcessMatchPool(
                prog.rules, wm, 2, PoolConfig(timeout=60.0, fault_plan=plan)
            ) as pool:
                rete = create_lab_matcher("rete", prog.rules, wm)
                pool.conflict_set()
                start = time.monotonic()
                assert keys(pool.conflict_set()) == keys(rete.instantiations())
                elapsed = time.monotonic() - start
            assert elapsed < 30.0, (
                f"failover took {elapsed:.1f}s with a 60s deadline"
            )
        finally:
            if backend == "columnar":
                wm.close()
