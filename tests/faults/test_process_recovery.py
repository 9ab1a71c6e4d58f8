"""Process-backend worker loss: fail-fast and bounded close().

A lost match worker ends the run: a SIGKILLed worker, a SIGSTOPped one
that misses the reply deadline and a worker that reports an error all
raise :class:`~repro.errors.MatchError` naming the site, the engine's
crash path leaves a decodable black box, and ``close()`` releases every
worker whatever state it is in.

These tests signal real worker processes, so they carry ``slow`` (excluded
from the fast gate) and explicit timeouts — a bug here should fail one
test, never hang the suite.
"""

import multiprocessing
import os
import pickle
import signal
import time

import pytest

from repro.cli import main
from repro.core import EngineConfig, ParulelEngine
from repro.errors import MatchError
from repro.lang.parser import parse_program
from repro.obs import MetricsRegistry, Tracer, validate_chrome_trace
from repro.obs.blackbox import load_blackbox
from repro.parallel import process
from repro.parallel.process import ProcessMatcher, ProcessMatchPool
from repro.programs import REGISTRY
from repro.resilience.janitor import sweep_orphans
from repro.wm.columnar import ColumnarWorkingMemory
from repro.wm.io import dumps as dump_wm_text
from repro.wm.memory import WorkingMemory

pytestmark = pytest.mark.faults

SRC = """
(p j0 (a0 ^k <k>) (b0 ^k <k>) --> (halt))
(p j1 (a1 ^k <k>) (b1 ^k <k>) --> (halt))
(p j2 (a2 ^k <k>) (b2 ^k <k>) --> (halt))
(p neg (a0 ^k <k>) -(b1 ^k <k>) --> (halt))
"""

TC = """
(literalize edge src dst)
(literalize path src dst)
(p tc-init (edge ^src <a> ^dst <b>) -(path ^src <a> ^dst <b>)
 --> (make path ^src <a> ^dst <b>))
(p tc-extend (path ^src <a> ^dst <b>) (edge ^src <b> ^dst <c>)
 -(path ^src <a> ^dst <c>) --> (make path ^src <a> ^dst <c>))
"""


def load(wm, n=6):
    for r in range(3):
        for i in range(n):
            wm.make(f"a{r}", k=i % 3)
            wm.make(f"b{r}", k=i % 3)


BACKENDS = ["dict", "columnar"]


def make_wm(backend):
    return ColumnarWorkingMemory() if backend == "columnar" else WorkingMemory()


def close_wm(wm):
    if isinstance(wm, ColumnarWorkingMemory):
        wm.close()


def tc_engine(wm_backend, workers=2, **config):
    """The registry's ``tc`` workload on ``workers`` match processes,
    loaded and not yet run."""
    workload = REGISTRY["tc"]()
    engine = ParulelEngine(
        workload.program,
        EngineConfig(
            matcher=f"process:{workers}", wm_backend=wm_backend, **config
        ),
    )
    workload.setup(engine)
    return engine


def own_segments():
    """``/dev/shm`` names whose owner pid is this process (``pwm*`` store
    columns and ``pfr*`` flight rings)."""
    pid = f"{os.getpid():08x}p"
    if not os.path.isdir("/dev/shm"):
        return []
    return [
        name
        for name in os.listdir("/dev/shm")
        if name.startswith(("pwm", "pfr")) and name[3:12] == pid
    ]


class TestWorkerLoss:
    @pytest.mark.slow
    @pytest.mark.timeout(60)
    @pytest.mark.parametrize(
        "workers,site", [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]
    )
    @pytest.mark.parametrize("wm_backend", BACKENDS)
    def test_a_killed_worker_ends_the_run_naming_its_site(
        self, tmp_path, wm_backend, workers, site
    ):
        workload = REGISTRY["tc"]()
        blackbox = str(tmp_path / "run.blackbox")

        def kill_after_cycle_2(report):
            if report.cycle == 2:
                engine.matcher.pool._procs[site].kill()

        engine = ParulelEngine(
            workload.program,
            EngineConfig(
                matcher=f"process:{workers}",
                wm_backend=wm_backend,
                blackbox_path=blackbox,
            ),
            trace=kill_after_cycle_2,
        )
        try:
            workload.setup(engine)
            start = time.monotonic()
            with pytest.raises(MatchError, match=rf"match worker for site {site} lost"):
                engine.run()
            # Liveness polling, not the 60 s deadline, ends the wait.
            assert time.monotonic() - start < 10.0
            assert engine.cycle == 2
        finally:
            engine.close()
        assert multiprocessing.active_children() == []
        bb = load_blackbox(blackbox)
        assert "MatchError" in bb.reason
        last = bb.last_in_flight(site)
        assert last is None or last[0] in {r.name for r in workload.program.rules}

    @pytest.mark.slow
    @pytest.mark.timeout(60)
    @pytest.mark.parametrize("kill_after", [0, 1, 3, 6])
    @pytest.mark.parametrize("wm_backend", BACKENDS)
    def test_a_lost_worker_commits_nothing_of_its_cycle(self, wm_backend, kill_after):
        """The failed cycle changes no working memory: what the run leaves
        is byte for byte what a serial run holds after the cycles that
        completed."""
        serial = ParulelEngine(
            REGISTRY["tc"]().program,
            EngineConfig(wm_backend=wm_backend, flight_recorder=False),
        )
        REGISTRY["tc"]().setup(serial)
        try:
            for _ in range(kill_after):
                serial.step()
            expected = dump_wm_text(serial.wm)
        finally:
            serial.close()
        engine = tc_engine(wm_backend, flight_recorder=False)
        try:
            for _ in range(kill_after):
                engine.step()
            engine.matcher.pool._procs[1].kill()
            with pytest.raises(MatchError, match="site 1 lost"):
                engine.step()
            assert engine.cycle == kill_after
            assert dump_wm_text(engine.wm) == expected
        finally:
            engine.close()
        assert multiprocessing.active_children() == []

    @pytest.mark.slow
    @pytest.mark.timeout(60)
    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("wm_backend", BACKENDS)
    def test_losing_every_worker_names_the_first_site(self, wm_backend, workers):
        engine = tc_engine(wm_backend, workers, flight_recorder=False)
        try:
            engine.step()
            for proc in engine.matcher.pool._procs.values():
                proc.kill()
                proc.join()
            with pytest.raises(MatchError, match="match worker for site 0 lost"):
                engine.run()
            assert engine.cycle == 1
        finally:
            engine.close()
        assert multiprocessing.active_children() == []

    @pytest.mark.slow
    @pytest.mark.timeout(60)
    @pytest.mark.parametrize(
        "how,code", [("sigkill", -9), ("sigterm", -15), ("stop", 0)]
    )
    @pytest.mark.parametrize("wm_backend", BACKENDS)
    def test_the_error_gives_the_workers_exit_code(self, wm_backend, how, code):
        """However the worker went, killed by a signal or exited cleanly
        out of turn, the error says how it ended."""
        prog = parse_program(SRC)
        wm = make_wm(wm_backend)
        try:
            load(wm)
            with ProcessMatchPool(prog.rules, wm, 2) as pool:
                assert pool.conflict_set()
                proc = pool._procs[1]
                if how == "stop":
                    pool._send_bytes(1, pickle.dumps(("stop",)))
                else:
                    os.kill(
                        proc.pid,
                        signal.SIGKILL if how == "sigkill" else signal.SIGTERM,
                    )
                proc.join(timeout=10.0)
                assert proc.exitcode == code
                wm.make("a0", k=0)
                with pytest.raises(
                    MatchError,
                    match=rf"site 1 lost: .*; the worker exited with code {code}$",
                ):
                    pool.conflict_set()
        finally:
            close_wm(wm)
        assert multiprocessing.active_children() == []

    @pytest.mark.slow
    @pytest.mark.timeout(60)
    @pytest.mark.parametrize("wm_backend", BACKENDS)
    def test_a_loss_after_retractions_raises_and_releases_everything(
        self, wm_backend
    ):
        prog = parse_program(SRC)
        wm = make_wm(wm_backend)
        try:
            load(wm)
            pool = ProcessMatchPool(prog.rules, wm, 2)
            try:
                before = len(pool.conflict_set())
                for wme in list(wm.by_class("b0")):
                    wm.remove(wme)
                assert len(pool.conflict_set()) < before
                pool._procs[0].kill()
                pool._procs[0].join()
                for wme in list(wm.by_class("a1")):
                    wm.remove(wme)
                with pytest.raises(MatchError, match="site 0 lost"):
                    pool.conflict_set()
            finally:
                pool.close()
            assert all(conn.closed for conn in pool._conns.values())
        finally:
            close_wm(wm)
        assert multiprocessing.active_children() == []
        assert own_segments() == []

    @pytest.mark.slow
    @pytest.mark.timeout(60)
    @pytest.mark.parametrize("wm_backend", BACKENDS)
    def test_a_pool_that_lost_a_worker_closes_promptly_and_stays_closed(
        self, wm_backend
    ):
        prog = parse_program(SRC)
        wm = make_wm(wm_backend)
        try:
            load(wm)
            pool = ProcessMatchPool(prog.rules, wm, 2)
            assert pool.conflict_set()
            pool._procs[1].kill()
            wm.make("a0", k=0)
            with pytest.raises(MatchError, match="site 1 lost"):
                pool.conflict_set()
            start = time.monotonic()
            pool.close()
            assert time.monotonic() - start < 10.0
            pool.close()  # idempotent
            with pytest.raises(MatchError, match="closed"):
                pool.conflict_set()
        finally:
            close_wm(wm)
        assert multiprocessing.active_children() == []

    @pytest.mark.slow
    @pytest.mark.timeout(60)
    def test_the_matcher_interface_raises_and_detach_stops_the_rest(self):
        prog = parse_program(SRC)
        wm = WorkingMemory()
        load(wm)
        matcher = ProcessMatcher(prog.rules, wm, 2)
        try:
            assert matcher.instantiations()
            matcher.pool._procs[0].kill()
            wm.make("b2", k=1)
            with pytest.raises(MatchError, match="site 0 lost"):
                matcher.instantiations()
        finally:
            matcher.detach()
        assert multiprocessing.active_children() == []

    @pytest.mark.slow
    @pytest.mark.timeout(60)
    @pytest.mark.parametrize("flight_recorder", [True, False])
    @pytest.mark.parametrize("site", [0, 1])
    def test_a_killed_columnar_run_strands_no_segment(
        self, tmp_path, site, flight_recorder
    ):
        engine = tc_engine(
            "columnar",
            flight_recorder=flight_recorder,
            blackbox_path=str(tmp_path / "run.blackbox"),
        )
        try:
            engine.step()
            assert own_segments()
            engine.matcher.pool._procs[site].kill()
            with pytest.raises(MatchError, match=f"site {site} lost"):
                engine.run()
        finally:
            engine.close()
        assert multiprocessing.active_children() == []
        assert own_segments() == []
        report = sweep_orphans(dry_run=True)
        mine = f"{os.getpid():08x}p"
        assert not [name for name in report.removed if mine in name]
        assert (tmp_path / "run.blackbox").exists() == flight_recorder

    @pytest.mark.slow
    @pytest.mark.timeout(60)
    @pytest.mark.parametrize("wm_backend", BACKENDS)
    def test_observability_stays_whole_through_a_loss(self, wm_backend):
        """A run cut short by a lost worker still leaves a well-formed
        trace and counts no recovery it no longer makes."""
        tracer = Tracer()
        metrics = MetricsRegistry()
        workload = REGISTRY["tc"]()
        engine = ParulelEngine(
            workload.program,
            EngineConfig(
                matcher="process:2", wm_backend=wm_backend, flight_recorder=False
            ),
            tracer=tracer,
            metrics=metrics,
        )
        workload.setup(engine)
        try:
            engine.step()
            engine.step()
            engine.matcher.pool._procs[1].kill()
            with pytest.raises(MatchError, match="site 1 lost"):
                engine.run()
        finally:
            engine.close()
        validate_chrome_trace(tracer.to_chrome())
        assert {"worker-0", "worker-1"} <= set(tracer.lanes())
        names = {name for name, _, _ in metrics.dump()["counters"]}
        names |= {name for name, _, _ in metrics.dump()["gauges"]}
        assert "parulel_ipc_messages_total" in names
        assert not {
            "parulel_worker_respawns_total",
            "parulel_fault_events_total",
            "parulel_site_mode",
        } & names

    @pytest.mark.slow
    @pytest.mark.timeout(60)
    @pytest.mark.skipif(not hasattr(signal, "SIGSTOP"), reason="needs SIGSTOP")
    @pytest.mark.parametrize("site", [0, 1])
    @pytest.mark.parametrize("wm_backend", BACKENDS)
    def test_a_sigstopped_worker_raises_at_the_deadline(
        self, monkeypatch, wm_backend, site
    ):
        monkeypatch.setattr(process, "DEFAULT_TIMEOUT", 1.0)
        prog = parse_program(SRC)
        wm = make_wm(wm_backend)
        try:
            load(wm)
            with ProcessMatchPool(prog.rules, wm, 2) as pool:
                assert pool.conflict_set()
                os.kill(pool._procs[site].pid, signal.SIGSTOP)
                wm.make("a0", k=0)
                start = time.monotonic()
                with pytest.raises(
                    MatchError,
                    match=rf"site {site} lost: no reply within the 1 s deadline$",
                ):
                    pool.conflict_set()
                elapsed = time.monotonic() - start
        finally:
            close_wm(wm)
        assert 1.0 <= elapsed < 10.0
        assert multiprocessing.active_children() == []

    @pytest.mark.slow
    @pytest.mark.timeout(60)
    @pytest.mark.skipif(not hasattr(signal, "SIGSTOP"), reason="needs SIGSTOP")
    @pytest.mark.parametrize("wm_backend", BACKENDS)
    def test_a_sigstopped_worker_ends_the_run_at_the_deadline(
        self, tmp_path, monkeypatch, wm_backend
    ):
        monkeypatch.setattr(process, "DEFAULT_TIMEOUT", 1.0)
        blackbox = str(tmp_path / "run.blackbox")
        engine = tc_engine(wm_backend, blackbox_path=blackbox)
        try:
            engine.step()
            os.kill(engine.matcher.pool._procs[1].pid, signal.SIGSTOP)
            with pytest.raises(MatchError, match="site 1 lost: no reply within"):
                engine.run()
            assert engine.cycle == 1
        finally:
            start = time.monotonic()
            engine.close()
            # close() kills what a grace join cannot stop.
            assert time.monotonic() - start < 10.0
        assert multiprocessing.active_children() == []
        assert load_blackbox(blackbox).reason.startswith(
            "MatchError: match worker for site 1 lost: no reply within"
        )

    @pytest.mark.slow
    @pytest.mark.timeout(60)
    @pytest.mark.parametrize("site", [0, 1])
    @pytest.mark.parametrize("wm_backend", BACKENDS)
    def test_a_worker_reported_error_still_raises(self, wm_backend, site):
        prog = parse_program(SRC)
        wm = make_wm(wm_backend)
        try:
            load(wm)
            with ProcessMatchPool(prog.rules, wm, 2) as pool:
                assert pool.conflict_set()
                # A delta that is no list of wire records fails in the
                # worker, which reports the exception instead of dying.
                pool._send_bytes(site, pickle.dumps(("match", 7, ())))
                with pytest.raises(
                    MatchError, match=rf"match worker for site {site} failed: "
                ):
                    pool._recv(site)
                assert pool._procs[site].is_alive()
        finally:
            close_wm(wm)
        assert multiprocessing.active_children() == []

    @pytest.mark.slow
    @pytest.mark.timeout(60)
    @pytest.mark.parametrize("site", [0, 1])
    def test_a_worker_reported_error_ends_the_run_with_a_blackbox(
        self, tmp_path, site
    ):
        blackbox = str(tmp_path / "run.blackbox")
        engine = tc_engine("dict", blackbox_path=blackbox)
        try:
            engine.step()
            # The bad request is answered first, at the next collect.
            engine.matcher.pool._send_bytes(site, pickle.dumps(("match", 7, ())))
            with pytest.raises(
                MatchError, match=rf"match worker for site {site} failed: TypeError"
            ):
                engine.run()
            assert engine.cycle == 1
        finally:
            engine.close()
        assert multiprocessing.active_children() == []
        bb = load_blackbox(blackbox)
        assert bb.reason.startswith(
            f"MatchError: match worker for site {site} failed: TypeError"
        )

    @staticmethod
    def _tc_files(tmp_path):
        program = tmp_path / "tc.pl"
        program.write_text(TC)
        facts = tmp_path / "tc.facts"
        facts.write_text(
            "\n".join(f"(edge ^src n{i} ^dst n{i + 1})" for i in range(8)) + "\n"
        )
        return program, facts

    @pytest.mark.slow
    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("site", [0, 1])
    @pytest.mark.parametrize("wm_backend", BACKENDS)
    def test_cli_run_exits_1_naming_the_site_and_leaves_nothing_behind(
        self, tmp_path, monkeypatch, capsys, wm_backend, site
    ):
        program, facts = self._tc_files(tmp_path)
        collect = ProcessMatchPool.conflict_set
        calls = []

        def kill_on_third_collect(pool):
            calls.append(None)
            if len(calls) == 3:
                pool._procs[site].kill()
                pool._procs[site].join()
            return collect(pool)

        monkeypatch.setattr(ProcessMatchPool, "conflict_set", kill_on_third_collect)
        code = main(
            [
                "run", str(program), "--facts", str(facts),
                "--matcher", "process", "--workers", "2",
                "--wm-backend", wm_backend,
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: match worker for site {site} lost" in err
        assert multiprocessing.active_children() == []
        assert own_segments() == []
        bb = load_blackbox(str(program) + ".blackbox")
        assert "MatchError" in bb.reason

    @pytest.mark.slow
    @pytest.mark.timeout(120)
    @pytest.mark.skipif(not hasattr(signal, "SIGSTOP"), reason="needs SIGSTOP")
    def test_cli_run_with_a_sigstopped_worker_exits_1_at_the_deadline(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(process, "DEFAULT_TIMEOUT", 1.0)
        program, facts = self._tc_files(tmp_path)
        collect = ProcessMatchPool.conflict_set
        calls = []

        def stop_on_second_collect(pool):
            calls.append(None)
            if len(calls) == 2:
                os.kill(pool._procs[0].pid, signal.SIGSTOP)
            return collect(pool)

        monkeypatch.setattr(ProcessMatchPool, "conflict_set", stop_on_second_collect)
        code = main(
            [
                "run", str(program), "--facts", str(facts),
                "--matcher", "process", "--workers", "2",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert (
            "error: match worker for site 0 lost: no reply within the 1 s deadline"
            in err
        )
        assert multiprocessing.active_children() == []


class TestBoundedClose:
    @pytest.mark.slow
    @pytest.mark.timeout(60)
    @pytest.mark.skipif(
        not hasattr(signal, "SIGSTOP"), reason="needs SIGSTOP"
    )
    def test_close_prompt_with_sigstopped_worker(self):
        prog = parse_program(SRC)
        wm = WorkingMemory()
        load(wm)
        pool = ProcessMatchPool(prog.rules, wm, 2)
        assert pool.conflict_set()
        victim = pool._procs[pool.active_sites[-1]]
        os.kill(victim.pid, signal.SIGSTOP)
        t0 = time.monotonic()
        pool.close()
        elapsed = time.monotonic() - t0
        # One 1.0 s grace join per worker, then SIGKILL; generous margin
        # for a loaded CI box, but nowhere near a hang.
        assert elapsed < 10.0
        assert not victim.is_alive()
        pool.close()  # idempotent

    @pytest.mark.slow
    @pytest.mark.timeout(60)
    def test_close_after_sigkilled_workers_closes_every_conn(self):
        """close() must close per-site connections even when the
        stop-send and join go wrong (workers already dead)."""
        prog = parse_program(SRC)
        wm = WorkingMemory()
        load(wm)
        pool = ProcessMatchPool(prog.rules, wm, 2)
        assert pool.conflict_set()
        conns = dict(pool._conns)
        for proc in pool._procs.values():
            proc.kill()
            proc.join()
        pool.close()
        for conn in conns.values():
            assert conn.closed
        pool.close()  # idempotent
