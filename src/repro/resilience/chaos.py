"""Seeded chaos harness: kill things mid-run, prove recovery is *exact*.

The strongest claim the resilience layer makes is not "the run survives" —
it is "the recovered run is byte-identical to a run nothing happened to".
This module turns that claim into a differential test:

1. **Clean run.** Execute a bundled workload to quiescence on the serial
   RETE matcher; record the per-cycle firing sequence, the ``(write ...)``
   output, the cycle count, and the final working memory (as facts text —
   the byte-level artifact compared at the end).
2. **Chaos run.** Execute the same workload on the process match backend
   under a seeded :class:`~repro.resilience.FaultPlan` of real worker
   ``SIGKILL``\\ s — absorbed by the pool's one recovery policy (respawn,
   then match the site's share in the parent once its budget is spent) —
   and a rotating :class:`~repro.resilience.checkpoint.CheckpointStore`
   written every cycle. At a seeded cycle the run "crashes" (it simply
   stops — a real crash executes no cleanup either). With the columnar
   backend, a seeded mid-run fault also unlinks one live ``/dev/shm``
   segment, so a worker respawned after it cannot re-attach: the worker
   reports the error, the run ends in a typed
   :class:`~repro.errors.MatchError` naming the site
   (:attr:`ChaosResult.error`), and the engine's cycle at that moment is
   the crash point.
3. **Corruption.** The newest checkpoint file is truncated at a seeded
   offset — the torn write a ``kill -9`` during checkpointing produces.
4. **Recovery.** A fresh engine restores from the store (which must fall
   back past the torn file to the last checkpoint that verifies) and runs
   to completion.
5. **Verdict.** The merged firing sequence (chaos-run cycles up to the
   restore point + recovered cycles), the output, the cycle count, and
   the final WM bytes must all equal the clean run's, for ``dict`` and
   ``columnar`` WM backends alike.
6. **Black box.** The chaos engine runs with the (default-on) flight
   recorder and a pinned dump path. The injected worker ``SIGKILL``\\ s
   must have produced a ``*.blackbox`` dump that decodes
   (:func:`~repro.obs.blackbox.load_blackbox`), and for every killed
   site whose ring saw any match work, the post-mortem "last in-flight
   rule" query must name a rule of the program — the shared-memory ring
   outlives the killed worker, which is the recorder's core claim.
7. **Janitor.** A child process building a columnar store is SIGKILLed
   mid-life (leaving real orphaned segments);
   :func:`~repro.resilience.janitor.sweep_orphans` must reclaim exactly
   those segments — the default sweep also covers orphaned
   flight-recorder rings — and a final sweep must find nothing left
   behind by the chaos run itself.

Run it directly (``scripts/check.sh --resilience`` does)::

    python -m repro.resilience.chaos --workload tc --backend columnar --seed 7
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import random
import signal
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core import EngineConfig, ParulelEngine
from repro.errors import MatchError
from repro.match.interface import PoolConfig
from repro.obs.blackbox import load_blackbox
from repro.programs import REGISTRY
from repro.resilience.checkpoint import CheckpointStore, EngineCheckpointer
from repro.resilience.janitor import sweep_orphans
from repro.resilience.plan import FaultPlan, WorkerKill
from repro.wm.io import dumps as dump_wm_text

__all__ = ["ChaosResult", "run_chaos", "kill_columnar_child", "main"]

#: Workers for the chaos run — two sites is the smallest pool where a kill
#: leaves a healthy peer to merge against.
N_WORKERS = 2


@dataclass
class ChaosResult:
    """One chaos scenario's outcome, mismatches listed when not ``ok``."""

    workload: str
    backend: str
    seed: int
    clean_cycles: int
    crash_cycle: int
    restored_cycle: int
    skipped: List[Tuple[str, str]] = field(default_factory=list)
    fault_kinds: Dict[str, int] = field(default_factory=dict)
    mismatches: List[str] = field(default_factory=list)
    #: The typed error that ended the chaos run early, if one did (the
    #: columnar scenario's failed re-attach); recovery is still checked.
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        verdict = "OK" if self.ok else "MISMATCH"
        faults = (
            ", ".join(f"{k}={v}" for k, v in sorted(self.fault_kinds.items()))
            or "none"
        )
        lines = [
            f"[chaos] {self.workload}/{self.backend} seed={self.seed}: {verdict}",
            f"  clean run: {self.clean_cycles} cycles; crashed at cycle "
            f"{self.crash_cycle}, restored at cycle {self.restored_cycle}",
            f"  faults injected/absorbed: {faults}",
        ]
        if self.error is not None:
            lines.append(f"  chaos run ended in: {self.error}")
        lines.append(f"  checkpoints skipped on restore: {len(self.skipped)}")
        lines += [f"  MISMATCH: {m}" for m in self.mismatches]
        return "\n".join(lines)


def _drive(engine: ParulelEngine, on_cycle=None, stop_at: Optional[int] = None):
    """Step an engine to quiescence (or ``stop_at`` cycles), returning the
    ``(cycle, fired)`` sequence. ``on_cycle`` runs after every report —
    the chaos run checkpoints there."""
    seq: List[Tuple[int, int]] = []
    while not engine.halted:
        report = engine.step()
        if report is None:
            break
        seq.append((report.cycle, report.fired))
        if on_cycle is not None:
            on_cycle(report)
        if stop_at is not None and engine.cycle >= stop_at:
            break
    return seq


def _wm_bytes(engine: ParulelEngine) -> str:
    return dump_wm_text(engine.wm)


def run_chaos(
    workload: str = "tc",
    backend: str = "dict",
    seed: int = 0,
    checkpoint_every: int = 1,
) -> ChaosResult:
    """One full chaos scenario (module docstring); raises on setup errors,
    returns a :class:`ChaosResult` whose ``mismatches`` list the verdict."""
    builder = REGISTRY.get(workload)
    if builder is None:
        raise ValueError(
            f"unknown workload {workload!r} (choose from {sorted(REGISTRY)})"
        )
    rng = random.Random(seed)

    # -- 1. clean reference ------------------------------------------------
    clean_wl = builder()
    clean = ParulelEngine(clean_wl.program)
    clean_wl.setup(clean)
    clean_seq = _drive(clean)
    clean_out = list(clean.output)
    clean_cycles = clean.cycle
    clean_wm = _wm_bytes(clean)
    clean.close()
    if clean_cycles < 4:
        raise ValueError(
            f"workload {workload!r} quiesces in {clean_cycles} cycles — too "
            f"short to crash mid-run meaningfully"
        )

    # -- 2. chaos run ---------------------------------------------------------
    crash_cycle = rng.randint(3, clean_cycles - 1)
    kills = tuple(
        WorkerKill(cycle=rng.randint(1, crash_cycle), site=rng.randrange(N_WORKERS))
        for _ in range(2)
    )
    tmp = tempfile.mkdtemp(prefix="parulel-chaos-")
    store_dir = os.path.join(tmp, "ckpt")
    blackbox_path = os.path.join(tmp, "chaos.blackbox")
    chaos_wl = builder()
    chaos = ParulelEngine(
        chaos_wl.program,
        EngineConfig(
            matcher=f"process:{N_WORKERS}",
            wm_backend=backend,
            pool=PoolConfig(
                timeout=30.0, fault_plan=FaultPlan(seed=seed, kills=kills)
            ),
            blackbox_path=blackbox_path,
        ),
    )
    chaos_wl.setup(chaos)
    # The store's defaults: the cadence ``--checkpoint-every`` writes.
    ckpt = EngineCheckpointer(chaos, CheckpointStore(store_dir))
    ckpt.save()  # cycle-0 baseline, so even a cycle-1 crash can restore

    unlink_at = rng.randint(2, crash_cycle) if backend == "columnar" else None
    chaos_seq: List[Tuple[int, int]] = []

    def on_cycle(report) -> None:
        chaos_seq.append((report.cycle, report.fired))
        if unlink_at is not None and report.cycle == unlink_at:
            # Tear one live shared segment out from under the store: the
            # parent's mapping survives (unlink removes only the name) but
            # any respawned worker's re-attach now fails deterministically.
            names = chaos.wm.segment_names
            victim = names[rng.randrange(len(names))]
            try:
                os.unlink(os.path.join("/dev/shm", victim))
            except FileNotFoundError:
                pass
        if report.cycle % checkpoint_every == 0:
            ckpt.save()

    error: Optional[str] = None
    try:
        _drive(chaos, on_cycle=on_cycle, stop_at=crash_cycle)
    except MatchError as exc:
        # A respawned worker could not re-attach the unlinked segment: the
        # run ends here, and this is where it "crashed".
        error = str(exc)
        crash_cycle = chaos.cycle
    fault_kinds: Dict[str, int] = {}
    killed_sites: List[int] = []
    for event in chaos.fault_events:
        fault_kinds[event.kind] = fault_kinds.get(event.kind, 0) + 1
        if event.kind == "kill" and event.site not in killed_sites:
            killed_sites.append(event.site)
    # The "crash": the run just stops. close() stands in for the kernel
    # reaping the process — it must not be load-bearing for recovery (all
    # durable state is already in the store).
    chaos.close()

    # -- 3. corruption ----------------------------------------------------
    entries = sorted(
        n for n in os.listdir(store_dir) if not n.endswith(".tmp")
    )
    newest = os.path.join(store_dir, entries[-1])
    size = os.path.getsize(newest)
    with open(newest, "r+b") as fh:
        fh.truncate(rng.randrange(size))

    # -- 4. recovery --------------------------------------------------------
    load = CheckpointStore(store_dir).load()
    recovered_wl = builder()
    recovered = ParulelEngine.restore(
        recovered_wl.program, load.state, EngineConfig(wm_backend=backend)
    )
    restored_cycle = recovered.cycle
    recovered_seq = _drive(recovered)

    # -- 5. verdict ---------------------------------------------------------
    result = ChaosResult(
        workload=workload,
        backend=backend,
        seed=seed,
        clean_cycles=clean_cycles,
        crash_cycle=crash_cycle,
        restored_cycle=restored_cycle,
        skipped=[(p, r) for p, r in load.skipped],
        fault_kinds=fault_kinds,
        error=error,
    )
    merged_seq = [
        (c, f) for c, f in chaos_seq if c <= restored_cycle
    ] + recovered_seq
    if recovered.cycle != clean_cycles:
        result.mismatches.append(
            f"cycle count: recovered {recovered.cycle} != clean {clean_cycles}"
        )
    if merged_seq != clean_seq:
        result.mismatches.append(
            f"firing sequence diverged: merged {merged_seq} != clean {clean_seq}"
        )
    if list(recovered.output) != clean_out:
        result.mismatches.append(
            f"output diverged: {len(recovered.output)} line(s) vs "
            f"{len(clean_out)} clean"
        )
    recovered_wm = _wm_bytes(recovered)
    if recovered_wm != clean_wm:
        result.mismatches.append("final working memory bytes diverged")
    recovered.close()

    # -- 6. black box -------------------------------------------------------
    # Any worker death observed during the chaos run must have left a
    # decodable post-mortem dump behind: the shared-memory rings belong to
    # the parent, so even a SIGKILLed worker's journal survives into it.
    if killed_sites:
        if not os.path.exists(blackbox_path):
            result.mismatches.append(
                f"no blackbox dump at {blackbox_path} after "
                f"{fault_kinds.get('kill', 0)} injected SIGKILL(s)"
            )
        else:
            try:
                bb = load_blackbox(blackbox_path)
            except Exception as exc:  # noqa: BLE001 - any decode failure
                result.mismatches.append(f"blackbox dump unreadable: {exc}")
            else:
                rule_names = set(bb.rules)
                timeline_sites = {site for _, site, _ in bb.timeline()}
                for site in sorted(killed_sites):
                    last = bb.last_in_flight(site)
                    if last is None:
                        # Killed before its first dispatched rule — the
                        # ring is honest about having seen no match work.
                        continue
                    if last[0] not in rule_names:
                        result.mismatches.append(
                            f"blackbox last in-flight rule for killed site "
                            f"{site} is {last[0]!r}, not a program rule"
                        )
                    elif site not in timeline_sites:
                        result.mismatches.append(
                            f"killed site {site} absent from the merged "
                            f"blackbox timeline"
                        )
    return result


# ---------------------------------------------------------------------------
# Janitor leg: real orphans from a real SIGKILL
# ---------------------------------------------------------------------------


def _columnar_child(conn) -> None:  # pragma: no cover - runs in a child
    from multiprocessing import resource_tracker

    from repro.wm.columnar import ColumnarWorkingMemory

    wm = ColumnarWorkingMemory()
    for i in range(16):
        wm.make("orphan", {"value": i})
    # Simulate the real leak: a hard kill takes the resource tracker's
    # state with it (OOM/group kill), so nothing cleans these up. Without
    # this, the child's tracker would reclaim the segments itself and race
    # the sweep under test.
    for name in wm.segment_names:
        try:
            resource_tracker.unregister(f"/{name}", "shared_memory")
        except Exception:  # noqa: BLE001 - never registered is fine too
            pass
    conn.send(wm.segment_names)
    conn.recv()  # parent never answers: wait here for the SIGKILL


def kill_columnar_child() -> Tuple[Tuple[str, ...], List[str]]:
    """Spawn a child that builds a columnar store, SIGKILL it mid-life,
    and sweep. Returns ``(child's segment names, names the sweep removed)``
    — the janitor assertion is that the former is a subset of the latter."""
    ctx = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    )
    parent_conn, child_conn = ctx.Pipe()
    proc = ctx.Process(target=_columnar_child, args=(child_conn,), daemon=True)
    proc.start()
    child_conn.close()
    names: Tuple[str, ...] = parent_conn.recv()
    os.kill(proc.pid, signal.SIGKILL)
    proc.join()
    parent_conn.close()
    report = sweep_orphans()
    return names, list(report.removed)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.resilience.chaos",
        description="seeded chaos differential: crash, corrupt, recover, "
        "compare byte-for-byte against a clean run",
    )
    parser.add_argument("--workload", default="tc", choices=sorted(REGISTRY))
    parser.add_argument("--backend", default="dict", choices=("dict", "columnar"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N"
    )
    parser.add_argument(
        "--skip-janitor",
        action="store_true",
        help="skip the SIGKILL-a-child orphan-reclaim leg",
    )
    args = parser.parse_args(argv)

    result = run_chaos(
        workload=args.workload,
        backend=args.backend,
        seed=args.seed,
        checkpoint_every=args.checkpoint_every,
    )
    print(result.summary())
    code = 0 if result.ok else 1

    if not args.skip_janitor:
        names, removed = kill_columnar_child()
        missing = [n for n in names if n not in removed]
        if missing:
            print(f"[chaos] janitor FAILED to reclaim: {missing}")
            code = 1
        else:
            print(
                f"[chaos] janitor reclaimed all {len(names)} orphaned "
                f"segment(s) from the killed child"
            )
        # Nothing of ours may be left behind: a second sweep must be a no-op
        # for dead-owner segments.
        left = list(sweep_orphans(dry_run=True).removed)
        if left:
            print(f"[chaos] segments still leaked after sweep: {left}")
            code = 1
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
