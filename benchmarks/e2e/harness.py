"""The end-to-end benchmark harness: run the real CLI in fresh child
processes, check every output, report every metric by name and unit.

Closed loop, one child at a time. Each *execution* is one
``repro.cli.main(["run", PROGRAM, "--facts", FACTS, "--dump-wm", OUT, ...])``
in a new interpreter started through ``launch.py``; the harness stamps
``Popen`` and reap with ``time.monotonic()``, the clock the launcher
stamps with, and reaps with ``wait4`` so CPU time covers interpreter exit
and every worker the CLI reaped.

There is one protocol, :func:`run_set`: a warm-up per chosen workload,
then *rounds* — every chosen workload once per round, round-robin, because
host speed drifts in phases of tens of seconds and contiguous sets
disagree far more than interleaved ones — and every metric reported as
the median over the rounds. The driver contract (``--workload W --seed N
--seconds S --trace 0|1``) is a set of one workload whose rounds fill
``S`` seconds; the full set (no ``--workload``) is all six workloads for
``--reps`` untraced rounds plus one traced round.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from . import layers, spans
from .workloads import WORKLOADS, Inputs, Workload, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = HERE / ".work"
TIMEOUT_S = 120.0
#: Fewest rounds in a set, whatever ``--seconds`` says.
MIN_REPS = 5

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "run_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "firings_per_s": "1/s",
}


def _shm_segments() -> set:
    return set(glob.glob("/dev/shm/pwm*") + glob.glob("/dev/shm/pfr*"))


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


@dataclass
class Execution:
    """One child process: what it cost and whether its output was right."""

    failures: List[str]
    popen: float = 0.0
    reaped: float = 0.0
    cpu_s: float = 0.0
    side: Dict = field(default_factory=dict)
    stderr: str = ""
    prefix: str = ""  # path prefix of this execution's files
    leaked: int = 0

    @property
    def wall_s(self) -> float:
        return self.reaped - self.popen

    def end_to_end(self, firings: int) -> Dict[str, float]:
        stamps = self.side["stamps"]
        run_s = stamps["run_exit"] - stamps["run_enter"]
        return {
            "wall_s": self.wall_s,
            "setup_s": stamps["run_enter"] - self.popen,
            "run_s": run_s,
            "cpu_s": self.cpu_s,
            "peak_rss_mb": (
                self.side["self"]["maxrss_kb"] + self.side["children"]["maxrss_kb"]
            ) / 1024,
            "firings_per_s": firings / run_s,
        }


class Session:
    """Generated inputs, a scratch directory inside the checkout, and the
    failure account of every execution made through it."""

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke
        WORK.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self._inputs: Dict[str, Inputs] = {}
        self._digests: Dict[str, str] = {}
        # The child's interpreter settings are pinned, not inherited:
        # bytecode is cached (as for any user of the CLI) under the scratch
        # directory, which keeps the source tree clean and survives runs.
        self.env = {
            **os.environ,
            "PYTHONHASHSEED": "0",
            "PYTHONPATH": str(ROOT / "src"),
            "PYTHONPYCACHEPREFIX": str(WORK / "pycache"),
        }
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def inputs(self, workload: Workload) -> Inputs:
        """Same-input workloads share one generated directory, named
        after their reference."""
        made = self._inputs.get(workload.reference)
        if made is None:
            out = self.dir / workload.reference
            out.mkdir()
            made = self._inputs[workload.reference] = generate(
                workload, self.seed, out, self.smoke
            )
        return made

    def execute(self, workload: Workload, mode: str = "plain") -> Execution:
        """Run ``workload`` once. ``mode``: ``plain`` or ``traced`` go
        through ``launch.py``; ``cli`` is ``python -m repro.cli`` itself
        (no side file — only wall and CPU time are known)."""
        inputs = self.inputs(workload)
        self.attempted += 1
        prefix = str(self.dir / f"x{self.attempted:04d}")
        args = [
            "run", str(inputs.program), "--facts", str(inputs.facts),
            "--dump-wm", prefix + ".wm", *workload.flags,
        ]
        if mode == "traced":
            args += ["--stats", "--metrics-out", prefix + ".metrics.json"]
        if mode == "cli":
            cmd = [sys.executable, "-m", "repro.cli", *args]
        else:
            cmd = [sys.executable, str(HERE / "launch.py"), prefix + ".side",
                   mode, *args]

        before = _shm_segments()
        ex = Execution(failures=[], prefix=prefix)
        with open(prefix + ".err", "wb") as err:
            ex.popen = time.monotonic()
            proc = subprocess.Popen(
                cmd, stdout=subprocess.DEVNULL, stderr=err, env=self.env,
                cwd=self.dir, start_new_session=True,
            )
        timer = threading.Timer(TIMEOUT_S, _kill_group, [proc.pid])
        timer.start()
        try:
            _, status, rusage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        ex.reaped = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # nothing the child started may outlive it
        ex.cpu_s = rusage.ru_utime + rusage.ru_stime
        ex.stderr = Path(prefix + ".err").read_text(errors="replace")

        leaked = _shm_segments() - before
        ex.leaked = len(leaked)
        for path in leaked:
            os.unlink(path)
        if leaked:
            ex.failures.append(f"leaked {sorted(leaked)}")
        if proc.returncode != 0:
            what = "timeout" if ex.wall_s >= TIMEOUT_S else "exit"
            ex.failures.append(f"{what} {proc.returncode}")
        else:
            self._check_output(workload, inputs, ex, mode)
        if ex.failures:
            self.failed += 1
            self.failures.append(
                f"{workload.name} #{self.attempted} ({mode}): "
                + "; ".join(ex.failures)
            )
        return ex

    def _check_output(
        self, workload: Workload, inputs: Inputs, ex: Execution, mode: str
    ) -> None:
        counts = re.search(r"\[parulel\] (\d+) cycles, (\d+) firings", ex.stderr)
        got = tuple(map(int, counts.groups())) if counts else None
        if got != (inputs.cycles, inputs.firings):
            ex.failures.append(
                f"cycles/firings {got}, expected "
                f"{(inputs.cycles, inputs.firings)}"
            )
        dump = Path(ex.prefix + ".wm").read_bytes()
        failed_checks = inputs.verify(dump.decode())
        if failed_checks:
            ex.failures.append(f"verifier: {failed_checks}")
        digest = hashlib.sha256(dump).hexdigest()
        expected = self._digests.setdefault(workload.reference, digest)
        if digest != expected:
            ex.failures.append(
                f"dumped WM differs from {workload.reference}'s"
            )
        if mode != "cli":
            ex.side = json.loads(Path(ex.prefix + ".side").read_text())

    def warm_up(self, workload: Workload) -> Execution:
        """The unrecorded first execution. It runs the *reference*
        configuration, so its dump is what every later execution of the
        workload must reproduce byte for byte."""
        return self.execute(WORKLOADS[workload.reference])

    def per_layer(
        self, workload: Workload, ex: Execution, untraced_wall_s: float
    ) -> Optional[Dict[str, float]]:
        """Per-layer metrics of a traced execution, or ``None`` when a
        trace invariant does not hold (which fails the execution)."""
        inputs = self.inputs(workload)
        try:
            return layers.attribute(
                layers.with_root(
                    spans.read(ex.prefix + ".side.spans"),
                    ex.popen, ex.reaped, ex.side["stamps"],
                ),
                stderr=ex.stderr,
                metrics=json.loads(Path(ex.prefix + ".metrics.json").read_text()),
                side=ex.side,
                blackbox_path=ex.prefix + ".side.blackbox",
                n_rules=inputs.n_rules,
                n_facts=inputs.n_facts,
                leaked_segments=ex.leaked,
                untraced_wall_s=untraced_wall_s,
            )
        except layers.TraceError as exc:
            self.failed += 1
            self.failures.append(f"{workload.name} trace: {exc}")
            return None

    @property
    def correct(self) -> bool:
        return self.failed == 0


# -- one set of runs ----------------------------------------------------------


def _rounds(
    session: Session, chosen: Sequence[Workload], trace: bool,
    reps: Optional[int], seconds: float,
) -> Dict[str, List[Dict[str, float]]]:
    """Rounds of one execution per chosen workload, round-robin: ``reps``
    of them, or, when ``reps`` is ``None``, as many as end within
    ``seconds`` (never fewer than :data:`MIN_REPS`). Returns each
    workload's rows, one per round: the end-to-end metrics of an untraced
    execution, or, with ``trace``, the per-layer metrics of a traced
    execution made right after it (its tracing overhead is taken against
    that untraced neighbour). A failed execution ends the rounds."""
    rows: Dict[str, List[Dict[str, float]]] = {w.name: [] for w in chosen}
    deadline = time.monotonic() + seconds
    done, round_s = 0, 0.0
    while session.correct and (
        done < reps if reps is not None
        else done < MIN_REPS or time.monotonic() + round_s < deadline
    ):
        started = time.monotonic()
        for w in chosen:
            ex = session.execute(w)
            if ex.failures:
                break
            row = ex.end_to_end(session.inputs(w).firings)
            if trace:
                tx = session.execute(w, "traced")
                row = None if tx.failures else session.per_layer(
                    w, tx, ex.wall_s
                )
                if row is None:
                    break
            rows[w.name].append(row)
        done += 1
        round_s = time.monotonic() - started
    return rows


def summarize(values: Sequence[float], unit: str) -> Dict[str, object]:
    """Median (the compared value), quartiles, min and n of one metric."""
    if len(values) > 1:
        p25, _, p75 = statistics.quantiles(values, n=4)
    else:
        p25 = p75 = values[0]
    return {
        "median": statistics.median(values), "p25": p25, "p75": p75,
        "min": min(values), "n": len(values), "unit": unit,
    }


def _summaries(rows: List[Dict[str, float]], units: Dict[str, str]) -> Dict:
    return {
        name: summarize([row[name] for row in rows], unit)
        for name, unit in units.items()
    } if rows else {}


def _git_sha() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_set(
    seed: int, names: Sequence[str], *, untraced: Optional[int],
    traced: Optional[int], seconds: float = 0.0, smoke: bool = False,
) -> Dict:
    """One set: a warm-up per named workload, ``untraced`` rounds, then
    ``traced`` rounds; ``None`` rounds means rounds for ``seconds``
    seconds, 0 means none."""
    chosen = [WORKLOADS[name] for name in names]
    with Session(seed, smoke) as session:
        for w in chosen:
            session.warm_up(w)
        end_to_end = layer_rows = {w.name: [] for w in chosen}
        if untraced != 0:
            end_to_end = _rounds(session, chosen, False, untraced, seconds)
        if traced != 0:
            layer_rows = _rounds(session, chosen, True, traced, seconds)
        report = {
            "meta": {
                "seed": seed, "smoke": smoke,
                "nproc": len(os.sched_getaffinity(0)),
                "python": platform.python_version(),
                "git_sha": _git_sha(),
            },
            "error_rate": {
                "value": session.failed / session.attempted, "unit": "ratio",
                "failed": session.failed, "attempted": session.attempted,
                "failures": session.failures,
            },
            "workloads": {},
        }
        for w in chosen:
            inputs = session.inputs(w)
            report["workloads"][w.name] = {
                "size": w.smoke_size if smoke else w.size,
                "flags": list(w.flags),
                "facts": inputs.n_facts,
                "cycles": inputs.cycles,
                "firings": inputs.firings,
                "end_to_end": _summaries(end_to_end[w.name], END_TO_END),
                "per_layer": _summaries(layer_rows[w.name], layers.PER_LAYER),
            }
        return report


def driver_result(report: Dict, name: str, trace: bool) -> Dict:
    """The contract's result object for a one-workload set."""
    rate = report["error_rate"]
    table = report["workloads"][name]["per_layer" if trace else "end_to_end"]
    return {
        "correct": rate["failed"] == 0,
        "attempted": rate["attempted"],
        "failed": rate["failed"],
        "metrics": {
            metric: {"value": s["median"], "unit": s["unit"]}
            for metric, s in table.items()
        } if rate["failed"] == 0 else {},
    }


# -- comparing two sets -------------------------------------------------------


def _bounds() -> Dict[str, Dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def compare(a: Dict, b: Dict, out=sys.stdout) -> bool:
    """Print, per workload x end-to-end metric, both medians, how much
    worse B is, and the bound. ``breach``: worse by more than the bound.
    ``unresolved``: within the bound, but either set's interquartile range
    is wider than the bound, so the verdict carries no weight. Returns
    whether B is free of breaches and failed executions."""
    bounds = _bounds()
    ok = True
    print(f"{'workload':<22} {'metric':<14} {'A':>12} {'B':>12} "
          f"{'worse':>8} {'bound':>6}  verdict", file=out)
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if not wb or not wa["end_to_end"] or not wb["end_to_end"]:
            print(f"{name:<22} missing from a set", file=out)
            ok = False
            continue
        for metric, spec in bounds.items():
            sa, sb = wa["end_to_end"][metric], wb["end_to_end"][metric]
            sign = 1 if spec["better"] == "lower" else -1
            worse = sign * (sb["median"] - sa["median"]) / sa["median"]
            spread = max(
                (s["p75"] - s["p25"]) / s["median"] for s in (sa, sb)
            )
            if worse > spec["bound"]:
                verdict, ok = "BREACH", False
            elif spread > spec["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{name:<22} {metric:<14} {sa['median']:>12.4f} "
                  f"{sb['median']:>12.4f} {worse:>+8.1%} "
                  f"{spec['bound']:>6.0%}  {verdict}", file=out)
    for label, rep in (("A", a), ("B", b)):
        rate = rep["error_rate"]
        print(f"error_rate {label}: {rate['failed']}/{rate['attempted']}",
              file=out)
    if b["error_rate"]["failed"]:
        ok = False
    return ok


def check_launcher(seed: int, reps: int) -> bool:
    """The launcher must cost what ``python -m repro.cli`` costs: run both
    on tc-rete, interleaved, and hold the medians within the ``wall_s``
    bound."""
    workload = WORKLOADS["tc-rete"]
    bound = _bounds()["wall_s"]["bound"]
    with Session(seed) as session:
        session.warm_up(workload)
        walls: Dict[str, List[float]] = {"cli": [], "plain": []}
        for _ in range(reps):
            for mode, out in walls.items():
                out.append(session.execute(workload, mode).wall_s)
        cli, launched = (statistics.median(walls[m]) for m in ("cli", "plain"))
        diff = abs(launched - cli) / cli
        print(f"python -m repro.cli: {cli:.4f}s  launcher: {launched:.4f}s  "
              f"difference {diff:.1%} (bound {bound:.0%}, n={reps} each)")
        for line in session.failures:
            print(line, file=sys.stderr)
        return session.correct and diff <= bound


# -- command line -------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="benchmarks.e2e", description=__doc__.split("\n\n")[0]
    )
    ap.add_argument("--seed", type=int, default=0,
                    help="workload seed (decides the generated inputs)")
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="driver contract: measure this one workload")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="with --workload: how long to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="with --workload: 1 reports the per-layer metrics")
    ap.add_argument("--reps", type=int, default=7,
                    help="full set: untraced rounds")
    ap.add_argument("--smoke", action="store_true",
                    help="full set at tiny sizes with one round")
    ap.add_argument("--check-launcher", action="store_true",
                    help="compare the launcher with python -m repro.cli")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                    help="compare two full-set outputs against the bounds")
    ap.add_argument("--aa", action="store_true",
                    help="run the full set twice and compare the two")
    args = ap.parse_args(argv)

    if args.workload:
        trace = bool(args.trace)
        report = run_set(
            args.seed, [args.workload], seconds=args.seconds,
            untraced=0 if trace else None, traced=None if trace else 0,
        )
        for line in report["error_rate"]["failures"]:
            print(line, file=sys.stderr)
        result = driver_result(report, args.workload, trace)
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        return 0 if compare(a, b) else 1
    if args.check_launcher:
        return 0 if check_launcher(args.seed, max(args.reps, MIN_REPS)) else 1
    if args.reps < MIN_REPS and not args.smoke:
        ap.error(f"--reps must be at least {MIN_REPS}")

    def full_set() -> Dict:
        return run_set(
            args.seed, list(WORKLOADS), smoke=args.smoke,
            untraced=1 if args.smoke else args.reps, traced=1,
        )

    if args.aa:
        a, b = full_set(), full_set()
        print(json.dumps({"A": a, "B": b}, indent=1))
        return 0 if compare(a, b, out=sys.stderr) else 1
    report = full_set()
    print(json.dumps(report, indent=1))
    return 0 if report["error_rate"]["failed"] == 0 else 1
