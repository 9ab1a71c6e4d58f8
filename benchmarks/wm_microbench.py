"""Working-memory-store microbenchmark and CI gate: columnar vs dict.

Measures what the columnar shared-memory store is for — the process
backend's IPC traffic and replica (re)build cost — on the
:func:`~repro.programs.synthetic.build_scale_workload` bulk-plus-churn
workload, at two tiers:

- ``gate`` (20k WMEs): run by ``--check``/``--write`` every time; fast.
- ``million`` (1M WMEs): run only with ``--full`` and recorded into the
  baseline; ``--check`` re-validates the recorded numbers without
  re-running it.

Per tier and store backend it records:

- **pool**: bytes shipped to match workers (exact — the scatter path
  serializes once and counts the blob), split into the priming request
  (delta mode re-pickles the whole memory; columnar mode ships an attach
  spec of a few hundred bytes and workers scan shared segments) and
  steady-state churn cycles; plus wall times for attach-vs-rebuild and
  per-cycle match.
- **threaded**: in-process pool cycle time over both stores (the columnar
  store must not tax the non-IPC backend).
- **vector**: the two alpha layers that ship, in process, over the same
  facts — the column-scan probe kernel on the columnar store (``vector``)
  vs ``AlphaCache`` on the dict store (``object``): WME materializations
  per cycle (gated: the column side must build at least
  ``MAT_RATIO_FLOOR`` (5x) fewer) and median per-cycle refresh+match
  latency (gated: the column side must not lose), with per-cycle ordered
  match summaries asserted byte-identical.
- **engine**: an end-to-end ``matcher="process:2"`` run on both stores;
  cycles, firings and the final working-memory digest must be
  byte-identical.

``--full`` additionally runs every registry workload (tc, waltz, manners,
sort, sort-meta, sieve, circuit, routing, monkey) through both engine
configurations, asserts identity, and records the digests under
``workloads`` — ``--check`` re-validates the recorded section.

Usage (from the repo root, ``PYTHONPATH=src``)::

    python -m benchmarks.wm_microbench --write          # refresh gate tier
    python -m benchmarks.wm_microbench --write --full   # + the million tier
    python -m benchmarks.wm_microbench --check          # CI gate (default)

``--check`` fails (exit 1) when:

- within the run, the two stores diverge anywhere (conflict images per
  cycle, engine cycles/firings, final WM digests);
- the columnar store's bytes-per-cycle advantage drops below the
  ``RATIO_FLOOR`` (10x) on the gate tier, or the recorded million-tier
  numbers in the baseline fall below the floor / lost their identity bits;
- the column kernel's materialization advantage drops below
  ``MAT_RATIO_FLOOR`` (5x) — on the run tiers or in the recorded
  million-tier numbers — or its summaries diverged from the dict side;
- the recorded ``workloads`` section is missing, incomplete, or lost an
  identity bit;
- columnar bytes-per-cycle regress > 5% against the baseline, or the
  engine's cycles/firings changed.

Wall-clock numbers are printed and recorded but never gate.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import sys
import time
from statistics import median
from typing import Dict, List

from repro.core import EngineConfig, ParulelEngine
from repro.lab.threaded import ThreadedMatchPool
from repro.match.interface import PoolConfig
from repro.obs.metrics import MetricsRegistry
from repro.parallel.process import ProcessMatchPool
from repro.programs.synthetic import build_scale_workload
from repro.wm.columnar import ColumnarWorkingMemory
from repro.wm.memory import WorkingMemory

BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), "results", "BENCH_wm.json"
)

#: The columnar store must ship at least this many times fewer bytes per
#: conflict-set cycle than delta pickling (the tentpole's acceptance bar).
RATIO_FLOOR = 10.0

#: Tolerated growth in columnar bytes-per-cycle vs the baseline before the
#: gate fails (byte counts are deterministic; the slack only absorbs
#: intentional protocol tweaks smaller than a real regression).
BYTES_SLACK = 1.05

#: The column-scan probe kernel must materialize at least this many times
#: fewer WME objects per cycle than the dict store holds (ISSUE 10's
#: acceptance bar for the 1M tier; enforced on every tier run or recorded).
MAT_RATIO_FLOOR = 5.0

#: Engine configurations the identity sweeps run: the store backends.
ENGINE_CONFIGS = ("dict", "columnar")

TIERS = {
    "gate": dict(n_facts=20_000, n_keys=100, churn_block=50, churn_steps=5),
    "million": dict(
        n_facts=1_000_000, n_keys=1000, churn_block=200, churn_steps=5
    ),
}


def _wm_digest(wm: WorkingMemory) -> str:
    records, next_ts = wm.dump_records()
    return hashlib.sha256(repr((records, next_ts)).encode()).hexdigest()[:16]


def _conflict_image(insts) -> str:
    return hashlib.sha256(
        repr(sorted(i.key for i in insts)).encode()
    ).hexdigest()[:16]


def _build_stores(tier_cfg: Dict):
    wl = build_scale_workload(
        n_facts=tier_cfg["n_facts"],
        n_keys=tier_cfg["n_keys"],
        churn_block=tier_cfg["churn_block"],
    )
    return wl


def _run_pool(wl, tier_cfg: Dict, backend: str) -> Dict:
    """Pool-level measurement: prime (attach vs rebuild) + churn cycles."""
    wm = (
        ColumnarWorkingMemory(wl.fresh_wm().templates)
        if backend == "columnar"
        else wl.fresh_wm()
    )
    t0 = time.perf_counter()
    block = wl.load(wm)
    load_s = time.perf_counter() - t0
    metrics = MetricsRegistry()
    pool = ProcessMatchPool(
        wl.program.rules, wm, 2, PoolConfig(timeout=300.0), metrics=metrics
    )
    images: List[str] = []
    try:
        t0 = time.perf_counter()
        images.append(_conflict_image(pool.conflict_set()))
        prime_s = time.perf_counter() - t0
        prime_bytes = int(sum(metrics.series("parulel_ipc_bytes_total").values()))
        t0 = time.perf_counter()
        for step in range(tier_cfg["churn_steps"]):
            block = wl.churn(wm, block, step + 1)
            images.append(_conflict_image(pool.conflict_set()))
        steady_s = time.perf_counter() - t0
        total_bytes = int(sum(metrics.series("parulel_ipc_bytes_total").values()))
    finally:
        pool.close()
        if backend == "columnar":
            wm.close()
    cycles = 1 + tier_cfg["churn_steps"]
    return {
        "load_s": round(load_s, 3),
        "prime_s": round(prime_s, 3),
        "prime_bytes": prime_bytes,
        "steady_bytes": total_bytes - prime_bytes,
        "bytes_per_cycle": round(total_bytes / cycles, 1),
        "steady_s_per_cycle": round(steady_s / tier_cfg["churn_steps"], 4),
        "images": images,
        "wm_digest": _wm_digest(wm),
    }


def _run_threaded(wl, tier_cfg: Dict, backend: str) -> Dict:
    """In-process pool throughput over the same store (no IPC at all)."""
    wm = (
        ColumnarWorkingMemory(wl.fresh_wm().templates)
        if backend == "columnar"
        else wl.fresh_wm()
    )
    block = wl.load(wm)
    pool = ThreadedMatchPool(wl.program.rules, wm, 2)
    try:
        image = _conflict_image(pool.conflict_set())
        t0 = time.perf_counter()
        for step in range(tier_cfg["churn_steps"]):
            block = wl.churn(wm, block, step + 1)
            pool.conflict_set()
        cycle_s = (time.perf_counter() - t0) / tier_cfg["churn_steps"]
    finally:
        pool.close()
        if backend == "columnar":
            wm.close()
    return {"cycle_s": round(cycle_s, 4), "image": image}


def _run_vector(wl, tier_cfg: Dict) -> Dict:
    """The two alpha layers that ship, in process, over the same facts:
    :class:`AlphaCache` on the dict store against :class:`ColumnVectorCache`
    on the columnar store's shared columns.

    The dict side holds every fact as a WME object (counted as asserted —
    what a delta-fed worker builds from its wire records), the column side
    materializes only the rows probes actually surface. Both answer the
    same per-cycle match enumeration and the ordered match summaries are
    asserted identical every cycle — this is the materialization-count half
    of the columnar store's acceptance bar (the IPC half is
    :func:`_run_pool`).
    """
    from repro.match.alphaindex import AlphaCache, ColumnVectorCache
    from repro.match.compile import compile_rules
    from repro.match.join import enumerate_matches
    from repro.wm.columnar import ColumnarReader

    obj_wm = wl.fresh_wm()
    wm = ColumnarWorkingMemory(obj_wm.templates)
    vec_reader = None
    try:
        obj_mat = 0

        def count(wmes, added: bool) -> None:
            nonlocal obj_mat
            if added:
                obj_mat += len(wmes)

        obj_wm.add_listener(count)
        t0 = time.perf_counter()
        obj_block = wl.load(obj_wm)
        alpha = AlphaCache(obj_wm)
        alpha.attach()
        obj_attach_s = time.perf_counter() - t0

        block = wl.load(wm)
        compiled = compile_rules(wl.program.rules)
        t0 = time.perf_counter()
        vec_reader = ColumnarReader(wm.attach_spec())
        vcache = ColumnVectorCache(vec_reader)
        vec_attach_s = time.perf_counter() - t0
        unused = WorkingMemory()

        def summaries(source, wm_arg):
            out = []
            for cr in compiled:
                for inst in enumerate_matches(cr, wm_arg, alpha_source=source):
                    out.append(
                        (
                            cr.name,
                            tuple(
                                w.timestamp if w is not None else 0
                                for w in inst.wmes
                            ),
                            inst.env,
                        )
                    )
            return out

        # Step 0 is the prime: both sides lazily build their alpha state
        # inside the first enumeration (bulk_add over the class bucket vs
        # the column scan), reported separately. Every later step times
        # what absorbing a cycle's delta costs — asserting the churn into
        # the dict store and its cache vs advancing over the shared journal
        # (the columnar parent's own appends are not worker work) — plus
        # the full match enumeration.
        obj_steps: List[float] = []
        vec_steps: List[float] = []
        cycles = 1 + tier_cfg["churn_steps"]
        for step in range(cycles):
            obj_dt = vec_dt = 0.0
            if step:
                t0 = time.perf_counter()
                obj_block = wl.churn(obj_wm, obj_block, step)
                obj_dt += time.perf_counter() - t0
                block = wl.churn(wm, block, step)
                info = wm.cycle_info()
                t0 = time.perf_counter()
                vcache.refresh(info)
                vec_dt += time.perf_counter() - t0
            t0 = time.perf_counter()
            obj_out = summaries(alpha, obj_wm)
            obj_dt += time.perf_counter() - t0
            t0 = time.perf_counter()
            vec_out = summaries(vcache, unused)
            vec_dt += time.perf_counter() - t0
            obj_steps.append(obj_dt)
            vec_steps.append(vec_dt)
            if obj_out != vec_out:
                raise AssertionError(
                    f"vector kernel diverged from object path at cycle "
                    f"{step} ({len(obj_out)} vs {len(vec_out)} summaries)"
                )
        vec_mat = vcache.materialized
        ratio = obj_mat / max(vec_mat, 1)
        return {
            "object": {
                "materialized_total": obj_mat,
                "materialized_per_cycle": round(obj_mat / cycles, 1),
                "attach_s": round(obj_attach_s, 3),
                "prime_match_s": round(obj_steps[0], 4),
                "cycle_s": round(median(obj_steps[1:]), 4),
            },
            "vector": {
                "materialized_total": vec_mat,
                "materialized_per_cycle": round(vec_mat / cycles, 1),
                "attach_s": round(vec_attach_s, 3),
                "prime_match_s": round(vec_steps[0], 4),
                "cycle_s": round(median(vec_steps[1:]), 4),
                "scanned_rows": vcache.scanned_rows,
                "fallback_probes": vcache.fallback_probes,
                "probes": vcache.probes,
            },
            "mat_ratio": round(ratio, 1),
            "summaries_identical": True,
        }
    finally:
        if vec_reader is not None:
            vec_reader.close()
        wm.close()


def _run_engine(wl, backend: str) -> Dict:
    """End-to-end process-backend run: fire every hit, to quiescence."""
    engine = ParulelEngine(
        wl.program,
        EngineConfig(
            matcher="process:2", wm_backend=backend, pool=PoolConfig(timeout=300.0)
        ),
    )
    try:
        wl.load(engine.wm)
        t0 = time.perf_counter()
        result = engine.run()
        wall = time.perf_counter() - t0
        return {
            "cycles": result.cycles,
            "firings": result.firings,
            "wall_s": round(wall, 3),
            "wm_digest": _wm_digest(engine.wm),
        }
    finally:
        engine.close()


def measure_tier(tier: str) -> Dict:
    tier_cfg = TIERS[tier]
    wl = _build_stores(tier_cfg)
    out: Dict = {"n_facts": tier_cfg["n_facts"]}

    pool_rows = {b: _run_pool(wl, tier_cfg, b) for b in ("dict", "columnar")}
    if pool_rows["dict"]["images"] != pool_rows["columnar"]["images"]:
        raise AssertionError(
            f"{tier}: conflict sets diverge between stores"
        )
    if pool_rows["dict"]["wm_digest"] != pool_rows["columnar"]["wm_digest"]:
        raise AssertionError(f"{tier}: final WM diverges between stores")
    for row in pool_rows.values():
        del row["images"]
    ratio = pool_rows["dict"]["bytes_per_cycle"] / max(
        pool_rows["columnar"]["bytes_per_cycle"], 1
    )
    out["pool"] = {
        "dict": pool_rows["dict"],
        "columnar": pool_rows["columnar"],
        "bytes_ratio": round(ratio, 1),
        "stores_identical": True,
    }

    threaded = {b: _run_threaded(wl, tier_cfg, b) for b in ("dict", "columnar")}
    if threaded["dict"]["image"] != threaded["columnar"]["image"]:
        raise AssertionError(f"{tier}: threaded conflict sets diverge")
    out["threaded"] = {
        b: {"cycle_s": r["cycle_s"]} for b, r in threaded.items()
    }

    out["vector"] = _run_vector(wl, tier_cfg)

    engine = {backend: _run_engine(wl, backend) for backend in ENGINE_CONFIGS}
    identity = {
        name: (row["cycles"], row["firings"], row["wm_digest"])
        for name, row in engine.items()
    }
    if len(set(identity.values())) != 1:
        raise AssertionError(
            f"{tier}: engine runs diverge between configs: {engine}"
        )
    out["engine"] = engine

    leaked = glob.glob("/dev/shm/pwm*")
    if leaked:
        raise AssertionError(f"{tier}: leaked shared-memory segments {leaked}")
    return out


def measure_workloads() -> Dict[str, Dict]:
    """Every registry workload through both engine configurations;
    cycles/firings/final-WM digests must agree."""
    from repro.programs import REGISTRY

    out: Dict[str, Dict] = {}
    for name in sorted(REGISTRY):
        wl = REGISTRY[name]()
        rows = {}
        for backend in ENGINE_CONFIGS:
            engine = ParulelEngine(
                wl.program,
                EngineConfig(
                    matcher="process:2",
                    wm_backend=backend,
                    pool=PoolConfig(timeout=300.0),
                ),
            )
            try:
                wl.setup(engine.wm)
                result = engine.run()
                rows[backend] = (
                    result.cycles,
                    result.firings,
                    _wm_digest(engine.wm),
                )
            finally:
                engine.close()
        if len(set(rows.values())) != 1:
            raise AssertionError(f"workload {name}: configs diverge: {rows}")
        cycles, firings, digest = rows["columnar"]
        out[name] = {
            "cycles": cycles,
            "firings": firings,
            "wm_digest": digest,
            "identical": True,
        }
        print(
            f"workload {name:<10} {cycles:>4} cycles {firings:>6} firings "
            f"(both stores byte-identical)"
        )
    return out


def report(tiers: Dict[str, Dict]) -> None:
    header = (
        f"{'tier':<10} {'store':<9} {'prime s':>8} {'prime B':>12} "
        f"{'B/cycle':>10} {'cycle s':>8} {'ratio':>8}"
    )
    print(header)
    print("-" * len(header))
    for tier, data in tiers.items():
        pool = data["pool"]
        for backend in ("dict", "columnar"):
            row = pool[backend]
            ratio = f"{pool['bytes_ratio']:>7.1f}x" if backend == "columnar" else ""
            print(
                f"{tier:<10} {backend:<9} {row['prime_s']:>8.3f} "
                f"{row['prime_bytes']:>12} {row['bytes_per_cycle']:>10.1f} "
                f"{row['steady_s_per_cycle']:>8.4f} {ratio:>8}"
            )
        vec = data["vector"]
        print(
            f"{tier:<10} vector: {vec['object']['materialized_per_cycle']} -> "
            f"{vec['vector']['materialized_per_cycle']} WMEs/cycle "
            f"({vec['mat_ratio']}x fewer), refresh+match "
            f"{vec['object']['cycle_s']}s -> "
            f"{vec['vector']['cycle_s']}s/cycle"
        )
        eng = data["engine"]["columnar"]
        print(
            f"{tier:<10} engine: {eng['cycles']} cycles, {eng['firings']} "
            f"firings, {eng['wall_s']}s (configs byte-identical)"
        )


def check(current: Dict[str, Dict], baseline: Dict) -> int:
    failures = []
    base_tiers = baseline.get("tiers", {})
    for tier, data in current.items():
        base = base_tiers.get(tier)
        if base is None:
            failures.append(f"{tier}: missing from baseline (re-run --write)")
            continue
        ratio = data["pool"]["bytes_ratio"]
        if ratio < RATIO_FLOOR:
            failures.append(
                f"{tier}: columnar bytes advantage {ratio:.1f}x below the "
                f"{RATIO_FLOOR:.0f}x floor"
            )
        vec = data.get("vector")
        if vec is None:
            failures.append(f"{tier}: vector section missing from the run")
        else:
            if vec["mat_ratio"] < MAT_RATIO_FLOOR:
                failures.append(
                    f"{tier}: vector materialization advantage "
                    f"{vec['mat_ratio']:.1f}x below the "
                    f"{MAT_RATIO_FLOOR:.0f}x floor"
                )
            if not vec.get("summaries_identical"):
                failures.append(
                    f"{tier}: vector kernel summaries diverged"
                )
            # Live latency gate with noise slack; the recorded baseline is
            # held to a strict win below.
            if vec["vector"]["cycle_s"] > vec["object"]["cycle_s"] * 1.10:
                failures.append(
                    f"{tier}: vector refresh+match "
                    f"{vec['vector']['cycle_s']}s/cycle slower than object "
                    f"path {vec['object']['cycle_s']}s/cycle"
                )
        cur_bpc = data["pool"]["columnar"]["bytes_per_cycle"]
        base_bpc = base["pool"]["columnar"]["bytes_per_cycle"]
        if cur_bpc > base_bpc * BYTES_SLACK:
            failures.append(
                f"{tier}: columnar bytes/cycle regressed "
                f"{base_bpc} -> {cur_bpc}"
            )
        for field in ("cycles", "firings"):
            cur_v = data["engine"]["columnar"][field]
            base_v = base["engine"]["columnar"][field]
            if cur_v != base_v:
                failures.append(
                    f"{tier}: engine {field} changed {base_v} -> {cur_v}"
                )
        cur_wall = data["engine"]["columnar"]["wall_s"]
        base_wall = base["engine"]["columnar"]["wall_s"]
        if cur_wall > base_wall * 3:
            print(
                f"note: {tier} engine wall {base_wall}s -> {cur_wall}s "
                f"(advisory, not gating)"
            )
    # Tiers recorded in the baseline but not re-run (the million tier under
    # --check) must still carry a passing ratio and the identity bits.
    for tier, base in base_tiers.items():
        if tier in current:
            continue
        if base["pool"]["bytes_ratio"] < RATIO_FLOOR:
            failures.append(
                f"{tier} (recorded): bytes ratio "
                f"{base['pool']['bytes_ratio']:.1f}x below the floor"
            )
        if not base["pool"].get("stores_identical"):
            failures.append(f"{tier} (recorded): stores_identical is not set")
        base_vec = base.get("vector")
        if base_vec is None:
            failures.append(
                f"{tier} (recorded): vector section missing "
                f"(re-run --write --full)"
            )
        else:
            if base_vec["mat_ratio"] < MAT_RATIO_FLOOR:
                failures.append(
                    f"{tier} (recorded): vector materialization advantage "
                    f"{base_vec['mat_ratio']:.1f}x below the "
                    f"{MAT_RATIO_FLOOR:.0f}x floor"
                )
            if not base_vec.get("summaries_identical"):
                failures.append(
                    f"{tier} (recorded): vector summaries_identical not set"
                )
            if base_vec["vector"]["cycle_s"] > base_vec["object"]["cycle_s"]:
                failures.append(
                    f"{tier} (recorded): no probe-latency win — vector "
                    f"{base_vec['vector']['cycle_s']}s/cycle vs object "
                    f"{base_vec['object']['cycle_s']}s/cycle "
                    f"(re-run --write --full)"
                )
    # The full-sweep workload identity section must exist, cover the whole
    # registry, and carry its identity bits.
    from repro.programs import REGISTRY

    workloads = baseline.get("workloads", {})
    missing = sorted(set(REGISTRY) - set(workloads))
    if missing:
        failures.append(
            f"workloads: {', '.join(missing)} missing from the recorded "
            f"identity sweep (re-run --write --full)"
        )
    for name, row in sorted(workloads.items()):
        if not row.get("identical"):
            failures.append(f"workload {name}: identity bit not set")
    if failures:
        print("\nWM GATE FAILED:")
        for line in failures:
            print(f"  - {line}")
        return 1
    print(
        "\nwm gate OK: stores identical, byte and materialization "
        "advantages hold, workload sweep recorded"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--write", action="store_true", help="refresh the baseline JSON"
    )
    mode.add_argument(
        "--check",
        action="store_true",
        help="gate against the baseline (default)",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="also run the million-WME tier (minutes; --write records it)",
    )
    args = parser.parse_args(argv)

    tiers = ["gate"] + (["million"] if args.full else [])
    current = {tier: measure_tier(tier) for tier in tiers}
    workloads = measure_workloads() if args.full else None
    report(current)

    if args.write:
        previous: Dict = {}
        if os.path.exists(BASELINE_PATH):
            with open(BASELINE_PATH) as fh:
                previous = json.load(fh)
        merged_tiers = previous.get("tiers", {})
        merged_tiers.update(current)
        baseline = {"tiers": merged_tiers}
        if workloads is not None:
            baseline["workloads"] = workloads
        elif "workloads" in previous:
            baseline["workloads"] = previous["workloads"]
        os.makedirs(os.path.dirname(BASELINE_PATH), exist_ok=True)
        with open(BASELINE_PATH, "w") as fh:
            json.dump(baseline, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nwrote {BASELINE_PATH}")
        return 0

    if not os.path.exists(BASELINE_PATH):
        print(f"no baseline at {BASELINE_PATH}; run with --write first")
        return 1
    with open(BASELINE_PATH) as fh:
        baseline = json.load(fh)
    return check(current, baseline)


if __name__ == "__main__":
    sys.exit(main())
