"""Match-kernel microbenchmark and CI perf gate.

Runs the registry workloads that exercise heavy joins (tc, manners, waltz,
sort) through full engine runs with the hash-indexed join kernel on and off, and
records the *deterministic* match-work counters (``join_probes`` +
``join_checks``). The ``*/meta`` rows are the meta level's own join:
``join_probes`` + witnesses, indexed and not. Manners' and routing's
meta-rules all redact the greater of two instantiations on one ordered
attribute, so indexed they are answered from a per-group extremum, which
counts every reification it reads as a ``join_probes`` and each distinct
instantiation it found redactable (its witnesses) under
``instantiations``; the nested-loop reference walks the join kernel's
existence mode, with the same meaning for both counters. Manners orders
symbols and ints, routing numeric costs. Because the
engines are deterministic, these counters are byte-stable across machines
— unlike wall-clock, which is printed for context but never gates.

Usage (from the repo root, ``PYTHONPATH=src``)::

    python -m benchmarks.match_microbench --write   # refresh the baseline
    python -m benchmarks.match_microbench --check   # CI gate (default)

``--check`` fails (exit 1) when:

- any scenario's indexed counter total exceeds the checked-in baseline in
  ``benchmarks/results/BENCH_match.json`` (a join-kernel perf regression);
- cycles/firings differ from the baseline (a semantics change — fix the
  engine or consciously re-``--write``);
- the manners reduction factor drops below the 5x floor the indexing work
  promised.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict

from repro.core import EngineConfig, ParulelEngine
from repro.programs import REGISTRY
from tests.nested_loop import nested_loop_engine

BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), "results", "BENCH_match.json"
)

#: (workload, matcher) pairs measured; treat is the paper's engine, naive
#: shows the indexed alpha cache also rescues the recompute-everything path.
#: ``meta`` is not a matcher: that row counts the meta level's phase-local
#: join (``MetaLevel.stats``: ``join_probes`` + ``instantiations``, i.e.
#: candidates tested + witnesses) under the default object-level matcher.
SCENARIOS = (
    ("tc", "treat"),
    ("tc", "naive"),
    ("manners", "treat"),
    ("manners", "naive"),
    ("manners", "meta"),
    ("routing", "meta"),
    ("waltz", "treat"),
    # sort's ``swap`` pins a CE the plan cannot visit first: the row that
    # catches a |partials| x |batch| join of a late-pinned batch.
    ("sort", "treat"),
)

#: Indexing must cut manners join work by at least this factor.
MANNERS_FLOOR = 5.0


def run_workload(workload: str, matcher: str, indexed: bool) -> Dict:
    wl = REGISTRY[workload]()
    meta = matcher == "meta"
    # The meta row counts the meta level's join under the default matcher.
    chosen = {} if meta else {"matcher": matcher}
    build = ParulelEngine if indexed else nested_loop_engine
    engine = build(wl.program, EngineConfig(**chosen))
    wl.setup(engine)
    start = time.perf_counter()
    result = engine.run(max_cycles=5000)
    wall = time.perf_counter() - start
    if not wl.verify(engine.wm):
        raise AssertionError(
            f"{workload}/{matcher} (indexed={indexed}) failed verification: "
            f"{wl.failed_checks(engine.wm)}"
        )
    if meta:
        totals = engine.meta.stats.totals
        ops = totals["join_probes"] + totals["instantiations"]
    else:
        totals = engine.matcher.stats.totals
        ops = totals["join_probes"] + totals["join_checks"]
    return {
        "ops": int(ops),
        "cycles": result.cycles,
        "firings": result.firings,
        "wall_ms": round(wall * 1000, 2),
    }


def measure() -> Dict[str, Dict]:
    out = {}
    for workload, matcher in SCENARIOS:
        key = f"{workload}/{matcher}"
        indexed = run_workload(workload, matcher, True)
        noindex = run_workload(workload, matcher, False)
        out[key] = {
            "indexed_ops": indexed["ops"],
            "noindex_ops": noindex["ops"],
            "cycles": indexed["cycles"],
            "firings": indexed["firings"],
            "indexed_wall_ms": indexed["wall_ms"],
            "noindex_wall_ms": noindex["wall_ms"],
        }
        if indexed["cycles"] != noindex["cycles"] or (
            indexed["firings"] != noindex["firings"]
        ):
            raise AssertionError(
                f"{key}: indexing changed engine semantics "
                f"({indexed['cycles']}/{indexed['firings']} vs "
                f"{noindex['cycles']}/{noindex['firings']})"
            )
    return out


def report(current: Dict[str, Dict]) -> None:
    header = (
        f"{'scenario':<16} {'indexed ops':>12} {'noindex ops':>12} "
        f"{'reduction':>10} {'wall ms':>9}"
    )
    print(header)
    print("-" * len(header))
    for key, row in current.items():
        factor = row["noindex_ops"] / max(row["indexed_ops"], 1)
        print(
            f"{key:<16} {row['indexed_ops']:>12} {row['noindex_ops']:>12} "
            f"{factor:>9.1f}x {row['indexed_wall_ms']:>9.1f}"
        )


def check(current: Dict[str, Dict], baseline: Dict[str, Dict]) -> int:
    failures = []
    for key, row in current.items():
        base = baseline.get(key)
        if base is None:
            failures.append(f"{key}: missing from baseline (re-run --write)")
            continue
        if row["indexed_ops"] > base["indexed_ops"]:
            failures.append(
                f"{key}: indexed join work regressed "
                f"{base['indexed_ops']} -> {row['indexed_ops']}"
            )
        if (row["cycles"], row["firings"]) != (base["cycles"], base["firings"]):
            failures.append(
                f"{key}: cycles/firings changed "
                f"{(base['cycles'], base['firings'])} -> "
                f"{(row['cycles'], row['firings'])}"
            )
        # Wall-clock is advisory only: noisy on shared machines.
        if row["indexed_wall_ms"] > base["indexed_wall_ms"] * 3:
            print(
                f"note: {key} wall-clock {base['indexed_wall_ms']}ms -> "
                f"{row['indexed_wall_ms']}ms (advisory, not gating)"
            )
    for key in ("manners/treat", "manners/naive"):
        row = current[key]
        factor = row["noindex_ops"] / max(row["indexed_ops"], 1)
        if factor < MANNERS_FLOOR:
            failures.append(
                f"{key}: reduction {factor:.1f}x below the "
                f"{MANNERS_FLOOR:.0f}x floor"
            )
    if failures:
        print("\nPERF GATE FAILED:")
        for line in failures:
            print(f"  - {line}")
        return 1
    print("\nperf gate OK: no counter regressions")
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
    args = parser.parse_args(argv)

    current = measure()
    report(current)

    if args.write:
        os.makedirs(os.path.dirname(BASELINE_PATH), exist_ok=True)
        with open(BASELINE_PATH, "w") as fh:
            json.dump(current, fh, indent=2, sort_keys=True)
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
