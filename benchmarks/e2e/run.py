"""Entry point named by ``BENCHMARK.json``: ``python3 benchmarks/e2e/run.py
--workload W --seed N --seconds S --trace 0|1`` from the root of a checkout.
Puts the checkout and its ``src/`` on ``sys.path``, then hands over to
:mod:`benchmarks.e2e.harness` (also reachable as
``PYTHONPATH=src python -m benchmarks.e2e``)."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

if __name__ == "__main__":
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        sys.exit(f"{ROOT} holds no src/repro: nothing to benchmark")
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from benchmarks.e2e.harness import main

    sys.exit(main())
