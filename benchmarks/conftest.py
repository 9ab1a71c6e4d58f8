"""Shared helpers for the experiment benches.

Every bench both *benchmarks* a representative callable (pytest-benchmark)
and *regenerates its table/figure data* deterministically, printing it and
persisting it under ``benchmarks/results/`` so EXPERIMENTS.md can quote it.
Shape assertions live inside the benchmark tests so they still run under
``--benchmark-only``.
"""

from __future__ import annotations

import os

import pytest

from repro.obs import Table

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def emit(table: Table, filename: str) -> None:
    """Print a result table and persist it as text + CSV."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    text = str(table)
    print()
    print(text)
    base = os.path.join(RESULTS_DIR, filename)
    with open(base + ".txt", "w") as fh:
        fh.write(text + "\n")
    table.save_csv(base + ".csv")


@pytest.fixture(scope="session")
def results_dir():
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR
