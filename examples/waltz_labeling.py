#!/usr/bin/env python3
"""Waltz-style constraint-label propagation with a live cycle trace.

Shows PARULEL's data parallelism: many replicated drawings propagate their
label waves concurrently, so the cycle count tracks chain *length*, never
the *number* of drawings. The per-cycle trace prints the advancing
frontier.

Run:  python examples/waltz_labeling.py
"""

from repro import ParulelEngine
from repro.programs import build_waltz


def main() -> None:
    for n_drawings in (1, 4, 16):
        workload = build_waltz(n_drawings=n_drawings, chain_length=8)

        def trace(report):
            print(
                f"  cycle {report.cycle}: frontier of {report.fired} lines "
                f"labeled simultaneously"
            )

        engine = ParulelEngine(workload.program, trace=trace)
        workload.setup(engine)
        print(f"== {n_drawings} drawing(s), chain length 8")
        result = engine.run()
        assert workload.verify_ok(engine.wm), workload.failed_checks(engine.wm)
        print(
            f"  -> {result.cycles} cycles, {result.firings} labels derived; "
            f"cycles are independent of drawing count\n"
        )

    # The invariant the figure bench asserts:
    cycles = []
    for n in (2, 8):
        wl = build_waltz(n_drawings=n, chain_length=8)
        eng = ParulelEngine(wl.program)
        wl.setup(eng)
        cycles.append(eng.run().cycles)
    assert cycles[0] == cycles[1] == 8


if __name__ == "__main__":
    main()
