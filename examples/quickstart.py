#!/usr/bin/env python3
"""Quickstart: write a PARULEL program, run it, inspect the results.

Run:  python examples/quickstart.py
"""

from repro import OPS5Engine, ParulelEngine, parse_program

# A PARULEL program is OPS5-flavoured: `literalize` declares WME classes,
# `p` rules match working memory on the left of `-->` and act on the right.
# PARULEL's twist: in each cycle EVERY matching instantiation fires at once.
SOURCE = """
(literalize employee name salary dept raised)
(literalize raise-batch dept pct)

(p apply-raise
    (raise-batch ^dept <d> ^pct <p>)
    (employee ^name <n> ^salary <s> ^dept <d> ^raised no)
    -->
    (modify 2 ^salary (compute <s> + <p>) ^raised yes)
    (write gave <n> a raise))

(p retire-batch
    (raise-batch ^dept <d>)
    -(employee ^dept <d> ^raised no)
    -->
    (remove 1))
"""


def main() -> None:
    program = parse_program(SOURCE)

    engine = ParulelEngine(program)
    engine.make("employee", name="ada", salary=900, dept="eng", raised="no")
    engine.make("employee", name="grace", salary=950, dept="eng", raised="no")
    engine.make("employee", name="edsger", salary=980, dept="eng", raised="no")
    engine.make("raise-batch", dept="eng", pct=100)

    result = engine.run()

    print("== PARULEL (set-oriented firing) ==")
    print(f"cycles: {result.cycles}, firings: {result.firings}")
    for line in result.output:
        print(" ", line)
    for emp in engine.wm.by_class("employee"):
        print(f"  {emp.get('name')}: {emp.get('salary')}")
    # All three raises landed in ONE cycle; the batch retired in the next.
    assert result.cycles == 2

    # The same program under the sequential OPS5 baseline takes one cycle
    # per raise — the conflict-resolution bottleneck PARULEL removes.
    ops5 = OPS5Engine(program)
    ops5.make("employee", name="ada", salary=900, dept="eng", raised="no")
    ops5.make("employee", name="grace", salary=950, dept="eng", raised="no")
    ops5.make("employee", name="edsger", salary=980, dept="eng", raised="no")
    ops5.make("raise-batch", dept="eng", pct=100)
    ops5_result = ops5.run()
    print("\n== OPS5 baseline (one firing per cycle) ==")
    print(f"cycles: {ops5_result.cycles}")
    assert ops5_result.cycles == 4


if __name__ == "__main__":
    main()
