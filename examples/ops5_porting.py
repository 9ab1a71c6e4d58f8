#!/usr/bin/env python3
"""Porting an OPS5 program to PARULEL, with the static analysis in the loop.

The paper's intended workflow: take a sequential OPS5 program, run it
set-oriented, and add redaction meta-rules wherever parallel firings
collide. This example walks that loop mechanically:

1. a little inventory-allocation program runs fine under sequential OPS5;
2. under PARULEL it aborts with an InterferenceError (two order-filling
   firings decrement the same stock WME);
3. ``repro.analysis.analyze`` predicts exactly that pair statically (a
   PA001 interference candidate) and drafts a meta-rule skeleton as its
   hint;
4. we refine the skeleton (serialize only *colliding* orders — same item)
   and the program runs parallel AND correct: orders for different items
   still fire in the same cycle.

Run:  python examples/ops5_porting.py
"""

from repro import InterferenceError, OPS5Engine, ParulelEngine, parse_program
from repro.analysis import analyze, render_text

OPS5_PROGRAM = """
(literalize order id item qty status)
(literalize stock item units)

(p fill
    (order ^id <o> ^item <i> ^qty <q> ^status open)
    (stock ^item <i> ^units {<u> >= <q>})
    -->
    (modify 2 ^units (compute <u> - <q>))
    (modify 1 ^status filled))
"""

REFINED_META = """
(mp serialize-same-item
    (instantiation ^rule fill ^id <a> ^i <item>)
    (instantiation ^rule fill ^id {<b> > <a>} ^i <item>)
    -->
    (redact <b>))
"""


def load(engine) -> None:
    engine.make("stock", item="widget", units=10)
    engine.make("stock", item="gadget", units=10)
    engine.make("order", id="o1", item="widget", qty=4, status="open")
    engine.make("order", id="o2", item="widget", qty=5, status="open")
    engine.make("order", id="o3", item="gadget", qty=6, status="open")


def main() -> None:
    program = parse_program(OPS5_PROGRAM)

    print("== 1. sequential OPS5: works (one firing per cycle)")
    ops5 = OPS5Engine(program)
    load(ops5)
    res = ops5.run()
    print(f"   {res.cycles} cycles; widget stock:",
          ops5.wm.find("stock", item="widget")[0].get("units"))

    print("\n== 2. naive PARULEL port: parallel firings collide")
    par = ParulelEngine(program)
    load(par)
    try:
        par.run()
        raise AssertionError("expected an InterferenceError")
    except InterferenceError as exc:
        print(f"   InterferenceError: {exc}")

    print("\n== 3. the static analysis predicted this (PA001):")
    pa001 = [d for d in analyze(program).diagnostics if d.code == "PA001"]
    for line in render_text(pa001).splitlines():
        print("   " + line)
    assert any(d.ce == 2 for d in pa001)  # fill's stock write, CE 2
    assert all("(mp " in d.hint for d in pa001)  # skeletons drafted

    print("\n== 4. refined meta-rule: serialize only same-item orders")
    patched = parse_program(OPS5_PROGRAM + REFINED_META)
    fixed = ParulelEngine(patched)
    load(fixed)
    res = fixed.run()
    widget = fixed.wm.find("stock", item="widget")[0].get("units")
    gadget = fixed.wm.find("stock", item="gadget")[0].get("units")
    filled = len(fixed.wm.find("order", status="filled"))
    print(
        f"   {res.cycles} cycles, {res.firings} firings; "
        f"widget stock {widget}, gadget stock {gadget}, {filled} orders filled"
    )
    # Cycle 1 fills one widget order AND the gadget order in parallel;
    # cycle 2 fills the second widget order against the updated stock.
    assert res.cycles == 2
    assert res.reports[0].fired == 2
    assert widget == 1 and gadget == 4 and filled == 3


if __name__ == "__main__":
    main()
