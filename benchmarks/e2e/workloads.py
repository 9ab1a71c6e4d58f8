"""Seeded input generators and output verifiers for the six workloads.

Every workload is a ``.pl`` program plus a ``.facts`` file written to a
directory; the CLI under test receives only those two files. The seed
decides node labels and fact order (tc), fact order (manners) and item
keys (bulk), none of which changes how much work a run is; sizes, flags
and the one-line reason live in :data:`WORKLOADS`.
Expected cycle/firing counts and the final-WM verifier are computed here,
directly from the generated facts, never by running the engine.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from repro.lang import format_program
from repro.programs.manners import build_manners
from repro.programs.tc import tc_program
from repro.wm.io import dumps, load_facts
from repro.wm.memory import WorkingMemory

__all__ = ["Inputs", "Workload", "WORKLOADS", "generate", "parse_dump"]

Fact = Tuple[str, Dict[str, str]]


@dataclass(frozen=True)
class Workload:
    """One named cell of the benchmark: an input family at a size, run
    under fixed CLI flags."""

    name: str
    family: str
    #: Generator parameters at full size, and at ``--smoke`` size.
    size: Dict[str, int]
    smoke_size: Dict[str, int]
    #: Flags appended to ``parulel run PROGRAM --facts FACTS --dump-wm OUT``.
    flags: Tuple[str, ...]
    #: The workload whose dumped WM this one's must equal byte for byte
    #: (itself for the first of a same-input pair). The warm-up execution
    #: runs the reference's flags, so every run checks the pair.
    reference: str
    why: str


_TC = {"n_chains": 48, "chain_length": 20}
_TC_SMOKE = {"n_chains": 8, "chain_length": 14}
_BULK = {"n_items": 12_000, "n_probes": 20, "ticks": 40}
_BULK_SMOKE = {"n_items": 3000, "n_probes": 6, "ticks": 12}

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "tc-rete", "tc", _TC, _TC_SMOKE, (), "tc-rete",
            "The no-flags configuration: huge firing sets, no meta-rules; "
            "RETE maintenance, action evaluation, delta merge and the WM "
            "store do the work, redaction and IPC none.",
        ),
        Workload(
            "tc-process", "tc", _TC, _TC_SMOKE,
            ("--matcher", "process", "--workers", "2"), "tc-rete",
            "Same files through the process pool with the dict store: "
            "spawn, pickled per-cycle deltas, barrier wait, per-cycle full "
            "enumeration - the serial/parallel crossover pair of tc-rete.",
        ),
        Workload(
            "tc-treat", "tc",
            {"n_chains": 12, "chain_length": 20}, _TC_SMOKE,
            ("--matcher", "treat"), "tc-treat",
            "The shared enumerator kernel (join + alpha index + conflict "
            "set) used incrementally in-process, the opposite of the "
            "workers' per-cycle full enumeration.",
        ),
        Workload(
            "manners-rete", "manners", {"n_guests": 64}, {"n_guests": 24},
            (), "manners-rete",
            "Most of the run is redaction (reify + meta-match fixpoint) "
            "over many tiny cycles: stresses the meta level and per-cycle "
            "fixed cost; bulk firing and IPC do nothing. The seed permutes "
            "the order of the facts only; the hobby draw is fixed.",
        ),
        Workload(
            "bulk-process-dict", "bulk", _BULK, _BULK_SMOKE,
            ("--matcher", "process", "--workers", "2"), "bulk-process-dict",
            "Big, mostly inert WM with a tiny per-cycle delta: facts "
            "parse, load and the priming snapshot pickled to workers "
            "dominate; steady cycles expose enumeration and IPC.",
        ),
        Workload(
            "bulk-process-columnar", "bulk", _BULK, _BULK_SMOKE,
            ("--matcher", "process", "--workers", "2",
             "--wm-backend", "columnar"),
            "bulk-process-dict",
            "Same files over the columnar store: parent writes are column "
            "appends, worker reads are shared-memory scans - a store gain "
            "for readers that costs the writer shows against the dict twin.",
        ),
    )
}


@dataclass
class Inputs:
    """Generated files plus what a correct run over them must produce."""

    program: Path
    facts: Path
    n_facts: int
    n_rules: int
    cycles: int
    firings: int
    #: ``verify(dumped WM text)`` -> failed check names (empty = correct).
    verify: Callable[[str], List[str]]


def parse_dump(text: str) -> List[Fact]:
    """Parse ``--dump-wm`` text (one ``(class ^attr value ...)`` per line,
    values without spaces — all these workloads produce) far faster than
    the engine's tokenizer-based facts parser; values stay strings."""
    facts = []
    for line in text.splitlines():
        head, *pairs = line[1:-1].split(" ^")
        facts.append((head, dict(p.split(" ", 1) for p in pairs)))
    return facts


def _tc(rng: random.Random, n_chains: int, chain_length: int):
    stride = chain_length + 1
    labels = list(range(n_chains * stride))
    rng.shuffle(labels)
    chains = [labels[c * stride:(c + 1) * stride] for c in range(n_chains)]
    edges = [(ch[i], ch[i + 1]) for ch in chains for i in range(chain_length)]
    rng.shuffle(edges)
    facts = [f"(edge ^src n{a} ^dst n{b})" for a, b in edges]
    closure = {
        (f"n{ch[i]}", f"n{ch[j]}")
        for ch in chains
        for i in range(stride)
        for j in range(i + 1, stride)
    }

    def verify(dump: str) -> List[str]:
        paths = [
            (a["src"], a["dst"]) for cls, a in parse_dump(dump) if cls == "path"
        ]
        failed = []
        if len(paths) != len(closure):
            failed.append("path-count-matches-formula")
        if set(paths) != closure:
            failed.append("closure-exact")
        return failed

    # tc-extend lengthens every path by one edge per cycle.
    return (format_program(tc_program()), facts, 2, chain_length,
            len(closure), verify)


def _manners(rng: random.Random, n_guests: int):
    # The hobby draw stays build_manners' default: another draw changes
    # the candidate count, and with it the run time, by up to 7 %, while
    # the order of the facts changes no count at all.
    workload = build_manners(n_guests=n_guests)
    wm = WorkingMemory()
    workload.setup(wm)
    facts = dumps(wm).splitlines()
    rng.shuffle(facts)
    n_hobbies = wm.count_class("hobby")

    def verify(dump: str) -> List[str]:
        return workload.failed_checks(load_facts(dump))

    program = workload.program
    # Cycles alternate seat / expose-hobby; every guest is seated once and
    # every hobby fact exposed once.
    return (format_program(program), facts,
            len(program.rules) + len(program.meta_rules),
            2 * n_guests, n_guests + n_hobbies, verify)


_BULK_PROGRAM = """\
(literalize item key payload)
(literalize probe key)
(literalize hit key payload)
(literalize clock value)

(p probe-hit
    (probe ^key <k>)
    (item ^key <k> ^payload <p>)
    -->
    (make hit ^key <k> ^payload <p>))

(p tick
    (clock ^value {{<v> < {ticks}}})
    -->
    (modify 1 ^value (compute <v> + 1))
    (make probe ^key <v>))
"""


def _bulk(rng: random.Random, n_items: int, n_probes: int, ticks: int):
    # Tick k makes probe k; the initial probes take the next n_probes keys.
    # The key space is 16x the probed keys, so most of the WM never
    # matches. Every probed key gets the same number of items, so firings
    # and cycles do not depend on the seed (the last tick's probe fires
    # one cycle after the last tick); the seed draws the inert keys and
    # shuffles which payload carries which key.
    probed = ticks + n_probes
    per_key = max(1, n_items // (16 * probed))
    keys = [k for k in range(probed) for _ in range(per_key)]
    keys += [
        rng.randrange(probed, 16 * probed) for _ in range(n_items - len(keys))
    ]
    rng.shuffle(keys)
    facts = [f"(item ^key {k} ^payload {i})" for i, k in enumerate(keys)]
    facts += [f"(probe ^key {k})" for k in range(ticks, probed)]
    facts.append("(clock ^value 0)")
    hits = {(str(k), str(i)) for i, k in enumerate(keys) if k < probed}

    def verify(dump: str) -> List[str]:
        wm = parse_dump(dump)
        got = [(a["key"], a["payload"]) for cls, a in wm if cls == "hit"]
        failed = []
        if len(got) != len(hits) or set(got) != hits:
            failed.append("hits-match-facts")
        if [a["value"] for cls, a in wm if cls == "clock"] != [str(ticks)]:
            failed.append("clock-at-last-tick")
        if sum(1 for cls, _ in wm if cls == "probe") != probed:
            failed.append("one-probe-per-tick")
        return failed

    return (_BULK_PROGRAM.format(ticks=ticks), facts, 2, ticks + 1,
            ticks + len(hits), verify)


def generate(
    workload: Workload, seed: int, out_dir: Path, smoke: bool = False
) -> Inputs:
    """Write ``<family>.pl``, ``<family>.facts`` and ``<family>.json`` (the
    manifest) into ``out_dir``. Same-input workloads generate identical
    files, so they may share a directory."""
    size = workload.smoke_size if smoke else workload.size
    family = {"tc": _tc, "manners": _manners, "bulk": _bulk}[workload.family]
    program_text, facts, n_rules, cycles, firings, verify = family(
        random.Random(seed), **size
    )
    program = out_dir / f"{workload.family}.pl"
    facts_path = out_dir / f"{workload.family}.facts"
    program.write_text(program_text)
    facts_path.write_text("\n".join(facts) + "\n")
    (out_dir / f"{workload.family}.json").write_text(json.dumps({
        "workload": workload.name, "seed": seed, "size": size,
        "flags": list(workload.flags), "reference": workload.reference,
        "facts": len(facts), "rules": n_rules,
        "expected_cycles": cycles, "expected_firings": firings,
        "why": workload.why,
    }, indent=2))
    return Inputs(program, facts_path, len(facts), n_rules, cycles, firings,
                  verify)
