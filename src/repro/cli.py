"""Command-line front end: run, check, format and demo PARULEL programs.

Installed as ``parulel`` (see pyproject). Subcommands:

``parulel run PROGRAM [--facts FILE] [--engine parulel|ops5] ...``
    execute a program to quiescence/halt and report cycles, firings and
    the ``(write ...)`` output. The matcher is set-oriented TREAT unless
    ``--matcher naive|process`` says otherwise; every matcher gives the
    same firings and the same ``--dump-wm`` bytes (RETE is a figure's
    comparand in :mod:`repro.lab`, which no command runs);
``parulel check PROGRAM``
    parse + semantic analysis, then a one-line-per-rule inventory;
``parulel fmt PROGRAM``
    canonical pretty-printed form (round-trips through the parser);
``parulel demo NAME``
    build and run a bundled benchmark workload under both engines;
``parulel dot PROGRAM [--facts FILE]``
    Graphviz DOT of the TREAT join plan a run executes: alpha memories
    (sized by the facts) and each rule's CEs in join order;
``parulel explain PROGRAM --facts FILE --wme "(class ^attr value)"``
    run with provenance tracking and print the derivation tree of the
    final WME matching the given pattern;
``parulel analyze [PROGRAM ...] [--facts FILE] [--json|--sarif]``
    whole-program static analysis: interference candidates with meta-rule
    skeletons (the OPS5→PARULEL porting aid), rule dependency graph,
    stratification, redaction coverage, commutativity, dead rules,
    unsatisfiable CEs — ``PAxxx`` diagnostics as text, flat JSON or
    SARIF-shaped JSON (no arguments: analyze every bundled workload);
``parulel repl PROGRAM [--facts FILE]``
    interactive session: assert facts, step cycles, inspect the conflict
    set, explain derivations.
``parulel profile TARGET [--facts FILE] [--matcher ...] [--top N]``
    run a program (or a bundled workload name like ``tc``) with the
    observability layer on and print the per-phase breakdown plus the
    hot-rule table (time, candidates, firings, redactions per rule);
``parulel janitor [--dry-run]``
    reclaim orphaned ``/dev/shm`` segments left behind by killed
    ``--wm-backend columnar`` runs and killed flight-recorder rings
    (safe: only segments whose owner process is gone are removed);
``parulel blackbox dump|report|diff FILE ...``
    post-mortem tooling for ``*.blackbox`` crash dumps: ``dump`` prints
    the merged causal timeline across the engine and every worker ring,
    ``report`` prints per-site busy/skew and per-rule time-share
    analytics with cycle-phase percentiles, ``diff`` pinpoints the first
    diverging event between two recordings (exit 1 on divergence).

The flight recorder is **on by default** for ``parulel run``: every run
journals cycle, firing and worker events into fixed-size shared-memory rings
and writes a self-contained ``PROGRAM.blackbox`` dump on abnormal exit
(``--blackbox PATH`` overrides the path, ``--no-flight-recorder`` turns
the recorder off).

Checkpointing: ``--checkpoint-every N`` writes a resumable checkpoint
every N cycles into a rotating *store directory* (``--checkpoint``,
default ``PROGRAM.ckpt/``): a full snapshot every 5th save with cheap
delta checkpoints in between, the last 3 full snapshots kept — up to 3
full snapshots plus their deltas on disk. Every file is atomic and
digest-framed, so a crash mid-write never corrupts the previous one.
``--resume`` reads a store, falling back to the newest checkpoint that
verifies and warning about any it had to skip; it also reads a bare
checkpoint file, which older versions wrote.

``parulel run``/``parulel profile`` accept ``--trace-out PATH`` (Chrome
trace-event JSON, or JSONL when PATH ends in ``.jsonl`` — load the former
in Perfetto) and ``--metrics-out PATH`` (metrics snapshot as JSON, or
Prometheus text when PATH ends in ``.prom``/``.txt``).

A *facts file* contains bare WME forms, one per s-expression::

    (edge ^src n0 ^dst n1)
    (count ^value 0)
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.collector import CollectorSchedule
from repro.core import EngineConfig, ParulelEngine
from repro.errors import CycleLimitExceeded, ReproError
from repro.lang import analyze_program, format_program, parse_program
from repro.wm.io import Fact, dump, fact_line, parse_facts_text

__all__ = ["main", "parse_facts"]


def parse_facts(source: str) -> List[Fact]:
    """Parse a facts file into ``(class, attrs)`` pairs (see repro.wm.io)."""
    return parse_facts_text(source)


def _read_text(path: str) -> str:
    """The file at ``path``. Programs, facts and dumps are UTF-8 whatever
    the locale says, so a dump reloads on any box."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ReproError(f"{path}: not valid UTF-8 (byte {exc.start})") from None


def dump_wm_text(wm, path: str) -> None:  # noqa: ANN001 - either WM store
    """``--dump-wm``: the working memory as UTF-8 facts text, streamed to
    ``path`` a line at a time (no string of the whole WM is built)."""
    with open(path, "w", encoding="utf-8") as fh:
        dump(wm, fh)


def _read_facts(path: str) -> List[Fact]:
    """The facts of the facts file at ``path``; a syntax error names the
    file (program errors and facts errors look alike otherwise)."""
    source = _read_text(path)
    try:
        return parse_facts(source)
    except ReproError as exc:
        raise ReproError(f"{path}: {exc}") from exc


def _assert_facts(make, path: str, facts: List[Fact]) -> None:
    """``make(cls, attrs)`` for each fact :func:`_read_facts` found at
    ``path``; a rejected fact is reported with the file, its number and
    its line (found by reading the file again: nothing keeps positions, or
    the text, for the run)."""
    index = 0
    try:
        for index, (cls, attrs) in enumerate(facts, 1):
            make(cls, attrs)
    except ReproError as exc:
        line = fact_line(_read_text(path), index)
        raise ReproError(f"{path}: fact {index} (line {line}): {exc}") from exc


def _make_obs(args: argparse.Namespace):
    """(tracer, metrics) for the run — real recorders when the matching
    ``--*-out`` flag was given, else ``None`` (the engine's no-op default)."""
    tracer = metrics = None
    if getattr(args, "trace_out", None):
        from repro.obs import Tracer

        tracer = Tracer()
    if getattr(args, "metrics_out", None):
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
    return tracer, metrics


def _write_obs(args: argparse.Namespace, tracer, metrics) -> None:
    """Write whichever observability artifacts were requested. The format
    follows the suffix: ``--trace-out`` is Chrome trace JSON unless the
    path ends in ``.jsonl``; ``--metrics-out`` is a JSON snapshot unless
    the path ends in ``.prom``/``.txt`` (Prometheus text exposition)."""
    if tracer is not None and getattr(args, "trace_out", None):
        if args.trace_out.endswith(".jsonl"):
            tracer.write_jsonl(args.trace_out)
        else:
            tracer.write_chrome(args.trace_out)
        print(f"[obs] trace written to {args.trace_out}", file=sys.stderr)
    if metrics is not None and getattr(args, "metrics_out", None):
        if args.metrics_out.endswith((".prom", ".txt")):
            metrics.write_prometheus(args.metrics_out)
        else:
            metrics.write_json(args.metrics_out)
        print(f"[obs] metrics written to {args.metrics_out}", file=sys.stderr)


def _matcher_spec(args: argparse.Namespace) -> Optional[str]:
    """``--matcher`` with ``--workers`` folded in (``process:N``), or
    ``None`` once the refusal is printed: the worker count belongs to the
    process pool, so asking for it on a serial matcher is an error."""
    if args.workers is None:
        return args.matcher
    if args.matcher != "process":
        print("error: --workers requires --matcher process", file=sys.stderr)
        return None
    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return None
    return f"process:{args.workers}"


def _unwritable(path: str) -> Optional[str]:
    """Why an output file could not be created at ``path``, or ``None``.
    Creates nothing."""
    import os

    if os.path.isdir(path):
        return "is a directory"
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        return f"directory {parent} does not exist"
    return None


def _cmd_run(args: argparse.Namespace) -> int:
    source = _read_text(args.program)
    program = parse_program(source)
    analyze_program(program)
    facts = _read_facts(args.facts) if args.facts else []

    matcher = _matcher_spec(args)
    if matcher is None:
        return 2

    if args.checkpoint_every is not None and args.checkpoint_every < 1:
        print("error: --checkpoint-every must be >= 1", file=sys.stderr)
        return 2
    # Without the cadence, a store path would do nothing: refuse it.
    if args.checkpoint is not None and args.checkpoint_every is None:
        print("error: --checkpoint requires --checkpoint-every", file=sys.stderr)
        return 2
    # A flag only one engine reads is refused under the other, not ignored.
    for flag, given, engine in (
        ("--wm-backend", args.wm_backend != "dict", "parulel"),
        ("--checkpoint-every", args.checkpoint_every is not None, "parulel"),
        ("--resume", args.resume is not None, "parulel"),
        ("--interference", args.interference is not None, "parulel"),
        ("--trace", args.trace, "parulel"),
        ("--trace-out", args.trace_out is not None, "parulel"),
        ("--metrics-out", args.metrics_out is not None, "parulel"),
        ("--no-flight-recorder", args.no_flight_recorder, "parulel"),
        ("--blackbox", args.blackbox is not None, "parulel"),
        ("--strategy", args.strategy is not None, "ops5"),
    ):
        if given and args.engine != engine:
            print(f"error: {flag} applies to --engine {engine} only", file=sys.stderr)
            return 2
    # Files written after the run are checked before it: a path that can
    # never be written fails now, not after the last cycle.
    for flag, path in (
        ("--dump-wm", args.dump_wm),
        ("--trace-out", args.trace_out),
        ("--metrics-out", args.metrics_out),
    ):
        problem = _unwritable(path) if path else None
        if problem is not None:
            print(f"error: {flag} {path}: {problem}", file=sys.stderr)
            return 2

    if args.engine == "ops5":
        from repro.baseline import OPS5Engine

        strategy = args.strategy or "lex"
        ops5 = OPS5Engine(program, strategy=strategy, matcher=matcher)
        try:
            _assert_facts(ops5.make, args.facts, facts)
            del facts  # loaded: the run needs no second copy of them
            result = ops5.run(max_cycles=args.max_cycles)
            for line in result.output:
                print(line)
            print(
                f"[ops5/{strategy}] {result.cycles} cycles, "
                f"{result.firings} firings, stopped by {result.reason}",
                file=sys.stderr,
            )
            if args.stats:
                for rule in result.fired_rules:
                    print(f"  fired {rule}", file=sys.stderr)
            if args.dump_wm:
                dump_wm_text(ops5.wm, args.dump_wm)
            return 0
        finally:
            # A process matcher's workers must not outlive the command.
            ops5.matcher.detach()

    user_trace = None
    if args.trace:

        def user_trace(report):  # noqa: ANN001 - CycleReport
            print(
                f"[cycle {report.cycle}] conflict-set={report.conflict_set_size} "
                f"redacted={report.redaction.redacted} fired={report.fired} "
                f"Δ=-{report.delta_removes}/+{report.delta_makes}",
                file=sys.stderr,
            )

    trace = user_trace
    ckpt = None  # the EngineCheckpointer, once the engine exists
    if args.checkpoint_every is not None:
        import os

        ckpt_path = args.checkpoint or (args.program + ".ckpt")
        if os.path.exists(ckpt_path) and not os.path.isdir(ckpt_path):
            print(
                f"error: --checkpoint {ckpt_path} is a file; checkpoints are "
                f"now a store directory (resume it with --resume {ckpt_path}, "
                f"then pass --checkpoint DIR)",
                file=sys.stderr,
            )
            return 2

        def trace(report):  # noqa: ANN001 - CycleReport
            if user_trace is not None:
                user_trace(report)
            if report.cycle % args.checkpoint_every == 0:
                ckpt.save()

    config = EngineConfig(
        matcher=matcher,
        interference=args.interference or "error",
        wm_backend=args.wm_backend,
        flight_recorder=not args.no_flight_recorder,
        blackbox_path=args.blackbox or (args.program + ".blackbox"),
    )
    obs_tracer, obs_metrics = _make_obs(args)
    if args.resume:
        from repro.resilience.checkpoint import load_checkpoint_file

        if args.facts:
            print(
                "warning: --resume restores the checkpointed working memory; "
                "--facts is ignored",
                file=sys.stderr,
            )
        # Loaded here (not inside restore) so a store's last-good fallback
        # can surface which files were skipped.
        load = load_checkpoint_file(args.resume)
        for path, reason in load.skipped:
            print(
                f"warning: skipped corrupt checkpoint {path}: {reason}",
                file=sys.stderr,
            )
        engine = ParulelEngine.restore(
            program, load.state, config, trace=trace,
            tracer=obs_tracer, metrics=obs_metrics,
        )
    else:
        engine = ParulelEngine(
            program, config, trace=trace, tracer=obs_tracer, metrics=obs_metrics
        )
    # From here every exit, an error's too, closes the engine: its
    # workers and shared segments must not outlive the command.
    try:
        if not args.resume:
            _assert_facts(engine.make, args.facts, facts)
        del facts  # loaded: the run needs no second copy of them
        if args.checkpoint_every is not None:
            from repro.resilience.checkpoint import (
                CheckpointStore,
                EngineCheckpointer,
            )

            ckpt = EngineCheckpointer(engine, CheckpointStore(ckpt_path))

        # Loaded and primed: from here on the collector need not look at it.
        args.collector.freeze()
        try:
            result = engine.run(max_cycles=args.max_cycles)
        except CycleLimitExceeded as exc:
            partial = exc.partial
            if partial is not None:
                for line in partial.output:
                    print(line)
            if ckpt is not None and exc.cycles_completed and ckpt.cycle != engine.cycle:
                ckpt.save()  # salvage this run's cycles since the last save
            if args.dump_wm:
                dump_wm_text(engine.wm, args.dump_wm)
            # A truncated run is exactly when you want to see where the time
            # went — the artifacts cover the cycles that did complete.
            _write_obs(args, obs_tracer, obs_metrics)
            if not args.no_flight_recorder:
                import os

                bb_path = args.blackbox or (args.program + ".blackbox")
                if os.path.exists(bb_path):
                    print(
                        f"[obs] black-box dump written to {bb_path} "
                        f"(inspect with: parulel blackbox dump {bb_path})",
                        file=sys.stderr,
                    )
            print(
                f"[parulel] cycle limit hit after {exc.cycles_completed} cycles "
                f"and {exc.firings} firings: {exc}",
                file=sys.stderr,
            )
            return 1
        for line in result.output:
            print(line)
        print(
            f"[parulel] {result.cycles} cycles, {result.firings} firings "
            f"(mean firing set {result.mean_firing_set:.1f}), stopped by "
            f"{result.reason}",
            file=sys.stderr,
        )
        if args.stats:
            stats = engine.matcher.stats
            if stats is None:
                print(
                    f"  match: the {engine.matcher.name} backend keeps no match counters",
                    file=sys.stderr,
                )
            else:
                print(f"  match: {stats}", file=sys.stderr)
            for name, secs in sorted(engine.phase_times.items()):
                print(f"  phase {name}: {secs * 1000:.1f} ms", file=sys.stderr)
        if args.dump_wm:
            dump_wm_text(engine.wm, args.dump_wm)
        _write_obs(args, obs_tracer, obs_metrics)
        return 0
    finally:
        engine.close()


def _cmd_profile(args: argparse.Namespace) -> int:
    import os

    from repro.obs import MetricsRegistry, Tracer, hot_rule_table
    from repro.obs.profile import CollectorLog, site_busy_line

    matcher = _matcher_spec(args)
    if matcher is None:
        return 2

    metrics = MetricsRegistry()
    tracer = Tracer() if args.trace_out else None

    workload = None
    if not os.path.exists(args.target):
        from repro.programs import REGISTRY

        builder = REGISTRY.get(args.target)
        if builder is None:
            print(
                f"error: {args.target!r} is neither a file nor a bundled "
                f"workload ({', '.join(sorted(REGISTRY))})",
                file=sys.stderr,
            )
            return 2
        if args.facts:
            print(
                "error: --facts applies to program files, not bundled workloads",
                file=sys.stderr,
            )
            return 2
        workload = builder()
        program = workload.program
    else:
        program = parse_program(_read_text(args.target))
        analyze_program(program)

    engine = ParulelEngine(
        program,
        EngineConfig(
            matcher=matcher,
            wm_backend=args.wm_backend,
        ),
        tracer=tracer,
        metrics=metrics,
    )
    if workload is not None:
        workload.setup(engine)
    elif args.facts:
        _assert_facts(engine.make, args.facts, _read_facts(args.facts))
    args.collector.freeze()
    collector_log = CollectorLog()
    collector_log.install()
    try:
        result = engine.run(max_cycles=args.max_cycles)
    finally:
        collector_log.remove()
        engine.close()

    print(
        f"[parulel] {result.cycles} cycles, {result.firings} firings "
        f"(mean firing set {result.mean_firing_set:.1f}), stopped by "
        f"{result.reason}"
    )
    total = sum(engine.phase_times.values()) or 1.0
    print("phases:")
    for name, secs in sorted(
        engine.phase_times.items(), key=lambda kv: -kv[1]
    ):
        print(f"  {name:<10} {secs * 1000:8.1f} ms  {secs / total:6.1%}")
    # Inside the phases above, owned by none of them.
    print(collector_log.line())
    sites = site_busy_line(metrics)
    if sites is not None:
        print(sites)
    if program.meta_rules:
        # What the meta level was offered (reified candidates x
        # meta-cycles) against what it fired and removed.
        print(
            "meta level: "
            + ", ".join(
                f"{int(metrics.counter_value(f'parulel_{key}_total'))} {label}"
                for key, label in (
                    ("meta_rule_tries", "rule tries"),
                    ("meta_cycles", "meta-cycles"),
                    ("meta_firings", "meta firings"),
                    ("redacted", "redacted"),
                )
            )
        )
    print()
    print(hot_rule_table(metrics, top=args.top, meta_stats=engine.meta.stats))
    _write_obs(args, tracer, metrics if args.metrics_out else None)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    source = _read_text(args.program)
    program = parse_program(source)
    info = analyze_program(program)
    print(
        f"{len(program.literalizes)} classes, {len(program.rules)} rules, "
        f"{len(program.meta_rules)} meta-rules"
    )
    for ri in info.rule_infos:
        kind = "mp" if ri.is_meta else "p "
        reads = ",".join(sorted(ri.classes_read))
        writes = ",".join(sorted(ri.classes_written)) or "-"
        print(f"  {kind} {ri.name}: reads {reads}; writes {writes}")
    return 0


def _cmd_fmt(args: argparse.Namespace) -> int:
    source = _read_text(args.program)
    print(format_program(parse_program(source)), end="")
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    from repro.tools import plan_to_dot
    from repro.wm.memory import WorkingMemory
    from repro.wm.template import TemplateRegistry

    program = parse_program(_read_text(args.program))
    analyze_program(program)
    wm = None
    if args.facts:
        wm = WorkingMemory(TemplateRegistry.from_program(program))
        _assert_facts(wm.make, args.facts, _read_facts(args.facts))
    print(plan_to_dot(program.rules, wm))
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.core import EngineConfig

    program = parse_program(_read_text(args.program))
    analyze_program(program)
    wanted = parse_facts(args.wme)
    if len(wanted) != 1:
        print("error: --wme needs exactly one (class ^attr value) form", file=sys.stderr)
        return 2
    cls, attrs = wanted[0]

    engine = ParulelEngine(program, EngineConfig(track_provenance=True))
    try:
        if args.facts:
            _assert_facts(engine.make, args.facts, _read_facts(args.facts))
        engine.run(max_cycles=args.max_cycles)

        matches = engine.wm.find(cls, attrs)
        counts = engine.provenance.rule_counts()
        if not matches:
            # A clear diagnostic, not a traceback: name the pattern and
            # show what the final memory does hold for that class.
            live = len(engine.wm.find(cls))
            hint = (
                f"{live} live WME(s) of class {cls!r} have other attributes"
                if live
                else f"no live WMEs of class {cls!r} at all"
            )
            print(
                f"error: no live WME matches {args.wme.strip()} in the "
                f"final working memory ({hint})",
                file=sys.stderr,
            )
            return 1
        if args.json:
            import json

            doc = {
                "pattern": args.wme.strip(),
                "matches": [engine.provenance.tree(w) for w in matches],
                "ruleCounts": counts,
            }
            print(json.dumps(doc, indent=2))
            return 0
        for wme in matches:
            print(engine.explain(wme))
            print()
        if counts:
            print("derivations by rule:")
            for rule, n in counts.items():
                print(f"  {rule}: {n}")
        return 0
    finally:
        engine.close()


def _registry_seed_classes(workload) -> List[str]:
    """The WME classes a workload's initial facts load, found by running
    its setup against a bare working memory."""
    from repro.wm.memory import WorkingMemory
    from repro.wm.template import TemplateRegistry

    class _Collector:
        def __init__(self, program):
            self.wm = WorkingMemory(TemplateRegistry.from_program(program))

        def make(self, cls, attrs=None, **kw):
            self.wm.make(cls, attrs, **kw)

    collector = _Collector(workload.program)
    workload.setup(collector)
    return sorted({wme.class_name for wme in collector.wm})


def _cmd_analyze(args: argparse.Namespace) -> int:
    import json

    from repro.analysis import analyze, render_sarif
    from repro.errors import ReproError

    # Collect (name, program, seed_classes) units to analyze.
    units = []
    if args.facts and len(args.programs) != 1:
        print("error: --facts requires a single PROGRAM argument", file=sys.stderr)
        return 2
    if args.programs:
        for path in args.programs:
            try:
                program = parse_program(_read_text(path))
                analyze_program(program)
            except (OSError, ReproError) as exc:
                print(f"error: {path}: {exc}", file=sys.stderr)
                return 2
            seeds = None
            if args.facts:  # one PROGRAM, so the file is read once
                seeds = sorted({cls for cls, _attrs in _read_facts(args.facts)})
            units.append((path, program, seeds))
    else:
        from repro.programs import REGISTRY

        for name in sorted(REGISTRY):
            workload = REGISTRY[name]()
            units.append(
                (name, workload.program, _registry_seed_classes(workload))
            )

    if args.json and args.sarif:
        print("error: --json and --sarif are mutually exclusive", file=sys.stderr)
        return 2

    reports = [
        analyze(program, seed_classes=seeds, name=name)
        for name, program, seeds in units
    ]
    if args.sarif:
        doc = render_sarif(
            [(r.name, r.diagnostics, r.properties()) for r in reports]
        )
        print(json.dumps(doc, indent=2))
    elif args.json:
        doc = {
            "programs": [
                {
                    "name": r.name,
                    "worst": r.worst.value if r.worst is not None else None,
                    "hasErrors": r.has_errors,
                    "properties": r.properties(),
                    "diagnostics": [
                        {
                            "code": d.code,
                            "severity": d.severity.value,
                            "rule": d.rule,
                            "ce": d.ce,
                            "message": d.message,
                            "hint": d.hint,
                        }
                        for d in r.diagnostics
                    ],
                }
                for r in reports
            ]
        }
        print(json.dumps(doc, indent=2))
    else:
        print("\n\n".join(r.render_text(show_hints=not args.no_hints) for r in reports))
    return 1 if any(r.has_errors for r in reports) else 0


def _cmd_repl(args: argparse.Namespace) -> int:
    from repro.repl import run_repl

    program = parse_program(_read_text(args.program))
    initial = [_read_text(args.facts)] if args.facts else []

    def feed():
        # Facts first, then hand over to the interactive prompt.
        yield from initial
        while True:
            try:
                yield input("parulel> ")
            except EOFError:
                return

    return run_repl(program, input_lines=feed() if initial else None)


def _cmd_janitor(args: argparse.Namespace) -> int:
    from repro.resilience import sweep_orphans

    report = sweep_orphans(shm_dir=args.shm_dir, dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    for name in report.removed:
        print(f"{verb} {name}")
    if args.verbose:
        for name, reason in report.kept:
            print(f"kept {name}: {reason}", file=sys.stderr)
    print(str(report), file=sys.stderr)
    return 0


def _cmd_blackbox(args: argparse.Namespace) -> int:
    from repro.obs.blackbox import diff_blackbox, load_blackbox, skew_report

    if args.bb_command == "diff":
        result = diff_blackbox(
            load_blackbox(args.left), load_blackbox(args.right)
        )
        if result is None:
            print(
                "no divergence: both recordings agree on every "
                "deterministic engine event"
            )
            return 0
        print(f"first divergence at engine-ring event {result.index}:")
        print(f"  left : {result.left_text}")
        print(f"  right: {result.right_text}")
        return 1

    bb = load_blackbox(args.file)
    if args.bb_command == "dump":
        hdr = bb.header
        info = hdr.get("info") or {}
        print(f"# blackbox {args.file}")
        print(
            f"# reason: {bb.reason}   pid: {hdr.get('pid')}   "
            f"dumped at cycle: {info.get('cycle', '?')}"
        )
        git = hdr.get("git") or {}
        if git.get("sha"):
            print(f"# git: {git.get('sha')} ({git.get('head', '?')})")
        timeline = bb.timeline()
        if args.limit is not None and len(timeline) > args.limit:
            print(
                f"# ... {len(timeline) - args.limit} earlier event(s) "
                f"omitted (--limit {args.limit})"
            )
            timeline = timeline[len(timeline) - args.limit:]
        origin = hdr.get("origin_ns", 0)
        for ts, site, rec in timeline:
            who = "engine" if site < 0 else f"site {site}"
            print(
                f"{(ts - origin) / 1e6:12.3f}ms  c{rec['cycle']:<4d} "
                f"{who:<8s} {bb.describe(rec)}"
            )
        return 0

    # report
    registry = None
    if args.metrics_out:
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
    rep = skew_report(bb, registry=registry)
    print(f"blackbox report: {args.file} (reason: {rep['reason']})")
    for ring in rep["rings"]:
        who = "engine" if ring["site"] < 0 else f"site {ring['site']}"
        extras = ""
        if ring["dropped"]:
            extras += f", {ring['dropped']} dropped (ring wrapped)"
        if ring["torn"]:
            extras += f", {ring['torn']} torn"
        print(f"  ring {who}: {ring['records']} record(s){extras}")
    if rep["phases"]:
        print("cycle phases (seconds):")
        print(
            f"  {'phase':<8} {'n':>5} {'p50':>11} {'p95':>11} "
            f"{'mean':>11} {'max':>11}"
        )
        for name, st in rep["phases"].items():
            print(
                f"  {name:<8} {st['n']:>5d} {st['p50']:>11.6f} "
                f"{st['p95']:>11.6f} {st['mean']:>11.6f} {st['max']:>11.6f}"
            )
    if rep["sites"]:
        print("site skew (match-request -> reply busy windows):")
        for site, st in rep["sites"].items():
            print(
                f"  site {site}: cycles={st['cycles']} "
                f"busy={st['busy_s']:.6f}s mean={st['mean_busy_s']:.6f}s "
                f"skew-ratio={st['skew_ratio']:.3f}"
            )
    if rep["rules"]:
        print("rule time share (evaluation + worker match):")
        for name, st in rep["rules"].items():
            print(
                f"  {name}: {st['total_ns'] / 1e6:.3f}ms "
                f"({st['share']:.1%})"
            )
    if registry is not None:
        if args.metrics_out.endswith((".prom", ".txt")):
            registry.write_prometheus(args.metrics_out)
        else:
            registry.write_json(args.metrics_out)
        print(f"[obs] metrics written to {args.metrics_out}", file=sys.stderr)
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.programs import REGISTRY

    builder = REGISTRY.get(args.name)
    if builder is None:
        print(
            f"unknown demo {args.name!r}; available: {', '.join(sorted(REGISTRY))}",
            file=sys.stderr,
        )
        return 2
    from repro.baseline import OPS5Engine

    workload = builder()
    print(f"== {workload.name}: {workload.description}")

    engine = ParulelEngine(workload.program)
    workload.setup(engine)
    res = engine.run()
    print(
        f"parulel: {res.cycles} cycles, {res.firings} firings "
        f"(mean firing set {res.mean_firing_set:.1f}) -> "
        f"{'OK' if workload.verify_ok(engine.wm) else 'WRONG RESULT'}"
    )

    ops5 = OPS5Engine(workload.program)
    workload.setup(ops5)
    ro = ops5.run()
    print(
        f"ops5/lex: {ro.cycles} cycles -> "
        f"{'OK' if workload.verify_ok(ops5.wm) else 'WRONG RESULT'}"
    )
    if res.cycles:
        print(f"cycle reduction: {ro.cycles / res.cycles:.1f}x")
    return 0


def _count(text: str) -> int:
    """argparse ``type`` of a count flag (``--max-cycles``, ``--top``,
    ``--limit``): an int >= 0, so a negative one exits 2 naming the flag."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


# One function per subcommand adds its arguments to the parser
# ``_SUBCOMMANDS`` creates for it.


def _run_arguments(p_run: argparse.ArgumentParser) -> None:
    p_run.add_argument("program", help="path to a .pl rule program")
    p_run.add_argument("--facts", help="path to an initial-WME facts file")
    p_run.add_argument(
        "--engine", choices=("parulel", "ops5"), default="parulel"
    )
    p_run.add_argument(
        "--matcher",
        choices=("treat", "naive", "process"),
        default="treat",
        help="match backend: set-oriented TREAT (default), the naive "
        "re-enumerating oracle, or 'process', which fans TREAT matching "
        "out to worker processes",
    )
    p_run.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for --matcher process (default: usable "
        "cores, max 4); each matches its share of every rule, so more "
        "workers than rules is still more parallelism",
    )
    p_run.add_argument(
        "--wm-backend",
        choices=("dict", "columnar"),
        default="dict",
        help="working-memory store; 'columnar' keeps WMEs in shared-memory "
        "columns that --matcher process workers attach instead of "
        "receiving pickled deltas",
    )
    p_run.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="write a resumable checkpoint every N cycles",
    )
    p_run.add_argument(
        "--checkpoint",
        metavar="DIR",
        help="checkpoint store directory (default: PROGRAM.ckpt/): a full "
        "snapshot every 5th checkpoint, deltas in between, the last 3 "
        "fulls kept",
    )
    p_run.add_argument(
        "--resume",
        metavar="PATH",
        help="resume from a store directory written by --checkpoint-every, "
        "or a bare checkpoint file (--facts is ignored); a store falls "
        "back to the newest checkpoint that verifies",
    )
    p_run.add_argument(
        "--strategy",
        choices=("lex", "mea"),
        default=None,
        help="--engine ops5's conflict resolution (default: lex)",
    )
    p_run.add_argument(
        "--interference",
        choices=("error", "first", "merge"),
        default=None,
        help="--engine parulel's policy for two firings that write one WME "
        "(default: error)",
    )
    p_run.add_argument("--max-cycles", type=_count, default=100_000)
    p_run.add_argument("--trace", action="store_true", help="per-cycle trace to stderr")
    p_run.add_argument("--stats", action="store_true", help="match/phase statistics")
    p_run.add_argument(
        "--dump-wm", metavar="PATH", help="write the final working memory as facts"
    )
    p_run.add_argument(
        "--trace-out",
        metavar="PATH",
        help="write a span trace: Chrome trace-event JSON (Perfetto / "
        "chrome://tracing), or JSONL when PATH ends in .jsonl",
    )
    p_run.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write the metrics registry: JSON snapshot, or Prometheus "
        "text when PATH ends in .prom/.txt",
    )
    p_run.add_argument(
        "--no-flight-recorder",
        action="store_true",
        help="disable the always-on flight recorder (fixed-cost binary "
        "ring journal + crash dumps)",
    )
    p_run.add_argument(
        "--blackbox",
        metavar="PATH",
        help="where the flight recorder writes its crash dump on abnormal "
        "exit (default: PROGRAM.blackbox)",
    )
    p_run.set_defaults(fn=_cmd_run)


def _check_arguments(p_check: argparse.ArgumentParser) -> None:
    p_check.add_argument("program")
    p_check.set_defaults(fn=_cmd_check)


def _fmt_arguments(p_fmt: argparse.ArgumentParser) -> None:
    p_fmt.add_argument("program")
    p_fmt.set_defaults(fn=_cmd_fmt)


def _demo_arguments(p_demo: argparse.ArgumentParser) -> None:
    p_demo.add_argument("name")
    p_demo.set_defaults(fn=_cmd_demo)


def _dot_arguments(p_dot: argparse.ArgumentParser) -> None:
    p_dot.add_argument("program")
    p_dot.add_argument("--facts", help="facts to load before rendering sizes")
    p_dot.set_defaults(fn=_cmd_dot)


def _explain_arguments(p_explain: argparse.ArgumentParser) -> None:
    p_explain.add_argument("program")
    p_explain.add_argument("--facts", help="initial-WME facts file")
    p_explain.add_argument(
        "--wme", required=True, help='pattern like "(path ^src a ^dst d)"'
    )
    p_explain.add_argument("--max-cycles", type=_count, default=100_000)
    p_explain.add_argument(
        "--json",
        action="store_true",
        help="emit the derivation tree(s) and per-rule derivation counts "
        "as a JSON document instead of indented text",
    )
    p_explain.set_defaults(fn=_cmd_explain)


def _analyze_arguments(p_analyze: argparse.ArgumentParser) -> None:
    p_analyze.add_argument(
        "programs",
        nargs="*",
        help=".pl files (default: every bundled workload, with seed "
        "classes derived from its initial facts)",
    )
    p_analyze.add_argument(
        "--facts",
        help="initial-WME facts file; enables the dead-rule check "
        "(single PROGRAM only)",
    )
    p_analyze.add_argument(
        "--json",
        action="store_true",
        help="emit a flat machine-readable JSON document (one entry per "
        "program: worst severity, properties, diagnostics) instead of text",
    )
    p_analyze.add_argument(
        "--sarif",
        action="store_true",
        help="emit a SARIF-shaped JSON document instead of text",
    )
    p_analyze.add_argument(
        "--no-hints",
        action="store_true",
        help="omit fix hints (meta-rule skeletons) from the text report",
    )
    p_analyze.set_defaults(fn=_cmd_analyze)


def _repl_arguments(p_repl: argparse.ArgumentParser) -> None:
    p_repl.add_argument("program")
    p_repl.add_argument("--facts", help="facts file asserted before the prompt")
    p_repl.set_defaults(fn=_cmd_repl)


def _profile_arguments(p_prof: argparse.ArgumentParser) -> None:
    p_prof.add_argument(
        "target", help=".pl program path, or a bundled workload name (e.g. tc)"
    )
    p_prof.add_argument("--facts", help="initial-WME facts file (program files only)")
    p_prof.add_argument(
        "--matcher",
        choices=("treat", "naive", "process"),
        default="treat",
    )
    p_prof.add_argument("--workers", type=int, default=None, metavar="N")
    p_prof.add_argument(
        "--wm-backend",
        choices=("dict", "columnar"),
        default="dict",
        help="working-memory store (see `run --wm-backend`)",
    )
    p_prof.add_argument("--max-cycles", type=_count, default=100_000)
    p_prof.add_argument(
        "--top", type=_count, default=10, help="rows in the hot-rule table"
    )
    p_prof.add_argument("--trace-out", metavar="PATH")
    p_prof.add_argument("--metrics-out", metavar="PATH")
    p_prof.set_defaults(fn=_cmd_profile)


def _blackbox_arguments(p_bb: argparse.ArgumentParser) -> None:
    bb_sub = p_bb.add_subparsers(dest="bb_command", required=True)
    p_bb_dump = bb_sub.add_parser(
        "dump", help="merged causal timeline across engine and worker rings"
    )
    p_bb_dump.add_argument("file", help="a *.blackbox dump")
    p_bb_dump.add_argument(
        "--limit",
        type=_count,
        default=None,
        metavar="N",
        help="print only the newest N events",
    )
    p_bb_dump.set_defaults(fn=_cmd_blackbox)
    p_bb_report = bb_sub.add_parser(
        "report",
        help="per-site busy/skew and per-rule time-share analytics with "
        "cycle-phase percentiles",
    )
    p_bb_report.add_argument("file", help="a *.blackbox dump")
    p_bb_report.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="also export parulel_site_skew_ratio / parulel_rule_time_share "
        "gauges: JSON snapshot, or Prometheus text for .prom/.txt",
    )
    p_bb_report.set_defaults(fn=_cmd_blackbox)
    p_bb_diff = bb_sub.add_parser(
        "diff",
        help="first diverging deterministic event between two recordings "
        "(exit 1 on divergence)",
    )
    p_bb_diff.add_argument("left", help="baseline *.blackbox dump")
    p_bb_diff.add_argument("right", help="comparison *.blackbox dump")
    p_bb_diff.set_defaults(fn=_cmd_blackbox)


def _janitor_arguments(p_jan: argparse.ArgumentParser) -> None:
    p_jan.add_argument(
        "--shm-dir",
        default="/dev/shm",
        metavar="DIR",
        help="shared-memory mount to sweep (default: /dev/shm)",
    )
    p_jan.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be removed without unlinking anything",
    )
    p_jan.add_argument(
        "--verbose",
        action="store_true",
        help="also report kept segments and why, to stderr",
    )
    p_jan.set_defaults(fn=_cmd_janitor)


#: Every subcommand, in ``--help`` order: its one-line help and the
#: function that adds its arguments.
_SUBCOMMANDS = {
    "run": ("execute a program", _run_arguments),
    "check": ("parse and analyze a program", _check_arguments),
    "fmt": ("canonical pretty-print", _fmt_arguments),
    "demo": ("run a bundled benchmark workload", _demo_arguments),
    "dot": ("Graphviz DOT of the TREAT join plan", _dot_arguments),
    "explain": (
        "derivation tree of a final working-memory element",
        _explain_arguments,
    ),
    "analyze": (
        "whole-program static analysis: dependency graph, "
        "stratification, redaction coverage, dead rules",
        _analyze_arguments,
    ),
    "repl": ("interactive session", _repl_arguments),
    "profile": (
        "run with the observability layer on and print the phase "
        "breakdown and hot-rule table",
        _profile_arguments,
    ),
    "blackbox": (
        "inspect *.blackbox crash dumps: merged timeline, skew "
        "analytics, first-divergence diff",
        _blackbox_arguments,
    ),
    "janitor": (
        "reclaim orphaned /dev/shm segments left by killed "
        "--wm-backend columnar runs and flight-recorder rings",
        _janitor_arguments,
    ),
}


class _ParseFailed(Exception):
    """A one-subcommand parser met an error; the full parser reports it."""


class _OneCommandParser(argparse.ArgumentParser):
    """Raises :class:`_ParseFailed` where a parser would print an error
    (its usage line would name one subcommand, not all of them)."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _ParseFailed(message)


def _parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The ``parulel`` parser: every subcommand, or only ``command``."""
    cls = argparse.ArgumentParser if command is None else _OneCommandParser
    parser = cls(
        prog="parulel",
        description="PARULEL parallel rule language (ICPP 1991) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in _SUBCOMMANDS.items():
        if command is None or name == command:
            add_arguments(sub.add_parser(name, help=help_text))
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The whole command line: all 11 subcommands with their arguments."""
    return _parser()


def _parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, building only the parser of the
    subcommand ``argv`` names: a run pays for its own arguments. ``--help``,
    an unknown name and any parse error go to the full parser, so what
    they print is unchanged."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _SUBCOMMANDS:
        try:
            return _parser(argv[0]).parse_args(argv)
        except _ParseFailed:
            pass
    return build_parser().parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse_args(argv)
    try:
        if args.command in ("run", "profile"):
            # This process is ours for the length of the command: give the
            # cyclic collector a schedule sized to a run's heap (and put
            # the interpreter's back afterwards — callers run us in-process).
            with CollectorSchedule() as args.collector:
                return args.fn(args)
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
