"""Span recording for the traced launcher, from outside the program.

:func:`install` wraps public callables of ``repro`` — nothing under
``src/`` changes — so every call into a layer leaves one span
``(name, start, end, parent)`` in memory; :meth:`SpanLog.write` dumps
them after ``main`` returns and :func:`read` loads them in the harness.
Stamps are ``time.monotonic()``, the clock the harness stamps ``Popen``
and reap with. Only the CLI process records: forked match workers keep
the wrappers but their working memories are never wrapped, and worker
busy time comes from the flight-recorder rings instead (the launcher
dumps them to a ``.blackbox`` just before the engine closes).
"""

from __future__ import annotations

import json
import os
import time
from array import array
from typing import Callable, Dict, List, NamedTuple

__all__ = ["Span", "SpanLog", "install", "read"]


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a top-level span


class SpanLog:
    """Append-only span store: four parallel arrays plus an open-span
    stack, so a wrapper costs two clock reads and a few appends."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._ids = array("i")
        self._parents = array("i")
        self._starts = array("d")
        self._ends = array("d")
        self._stack = [-1]
        #: What :func:`install` is labelling new WM listeners with.
        self.owner = "match"
        #: Probe results that are not spans (written to the side file).
        self.extra: Dict[str, float] = {}

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recorded as one span named ``name`` per call."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        ids, parents, starts, ends = (
            self._ids, self._parents, self._starts, self._ends
        )
        stack, now = self._stack, time.monotonic

        def wrapper(*args, **kwargs):
            index = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(-1.0)
            stack.append(index)
            starts.append(now())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = now()
                stack.pop()

        return wrapper

    def write(self, path: str) -> None:
        header = {"pid": self.pid, "names": self.names, "n": len(self._ids)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self._ids, self._parents, self._starts, self._ends):
                column.tofile(fh)


def read(path: str) -> List[Span]:
    """The spans :meth:`SpanLog.write` stored, in start order."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["n"]
        columns = []
        for code in "iidd":
            column = array(code)
            column.fromfile(fh, n)
            columns.append(column)
    names = header["names"]
    return [
        Span(names[i], s, e, p) for i, p, s, e in zip(*columns)
    ]


def install(log: SpanLog, blackbox_path: str) -> None:
    """Wrap the layer boundaries of ``repro`` with ``log.wrap``."""
    import repro.cli as cli
    import repro.core.engine as engine_mod
    import repro.core.redaction as redaction_mod
    from repro.core.actions import ActionEvaluator
    from repro.core.engine import ParulelEngine
    from repro.core.redaction import MetaLevel
    from repro.lang.ast import MetaRule
    from repro.obs.flightrec import FlightRecorder
    from repro.wm.memory import WorkingMemory

    def wrap_attr(owner, attr: str, name: str) -> None:
        setattr(owner, attr, log.wrap(name, getattr(owner, attr)))

    for attr in ("parse_program", "analyze_program", "parse_facts",
                 "dump_wm_text"):
        wrap_attr(cli, attr, "cli." + attr)
    for attr in ("__init__", "make", "run", "step", "close"):
        wrap_attr(ParulelEngine, attr, "engine." + attr)
    wrap_attr(MetaLevel, "redact", "redaction.redact")
    wrap_attr(ActionEvaluator, "evaluate", "actions.evaluate")
    wrap_attr(FlightRecorder, "record", "flightrec.record")
    wrap_attr(engine_mod, "merge_deltas", "delta.merge")

    # The store is wrapped per instance (the columnar subclass overrides
    # some of these and calls up, which would nest a span in itself).
    engine_init = ParulelEngine.__init__

    def init(self, *args, **kwargs):
        engine_init(self, *args, **kwargs)
        wrap_attr(self.wm, "make", "wm.make")
        wrap_attr(self.wm, "remove", "wm.remove")
        wrap_attr(self.wm, "discard", "wm.remove")

    ParulelEngine.__init__ = init

    # Listeners are labelled by owner: the object matcher ("match"), the
    # meta matcher ("meta") or the process pool's delta recorder ("pool").
    add_listener = WorkingMemory.add_listener
    remove_listener = WorkingMemory.remove_listener
    wrapped: Dict[Callable, Callable] = {}

    def traced_add(self, listener):
        if os.getpid() != log.pid:  # a forked worker's replica
            return add_listener(self, listener)
        holder = type(getattr(listener, "__self__", None)).__name__
        label = (
            "pool" if holder in ("DeltaRecorder", "ProcessMatchPool")
            else log.owner
        )
        wrapped[listener] = log.wrap(label + ".listener", listener)
        add_listener(self, wrapped[listener])

    def traced_remove(self, listener):
        remove_listener(self, wrapped.pop(listener, listener))

    WorkingMemory.add_listener = traced_add
    WorkingMemory.remove_listener = traced_remove

    create_matcher = engine_mod.create_matcher
    pool_wrapped = []

    def labelled_create_matcher(spec, rules, wm, **kwargs):
        if spec.startswith("process") and not pool_wrapped:
            # Imported only when used, and inside this span: serial runs
            # never load the pool, process runs pay the import here too.
            from repro.parallel.process import ProcessMatchPool

            for attr in ("__init__", "conflict_set", "close"):
                wrap_attr(ProcessMatchPool, attr, "pool." + attr)
            pool_wrapped.append(True)
        owner = "meta" if rules and isinstance(rules[0], MetaRule) else "match"
        previous, log.owner = log.owner, owner
        try:
            matcher = create_matcher(spec, rules, wm, **kwargs)
        finally:
            log.owner = previous
        wrap_attr(matcher, "instantiations", owner + ".instantiations")
        return matcher

    traced_create_matcher = log.wrap("create_matcher", labelled_create_matcher)
    engine_mod.create_matcher = traced_create_matcher
    redaction_mod.create_matcher = traced_create_matcher

    # Just before the engine closes: snapshot what only the live engine
    # knows (worker flight rings, shared-memory footprint).
    def probe(engine) -> None:
        log.extra["shm_bytes"] = getattr(engine.wm, "shared_bytes", 0)
        if hasattr(engine.matcher, "pool"):
            engine.dump_blackbox(blackbox_path, reason="e2e-trace")

    probe = log.wrap("trace.probe", probe)
    engine_close = ParulelEngine.close

    def close(self):
        probe(self)
        engine_close(self)

    ParulelEngine.close = close
