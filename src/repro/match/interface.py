"""The common matcher interface.

A matcher attaches to a :class:`~repro.wm.memory.WorkingMemory`, observes
every assert/retract, and keeps a :class:`~repro.match.instantiation.ConflictSet`
current. Engines (:mod:`repro.core`, :mod:`repro.baseline`) and the parallel
substrate only ever talk to this interface, so the match algorithm is a
plug-in choice. The protocol is three calls: the WM listener,
:meth:`Matcher.instantiations` at collect, and :meth:`Matcher.consume` with
what fired.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.lang.ast import Rule
from repro.match.compile import CompiledRule, compile_rules
from repro.match.instantiation import ConflictSet, InstKey, Instantiation
from repro.match.stats import MatchStats
from repro.wm.memory import WorkingMemory
from repro.wm.wme import WME

__all__ = ["Matcher", "create_matcher", "MATCHER_NAMES"]


class Matcher:
    """Base class for match engines.

    Subclasses take the working memory's batches whole by overriding
    :meth:`_listener`, or one WME at a time by implementing :meth:`_on_add`
    / :meth:`_on_remove`, which the default listener feeds. The base class
    wires WM listening, compiled-rule storage, statistics, and
    conflict-set access.
    """

    #: Human-readable engine name (used in reports and ``create_matcher``).
    name: str = "abstract"

    def __init__(
        self,
        rules: Sequence[Rule],
        wm: WorkingMemory,
        indexed: bool = True,
        site: Optional[Tuple[int, int]] = None,
    ) -> None:
        #: Hash-bucket probes + join planning (default) or the nested-loop
        #: reference kernel the differential tests and the Figure 3 /
        #: Ablation A7 tables compare against. Same conflict sets either
        #: way; RETE — always hash-joined — ignores it.
        self.indexed = indexed
        #: ``site=(k, s)``: this matcher retains site ``s``'s share of
        #: every rule (:func:`~repro.match.compile.compile_rule`) — what a
        #: process worker asks of its TREAT matcher. ``None``: all of it.
        self.compiled: tuple[CompiledRule, ...] = compile_rules(rules, site=site)
        self.wm = wm
        self.stats = MatchStats()
        self.conflict_set = ConflictSet()
        self._attached = False
        self._build()
        self._replay()
        wm.add_listener(self._listener)
        self._attached = True

    # -- wiring -----------------------------------------------------------

    def _listener(self, wmes: Sequence[WME], added: bool) -> None:
        """Incorporate one batch of asserts (``added``) or retracts."""
        hook = self._on_add if added else self._on_remove
        for wme in wmes:
            hook(wme)

    def detach(self) -> None:
        """Stop observing the working memory (matcher becomes stale)."""
        if self._attached:
            self.wm.remove_listener(self._listener)
            self._attached = False

    # -- to implement -------------------------------------------------------

    def _build(self) -> None:
        """Hook: construct engine-internal structures before replay."""

    def _replay(self) -> None:
        """Feed pre-existing WMEs through the incremental path so attaching
        to a populated memory behaves like replaying its history."""
        self._listener(sorted(self.wm, key=lambda w: w.timestamp), True)

    def _on_add(self, wme: WME) -> None:
        """Incorporate one asserted WME (per-WME matchers)."""
        raise NotImplementedError

    def _on_remove(self, wme: WME) -> None:
        """Incorporate one retracted WME (per-WME matchers)."""
        raise NotImplementedError

    # -- queries -----------------------------------------------------------

    def instantiations(self) -> List[Instantiation]:
        """Current conflict set, insertion-ordered, as a stable snapshot."""
        return self.conflict_set.instantiations()

    def consume(self, keys: Sequence[InstKey]) -> None:
        """The engine fired the instantiations ``keys`` (distinct, all from
        the last collect): drop them from the conflict set, before the
        firings' WM changes arrive. Refraction bars them for good, so no
        match is lost. A matcher may report one again if it re-discovers
        it (an unblock re-enumeration, a recompute, a worker's reset); the
        engine, which alone keeps the refraction set, filters it out and
        consumes it anew."""
        self.conflict_set.consume(keys)

    def rule_names(self) -> List[str]:
        return [cr.name for cr in self.compiled]


#: Registry of engine names accepted by :func:`create_matcher`. ``process``
#: also accepts an explicit worker count as ``process:N``.
MATCHER_NAMES = ("treat", "naive", "process")


def create_matcher(
    engine: str,
    rules: Sequence[Rule],
    wm: WorkingMemory,
    *,
    tracer=None,
    metrics=None,
    flightrec=None,
) -> Matcher:
    """Instantiate a match engine by name (``treat``, ``naive`` or
    ``process``/``process:N`` for the multiprocessing fan-out).

    Nothing places rules on workers: every worker matches its share of
    every rule.

    Every engine built here uses the hash-indexed join kernel; the
    nested-loop reference is built directly, as ``TreatMatcher(rules, wm,
    indexed=False)`` (or ``NaiveMatcher``), by the tests and figures that
    compare against it.

    ``tracer`` / ``metrics`` / ``flightrec`` (:mod:`repro.obs`) are
    cross-cutting and accepted for every backend: the process pool uses
    them to record worker lanes, IPC counts and per-worker flight rings,
    while serial engines — whose work the engine's own phase spans and
    ring records already cover — have nothing extra to record and ignore
    them. They never change match behaviour, so they are not an error
    elsewhere.
    """
    if engine == "process" or engine.startswith("process:"):
        from repro.parallel.process import ProcessMatcher

        n_workers = None
        if ":" in engine:
            try:
                n_workers = int(engine.split(":", 1)[1])
            except ValueError:
                raise ValueError(
                    f"bad worker count in match engine spec {engine!r} "
                    f"(expected process:<int>)"
                ) from None
        return ProcessMatcher(
            rules,
            wm,
            n_workers=n_workers,
            tracer=tracer,
            metrics=metrics,
            flightrec=flightrec,
        )

    # Imported here to avoid a cycle (engines import this interface), and
    # one engine at a time: a run loads the matcher it runs.
    if engine == "treat":
        from repro.match.treat import TreatMatcher as cls
    elif engine == "naive":
        from repro.match.naive import NaiveMatcher as cls
    else:
        raise ValueError(
            f"unknown match engine {engine!r} (choose from {MATCHER_NAMES})"
        )
    return cls(rules, wm)
