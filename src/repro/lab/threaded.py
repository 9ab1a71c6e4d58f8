"""Real-thread match fan-out (Table 4: the GIL ceiling, measured).

The reproduction bands for this paper note that CPython's GIL hides the
data-parallel firing benefits a real multiprocessor shows. Rather than skip
the experiment, this module *measures* that: :class:`ThreadedMatchPool`
computes the conflict set by fanning per-site naive re-matching out to a
``ThreadPoolExecutor`` — an embarrassingly parallel, read-only workload that
WOULD scale on the paper's hardware — and Table 4 reports the (lack of)
wall-clock speedup with 1..N threads.

The pool is semantically interchangeable with the incremental matchers (it
returns the same conflict sets; differential tests assert this), just slow —
it exists to exercise a genuine concurrent code path, not to win.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence

from repro.lab.partition import Assignment, round_robin_assignment
from repro.lang.ast import Program, Rule
from repro.match.alphaindex import AlphaCache
from repro.match.compile import CompiledRule, compile_rules
from repro.match.instantiation import Instantiation
from repro.match.join import enumerate_matches
from repro.obs.metrics import NULL_METRICS
from repro.obs.profile import RULE_MATCH_SECONDS
from repro.obs.trace import NULL_TRACER
from repro.wm.memory import WorkingMemory

__all__ = ["ThreadedMatchPool"]


class ThreadedMatchPool:
    """Computes conflict sets with one worker thread per site.

    Working memory is read-only during :meth:`conflict_set` — the caller
    must not mutate it concurrently (the engines never do: match and apply
    are separate phases of the cycle).

    With a ``tracer``/``metrics`` attached, each site's match runs under a
    span on its own ``thread-<site>`` lane (the tracer is thread-safe, and
    the lanes make the GIL serialization this module measures *visible*:
    the spans overlap in wall-clock but their work interleaves).

    With a ``flightrec`` attached, each site journals site-tagged
    request/reply records straight into the *parent* ring (same process,
    no shared-memory ring needed; the ring's append lock makes this
    thread-safe). The skew report folds site-tagged parent-ring records
    exactly like per-worker rings, so thread pools get busy-window
    analytics for free.
    """

    def __init__(
        self,
        rules: Sequence[Rule],
        wm: WorkingMemory,
        n_threads: int,
        assignment: Optional[Assignment] = None,
        tracer=None,
        metrics=None,
        flightrec=None,
    ) -> None:
        if n_threads < 1:
            raise ValueError("need at least one thread")
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self._flightrec = flightrec
        self._cycle = 0
        self.wm = wm
        # One shared alpha cache across all sites, kept current via WM
        # listener. Read-mostly: concurrent lazy priming from worker
        # threads is benign (identical contents, GIL-atomic installs).
        self._alpha = AlphaCache(wm)
        self._alpha.attach()
        self.n_threads = n_threads
        self.assignment = assignment or round_robin_assignment(rules, n_threads)
        compiled = compile_rules(rules)
        self._site_rules: List[List[CompiledRule]] = [[] for _ in range(n_threads)]
        for cr in compiled:
            self._site_rules[self.assignment.site_of[cr.name]].append(cr)
        #: Sites that carry at least one rule — the only ones worth a
        #: future (with ``n_threads > len(rules)`` the rest are no-ops).
        self.active_sites = tuple(
            s for s in range(n_threads) if self._site_rules[s]
        )
        self._pool = ThreadPoolExecutor(max_workers=max(1, len(self.active_sites)))

    def _match_site(self, site: int) -> List[Instantiation]:
        out: List[Instantiation] = []
        obs = self.metrics.enabled
        fr = self._flightrec
        if fr is not None:
            # Literal kind codes: EV_MATCH_REQ/EV_MATCH_REPLY (22/25) —
            # this module stays importable without repro.obs.flightrec.
            fr.record(22, self._cycle, site=site)
        with self.tracer.span(
            "match", lane=f"thread-{site}", cycle=self._cycle
        ):
            for compiled in self._site_rules[site]:
                t0 = time.perf_counter() if obs else 0.0
                out.extend(
                    enumerate_matches(
                        compiled, self.wm, alpha_source=self._alpha
                    )
                )
                if obs:
                    self.metrics.observe(
                        RULE_MATCH_SECONDS,
                        time.perf_counter() - t0,
                        rule=compiled.name,
                        site=site,
                    )
        if fr is not None:
            fr.record(25, self._cycle, a=len(out), site=site)
        return out

    def conflict_set(self) -> List[Instantiation]:
        """Full conflict set, deterministic order (site 0's rules first)."""
        self._cycle += 1
        futures = [
            self._pool.submit(self._match_site, site)
            for site in self.active_sites
        ]
        merged: List[Instantiation] = []
        for fut in futures:
            merged.extend(fut.result())
        return merged

    def close(self) -> None:
        self._alpha.detach()
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "ThreadedMatchPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
