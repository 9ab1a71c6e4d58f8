"""The naive (reference) matcher.

Recomputes every rule's join from scratch whenever the conflict set is
requested after a working-memory change — fired instantiations included,
which the engine filters out and consumes again. O(product of
class-bucket sizes) per rule — unusable for big programs, invaluable as
the semantic oracle: property-based tests assert RETE and TREAT always
agree with it.

Recomputation runs over a persistent
:class:`~repro.match.alphaindex.AlphaCache` — alpha memories are filtered
once and maintained incrementally — and joins probe hash buckets following
each rule's join plan; ``indexed=False`` scans the same memories with the
nested-loop reference kernel.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.match.alphaindex import AlphaCache
from repro.match.instantiation import Instantiation
from repro.match.interface import Matcher
from repro.match.join import enumerate_matches
from repro.wm.wme import WME

__all__ = ["NaiveMatcher"]


class NaiveMatcher(Matcher):
    """Full recomputation matcher; the semantics oracle."""

    name = "naive"

    def _build(self) -> None:
        self._dirty = True
        # Maintained from our own listener (the base class replays
        # pre-existing WMEs through the same path), not a second one.
        self._alpha = AlphaCache(self.wm, self.stats)

    def _listener(self, wmes: Sequence[WME], added: bool) -> None:
        self._dirty = True
        self._alpha.apply(wmes, added)

    def _recompute(self) -> None:
        self.conflict_set.clear()
        for compiled in self.compiled:
            for inst in enumerate_matches(
                compiled,
                self.wm,
                self.stats,
                alpha_source=self._alpha,
                indexed=self.indexed,
            ):
                self.conflict_set.add(inst)
        self._dirty = False

    def instantiations(self) -> List[Instantiation]:
        if self._dirty:
            self._recompute()
        return self.conflict_set.instantiations()
