"""RETE match engine (Forgy 1982, hash-indexed variant).

The network is compiled once per matcher from the shared
:mod:`repro.match.compile` form:

- **alpha memories** — one per distinct ``(class, WME-local tests)`` pattern,
  shared across condition elements and rules;
- **join/beta nodes** — one linear chain per rule, each node storing its
  result tokens and probing hash indexes built over the equality join tests
  (so equijoins cost O(matches), not O(|left|·|right|));
- **negative nodes** — maintain per-token join-result counts for negated
  condition elements, activating a token exactly while its count is zero;
- **production nodes** — convert complete tokens into
  :class:`~repro.match.instantiation.Instantiation` objects in the shared
  conflict set.

Both WME addition and removal are fully incremental; removal uses per-node
``by-parent`` and ``by-WME`` indexes rather than parent/child object graphs,
which keeps deletion O(tokens removed).
"""

from __future__ import annotations

from typing import Sequence

from repro.lab.rete.network import ReteMatcher, SharedReteMatcher
from repro.lang.ast import Rule
from repro.match.interface import Matcher, create_matcher
from repro.wm.memory import WorkingMemory

__all__ = ["ReteMatcher", "SharedReteMatcher", "create_lab_matcher"]


def create_lab_matcher(spec: str, rules: Sequence[Rule], wm: WorkingMemory) -> Matcher:
    """:func:`~repro.match.interface.create_matcher` plus the RETE
    comparands: ``rete`` and ``rete-shared`` are built here, every other
    spec is handed on. The simulators and the figures resolve matcher
    names through this; a run never does."""
    if spec == "rete":
        return ReteMatcher(rules, wm)
    if spec == "rete-shared":
        return SharedReteMatcher(rules, wm)
    return create_matcher(spec, rules, wm)
