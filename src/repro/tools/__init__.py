"""Developer tooling on top of the core library.

- :mod:`repro.tools.dot` — Graphviz DOT export of TREAT join plans and
  provenance (derivation) graphs; pure text, no graphviz dependency;
- :mod:`repro.tools.diff` — content-level diffs between working memories
  (what a cycle/run added and removed, ignoring timestamps).
"""

from repro.tools.diff import WMDiff, diff_wm
from repro.tools.dot import plan_to_dot, provenance_to_dot

__all__ = [
    "WMDiff",
    "diff_wm",
    "plan_to_dot",
    "provenance_to_dot",
]
