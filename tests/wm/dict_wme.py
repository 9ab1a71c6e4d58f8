"""Reference oracle: the dict-backed WME the slot layout replaced.

Each element keeps its attributes twice, as a sorted pair tuple (for hash,
equality and dump order) and as a dict (for ``get``). It is slow and large,
but obviously right, so the differential tests in ``test_wme_layout`` hold
:class:`repro.wm.wme.WME` to it.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Tuple

from repro.lang.ast import Value, _format_value
from repro.wm.wme import NIL

__all__ = ["DictWME"]


class DictWME:
    """One immutable working-memory element, attributes held twice."""

    __slots__ = ("class_name", "_attrs", "_map", "timestamp", "_hash")

    def __init__(
        self,
        class_name: str,
        attrs: Mapping[str, Value],
        timestamp: int,
    ) -> None:
        self.class_name = class_name
        self._attrs: Tuple[Tuple[str, Value], ...] = tuple(sorted(attrs.items()))
        self._map: Dict[str, Value] = dict(self._attrs)
        self.timestamp = timestamp
        self._hash = hash((class_name, self._attrs, timestamp))

    def get(self, attr: str) -> Value:
        return self._map.get(attr, NIL)

    def __getitem__(self, attr: str) -> Value:
        return self.get(attr)

    @property
    def attributes(self) -> Dict[str, Value]:
        return dict(self._attrs)

    def items(self) -> Iterator[Tuple[str, Value]]:
        return iter(self._attrs)

    def with_updates(self, updates: Mapping[str, Value], timestamp: int) -> "DictWME":
        merged = dict(self._attrs)
        merged.update(updates)
        return DictWME(self.class_name, merged, timestamp)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DictWME):
            return NotImplemented
        return (
            self.timestamp == other.timestamp
            and self.class_name == other.class_name
            and self._attrs == other._attrs
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = " ".join(f"^{k} {_format_value(val)}" for k, val in self._attrs)
        sep = " " if inner else ""
        return f"({self.class_name}{sep}{inner})@{self.timestamp}"

    def content_key(self) -> Tuple[str, Tuple[Tuple[str, Value], ...]]:
        return (self.class_name, self._attrs)
