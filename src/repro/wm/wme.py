"""Working-memory elements.

A WME is an immutable record ``(class, {attr: value}, timestamp)``. The
timestamp is assigned by the :class:`~repro.wm.memory.WorkingMemory` when the
element is asserted and orders elements by recency — OPS5's LEX/MEA conflict
resolution and PARULEL's reified ``recency`` attribute both read it.

Attribute values are restricted to symbols (``str``), ``int`` and ``float``.
Missing attributes read as the symbol ``nil``, matching OPS5.

Layout: each WME stores every attribute value once, in a values tuple
ordered by sorted attribute name and closed by one trailing ``nil``. The
names live in a *slot map* ``{name: index}`` that is shared: the process
holds one slot map per distinct sorted attribute-name set, so every WME of
one shape (every ``path``, every ``item``, every reification of one rule)
points at the same dict. An absent name looks up as index ``-1``, the
trailing ``nil``, so a read is one dict lookup plus one tuple index. Slot
maps are interned, which makes "same attribute names" an identity test.
Nothing outside this module reads the slot map or the values tuple.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Mapping, Tuple

from repro.lang.ast import Value, _format_value

__all__ = ["WME", "NIL"]

#: The distinguished "absent" value. Attributes never explicitly assigned
#: compare equal to ``nil``, as in OPS5.
NIL: str = "nil"

#: Sorted attribute-name set → its shared slot map. Entries are only ever
#: added, through ``dict.setdefault``, which is atomic, so two threads
#: interning the same names always end up holding one map.
_LAYOUTS: Dict[Tuple[str, ...], Dict[str, int]] = {}

_NIL_TAIL: Tuple[str] = (NIL,)


class WME:
    """One immutable working-memory element.

    WMEs hash and compare by identity-relevant content *plus* timestamp: two
    asserts of the same attribute values at different times are distinct
    elements (they can be individually removed), which is exactly OPS5's
    behaviour.

    ``_values`` holds the attribute values in sorted-name order plus a
    trailing ``nil``; ``_slots`` is the interned slot map of those names
    (see the module docstring). Hash, equality, :meth:`items`,
    :attr:`attributes`, :meth:`content_key` and ``repr`` all read in
    sorted-name order. ``__slots__`` keeps per-WME overhead low — benchmark
    working memories hold 10^5+ elements.
    """

    __slots__ = ("class_name", "_slots", "_values", "timestamp", "_hash")

    def __init__(
        self,
        class_name: str,
        attrs: Mapping[str, Value],
        timestamp: int,
    ) -> None:
        names = tuple(sorted(attrs))
        slots = _LAYOUTS.get(names) or _LAYOUTS.setdefault(
            names, {n: i for i, n in enumerate(names)}
        )
        values = tuple([attrs[n] for n in names]) + _NIL_TAIL
        self.class_name = class_name
        self._slots = slots
        self._values: Tuple[Value, ...] = values
        self.timestamp = timestamp
        # Equal WMEs share a slot map, so the names need not be hashed.
        self._hash = hash((class_name, values, timestamp))

    def __reduce__(self) -> Tuple[Any, ...]:
        # Rebuild rather than copy the slots: the receiving process must
        # recompute the hash under its own seed and intern its own layout.
        return (WME, (self.class_name, self.attributes, self.timestamp))

    # -- value access -------------------------------------------------------

    def get(self, attr: str) -> Value:
        """The attribute's value, or ``nil`` if never assigned."""
        return self._values[self._slots.get(attr, -1)]

    __getitem__ = get

    @property
    def attributes(self) -> Dict[str, Value]:
        """A fresh dict of the explicitly assigned attributes."""
        return dict(zip(self._slots, self._values))

    def items(self) -> Iterator[Tuple[str, Value]]:
        return zip(self._slots, self._values)

    def with_updates(self, updates: Mapping[str, Value], timestamp: int) -> "WME":
        """A new WME with ``updates`` applied and a fresh timestamp —
        the primitive under the ``modify`` action."""
        merged = self.attributes
        merged.update(updates)
        return WME(self.class_name, merged, timestamp)

    # -- identity -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WME):
            return NotImplemented
        return (
            self.timestamp == other.timestamp
            and self.class_name == other.class_name
            and self._slots is other._slots
            and self._values == other._values
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = " ".join(f"^{k} {_format_value(val)}" for k, val in self.items())
        sep = " " if inner else ""
        return f"({self.class_name}{sep}{inner})@{self.timestamp}"

    def content_key(self) -> Tuple[str, Tuple[Tuple[str, Value], ...]]:
        """Timestamp-independent identity, used for duplicate detection in
        set-oriented firing (two firings making the same element)."""
        return (self.class_name, tuple(zip(self._slots, self._values)))
