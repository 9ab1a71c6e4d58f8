"""Value records without :mod:`dataclasses`.

The ``dataclass`` decorator generates and ``exec``-compiles each class's
methods when the class is defined, and importing its module loads ``inspect``,
``ast``, ``dis``, ``tokenize`` and ``copy``: together more than half of
``import repro.cli`` for the AST nodes and records a run builds. A
:class:`Record` subclass lists its fields as ``__slots__``, in constructor
order, and writes its own ``__init__``; the base supplies the rest of what
the dataclass did — equality with records of the same class only, a
``Name(field=value, ...)`` repr, and pickling by constructor arguments.
:class:`FrozenRecord` adds immutability and a hash over the same fields.
"""

from __future__ import annotations

from typing import Any, Tuple

__all__ = ["Record", "FrozenRecord"]


class Record:
    """A mutable record: equal to a record of the same class whose compared
    fields are equal, and unhashable (as a mutable dataclass is)."""

    __slots__ = ()
    #: Every field in constructor order: the ``__slots__`` of the bases,
    #: then the class's own.
    _fields: Tuple[str, ...] = ()
    #: The fields equality, hash and repr look at: all of them unless the
    #: class body names a subset (derived data left out).
    _compared: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(cls.__dict__.get("__slots__", ()))
        if "_compared" not in cls.__dict__:
            cls._compared = cls._fields

    def _values(self, names: Tuple[str, ...]) -> tuple:
        return tuple([getattr(self, name) for name in names])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        names = self._compared
        return self._values(names) == other._values(names)  # type: ignore[attr-defined]

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{self.__class__.__qualname__}({inner})"

    def __reduce__(self) -> Tuple[type, tuple]:
        return (self.__class__, self._values(self._fields))


class FrozenRecord(Record):
    """An immutable, hashable record. ``__init__`` sets the fields through
    :meth:`_set`; assigning or deleting one afterwards raises
    :class:`AttributeError`."""

    __slots__ = ()

    def _set(self, *values: Any) -> None:
        """Set the fields, in :attr:`_fields` order, to ``values``."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values(self._compared))
