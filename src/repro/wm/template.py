"""Class templates from ``literalize`` declarations.

A :class:`TemplateRegistry` records, per WME class, which attributes are
legal. Engines consult it on every ``make``/``modify`` when the program
declared classes; undeclared programs run untyped (registry stays
permissive), matching how :mod:`repro.lang.analysis` treats them.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Set, Tuple

from repro.errors import WorkingMemoryError
from repro.lang.analysis import INSTANTIATION_CLASS
from repro.lang.ast import Program, Value

__all__ = ["TemplateRegistry"]


class TemplateRegistry:
    """Per-class attribute declarations.

    ``strict`` registries reject WMEs of undeclared classes or with
    undeclared attributes; permissive ones (the default when a program has no
    ``literalize`` forms) accept anything. The meta-level ``instantiation``
    class is always accepted — its attribute set depends on the rule being
    reified, not on a static declaration.
    """

    def __init__(self, strict: bool = False) -> None:
        self._templates: Dict[str, FrozenSet[str]] = {}
        self.strict = strict
        #: (class, attribute names) shapes already validated: declarations
        #: only widen, so a shape that passed once always passes.
        self._valid: Set[Tuple[str, Tuple[str, ...]]] = set()

    @classmethod
    def from_program(cls, program: Program) -> "TemplateRegistry":
        """Build a registry from a program's ``literalize`` declarations.

        Strict iff the program declares at least one class.
        """
        reg = cls(strict=bool(program.literalizes))
        for lit in program.literalizes:
            reg.declare(lit.class_name, lit.attributes)
        return reg

    def declare(self, class_name: str, attributes: Iterable[str]) -> None:
        """Register (or widen) a class declaration."""
        existing = self._templates.get(class_name, frozenset())
        self._templates[class_name] = existing | frozenset(attributes)

    def attributes(self, class_name: str) -> Optional[FrozenSet[str]]:
        """Declared attributes for a class, or ``None`` if undeclared."""
        return self._templates.get(class_name)

    @property
    def class_names(self) -> FrozenSet[str]:
        return frozenset(self._templates)

    def validate(self, class_name: str, attrs: Mapping[str, Value]) -> None:
        """Raise :class:`~repro.errors.WorkingMemoryError` if the proposed WME
        violates the declarations (no-op when permissive)."""
        if not self.strict or class_name == INSTANTIATION_CLASS:
            return
        shape = (class_name, tuple(attrs))
        if shape in self._valid:
            return
        allowed = self._templates.get(class_name)
        if allowed is None:
            raise WorkingMemoryError(
                f"class {class_name!r} was never declared with literalize"
            )
        for attr in attrs:
            if attr not in allowed:
                raise WorkingMemoryError(
                    f"class {class_name!r} has no attribute {attr!r} "
                    f"(declared: {sorted(allowed)})"
                )
        self._valid.add(shape)
