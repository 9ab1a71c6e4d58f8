"""Exception hierarchy for the PARULEL reproduction.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch one type. Sub-hierarchies mirror the pipeline stages: lexing/parsing,
semantic analysis, working-memory operations, match compilation, and runtime
execution (including the firing-interference errors specific to PARULEL's
set-oriented semantics).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class LexError(ReproError):
    """Raised when the lexer encounters an invalid character sequence.

    Carries the 1-based ``line`` and ``column`` of the offending input.
    """

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ParseError(ReproError):
    """Raised when the parser cannot build an AST from a token stream."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        loc = f" (line {line}, column {column})" if line else ""
        super().__init__(f"{message}{loc}")
        self.line = line
        self.column = column


class SemanticError(ReproError):
    """Raised by semantic analysis: unbound variables, unknown classes or
    attributes, ill-typed actions, meta-rule violations, and similar."""


class WorkingMemoryError(ReproError):
    """Raised on invalid working-memory operations (e.g. removing a WME that
    is not present, or making a WME with an undeclared attribute when a
    template is enforced)."""


class MatchError(ReproError):
    """Raised when a rule cannot be compiled into a match network."""


class PartitionConstraintError(MatchError):
    """Raised by :func:`repro.lab.partition.copy_and_constrain` when a
    partition's membership test conjoins with an existing test on the same
    attribute into an unsatisfiable constraint — the resulting rule copy
    could never match, so the split silently drops work instead of
    distributing it. Carries the ``rule`` name and ``attribute``.
    """

    def __init__(self, message: str, rule: str = "", attribute: str = "") -> None:
        super().__init__(message)
        self.rule = rule
        self.attribute = attribute


class ExecutionError(ReproError):
    """Raised for runtime failures while firing rules (bad CE index in a
    ``modify``, arithmetic on non-numbers, exceeding the cycle limit, ...)."""


class CheckpointCorruptError(ExecutionError):
    """Raised when a checkpoint file fails integrity verification: bad
    magic, truncated payload, SHA-256 digest mismatch, malformed JSON, or
    an unusable store directory. Carries the offending ``path`` so callers
    (and the CLI) can name the file; the checkpoint store catches it
    internally to fall back to the last good snapshot.
    """

    def __init__(self, path: str, reason: str) -> None:
        super().__init__(f"corrupt checkpoint {path!r}: {reason}")
        self.path = path
        self.reason = reason


class BlackboxCorruptError(ReproError):
    """Raised when a ``*.blackbox`` flight-recorder dump cannot be decoded:
    bad magic, truncated header or ring blob, or corrupt header JSON.

    Torn *records* inside a ring (a writer SIGKILLed mid-write) are not an
    error — the decoder skips and counts them; this exception means the
    dump file itself is unusable.
    """


class InterferenceError(ExecutionError):
    """Raised under the ``error`` interference policy when two instantiations
    in the same firing set issue incompatible updates to one WME.

    PARULEL expects the programmer's meta-rules to redact such pairs; this
    error is the engine telling the programmer a redaction rule is missing.
    """

    def __init__(self, message: str, wme=None, actions=(), rules=()) -> None:
        super().__init__(message)
        self.wme = wme
        self.actions = tuple(actions)
        #: Names of the two rules whose firings conflicted (when known) —
        #: the PA001 soundness tests check each runtime pair appears among
        #: the static interference candidates.
        self.rules = tuple(rules)


class CycleLimitExceeded(ExecutionError):
    """Raised when an engine exceeds its configured maximum cycle count,
    usually indicating a non-terminating rule program.

    The work done before the limit is not discarded: the exception carries
    ``cycles_completed`` / ``firings`` counts, the ``last_report``
    (the final :class:`~repro.core.engine.CycleReport`, when the engine
    produces them), and optionally a substrate-specific ``partial`` result
    (e.g. a :class:`~repro.lab.distributed.DistResult`), so callers
    and the CLI can report progress instead of losing the run.
    """

    def __init__(
        self,
        message: str,
        *,
        cycles_completed: int = 0,
        firings: int = 0,
        last_report=None,
        partial=None,
    ) -> None:
        super().__init__(message)
        self.cycles_completed = cycles_completed
        self.firings = firings
        self.last_report = last_report
        self.partial = partial

