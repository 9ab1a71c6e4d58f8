"""Durable checkpoints: framed envelopes, atomic writes, rotation, deltas.

The engine's checkpoint *state* is a JSON-safe dict
(:meth:`~repro.core.engine.ParulelEngine.checkpoint`); this module owns how
that dict survives on disk.

**Envelope.** Every checkpoint file is framed::

    PARULELCKPT\\n
    {"envelope": 1, "kind": "full"|"delta", "sha256": ..., "length": N}\\n
    <N bytes of compact JSON payload>

The header carries the payload's exact byte length and SHA-256 digest, so
truncation, bit rot and partial writes are all detected *before* the
payload is parsed; any violation raises the typed
:class:`~repro.errors.CheckpointCorruptError` naming the file.

**Atomicity.** :func:`write_envelope` writes to a same-directory temp
file, ``fsync``\\ s it, ``os.replace``\\ s it over the target, and fsyncs
the directory: a ``kill -9`` at any instant leaves either the old
checkpoint or the new one, never a torn file (stray ``*.tmp-*`` files are
ignored by readers and swept by the store's pruning).

**Store.** :class:`CheckpointStore` manages a directory of rotating
checkpoints: ``ckpt-<seq>.full`` snapshots with cheap ``ckpt-<seq>.delta``
increments between them (only the delta-log suffix, new output and new
refraction keys since the previous save — the working memory is *not*
re-serialized). :meth:`CheckpointStore.load` walks backwards to the newest
full snapshot that verifies, replays the good prefix of its deltas, and
reports anything it had to skip — last-good fallback is the default
behaviour, not an error path. Retention keeps the last ``keep`` full
snapshots (and their deltas).

:class:`EngineCheckpointer` is the engine-facing convenience: call
:meth:`~EngineCheckpointer.save` every N cycles and it alternates full
snapshots with deltas at the configured cadence, tracking the engine's
checkpoint cursor. The CLI's ``--checkpoint-every`` uses the defaults: a
store keeping 3 full snapshots, a full every 5th save and deltas between.

This module is the one place a checkpoint reaches the disk:
:meth:`~repro.core.engine.ParulelEngine.checkpoint` only returns the state.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import CheckpointCorruptError, ExecutionError

__all__ = [
    "MAGIC",
    "ENVELOPE_VERSION",
    "write_envelope",
    "read_envelope",
    "load_checkpoint_file",
    "apply_delta_state",
    "CheckpointStore",
    "CheckpointLoad",
    "EngineCheckpointer",
]

MAGIC = b"PARULELCKPT\n"
ENVELOPE_VERSION = 1

_ENTRY_RE = re.compile(r"^ckpt-(\d{8})\.(full|delta)$")
_TMP_MARK = ".tmp-"


# -- framed envelope ----------------------------------------------------------


def write_envelope(path: str, payload: Dict[str, Any], kind: str = "full") -> None:
    """Durably write one framed checkpoint file (atomic tmp+fsync+rename)."""
    if kind not in ("full", "delta"):
        raise ValueError(f"envelope kind must be 'full' or 'delta', not {kind!r}")
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    header = json.dumps(
        {
            "envelope": ENVELOPE_VERSION,
            "kind": kind,
            "sha256": hashlib.sha256(body).hexdigest(),
            "length": len(body),
        },
        separators=(",", ":"),
    ).encode("utf-8")
    tmp = f"{path}{_TMP_MARK}{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(MAGIC)
        fh.write(header)
        fh.write(b"\n")
        fh.write(body)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    _fsync_dir(os.path.dirname(os.path.abspath(path)))


def _fsync_dir(dirname: str) -> None:
    """Make the rename itself durable (the file's fsync does not cover the
    directory entry)."""
    try:
        fd = os.open(dirname, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - directories not fsyncable here
        pass
    finally:
        os.close(fd)


def read_envelope(path: str) -> Tuple[str, Dict[str, Any]]:
    """Verify and parse one framed checkpoint file.

    Returns ``(kind, payload)``; raises
    :class:`~repro.errors.CheckpointCorruptError` on *any* integrity
    violation — bad magic, unreadable header, truncated payload, trailing
    garbage, digest mismatch, or a payload that is not valid JSON.
    """
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise CheckpointCorruptError(path, "bad magic (not a framed checkpoint)")
        header_line = fh.readline(4096)
        try:
            header = json.loads(header_line)
            kind = header["kind"]
            digest = header["sha256"]
            length = header["length"]
            envelope = header["envelope"]
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckpointCorruptError(path, f"unreadable header: {exc}") from exc
        if envelope != ENVELOPE_VERSION:
            raise CheckpointCorruptError(
                path, f"envelope version {envelope!r} (expected {ENVELOPE_VERSION})"
            )
        if not isinstance(length, int) or length < 0:
            raise CheckpointCorruptError(path, f"bad payload length {length!r}")
        body = fh.read(length)
        if len(body) != length:
            raise CheckpointCorruptError(
                path, f"truncated payload ({len(body)} of {length} bytes)"
            )
        if fh.read(1):
            raise CheckpointCorruptError(path, "trailing bytes after payload")
    if hashlib.sha256(body).hexdigest() != digest:
        raise CheckpointCorruptError(path, "SHA-256 digest mismatch")
    try:
        payload = json.loads(body)
    except ValueError as exc:
        raise CheckpointCorruptError(path, f"payload is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise CheckpointCorruptError(path, "payload is not a JSON object")
    return kind, payload


def load_checkpoint_file(path: str) -> CheckpointLoad:
    """Load a restorable full state from ``path``: a
    :class:`CheckpointStore` directory (last-good fallback applies, and
    ``skipped`` names what it passed over) or a bare framed checkpoint file
    (``skipped`` is empty). Every state restored is digest-verified: a file
    without the envelope is refused like any other corruption. Raises
    :class:`~repro.errors.CheckpointCorruptError` (an
    :class:`~repro.errors.ExecutionError`) naming the path on any failure
    other than the file simply not existing."""
    if os.path.isdir(path):
        return CheckpointStore(path).load()
    kind, payload = read_envelope(path)
    if kind != "full":
        raise CheckpointCorruptError(
            path,
            "a bare delta checkpoint cannot be restored without its "
            "base snapshot (resume from the store directory instead)",
        )
    return CheckpointLoad(state=payload, base_path=path)


# -- delta application ---------------------------------------------------------


def apply_delta_state(state: Dict[str, Any], delta: Dict[str, Any]) -> Dict[str, Any]:
    """Apply one incremental checkpoint onto a full state dict, in place.

    The delta's ``base_cycle`` must equal the state's current cycle —
    deltas chain from the immediately preceding save, so a gap means the
    chain is unusable (the store treats that as corruption and falls
    back). Working-memory records are edited by replaying the delta's
    delta-log entries; everything else appends.
    """
    base = delta.get("base_cycle")
    if base != state.get("cycle"):
        raise ExecutionError(
            f"delta checkpoint base cycle {base!r} does not match "
            f"state cycle {state.get('cycle')!r}"
        )
    records: Dict[int, list] = {rec[2]: rec for rec in state["wm"]["records"]}
    for removed, made in delta["delta_log"]:
        for ts in removed:
            if ts not in records:
                raise ExecutionError(
                    f"delta checkpoint removes unknown timestamp {ts}"
                )
            del records[ts]
        for rec in made:
            records[rec[2]] = list(rec)
    state["wm"]["records"] = [records[ts] for ts in sorted(records)]
    state["wm"]["next_timestamp"] = delta["next_timestamp"]
    state["cycle"] = delta["cycle"]
    state["halted"] = delta["halted"]
    state["redaction_quiescent"] = delta["redaction_quiescent"]
    state["fired"] = list(state["fired"]) + list(delta["fired"])
    state["output"] = list(state["output"]) + list(delta["output"])
    state["delta_log"] = list(state["delta_log"]) + list(delta["delta_log"])
    return state


# -- rotating store -------------------------------------------------------------


@dataclass
class CheckpointLoad:
    """Result of :func:`load_checkpoint_file` and
    :meth:`CheckpointStore.load`: the reconstructed full state, the
    snapshot it came from, the deltas applied on top, and the
    corrupt/unusable files that were skipped (``(path, reason)``)."""

    state: Dict[str, Any]
    base_path: str
    delta_paths: List[str] = field(default_factory=list)
    skipped: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def fell_back(self) -> bool:
        """Whether anything newer than the loaded chain was skipped."""
        return bool(self.skipped)


class CheckpointStore:
    """A directory of rotating, integrity-checked checkpoints."""

    def __init__(self, root: str, keep: int = 3) -> None:
        if keep < 1:
            raise ValueError("keep must be >= 1 full snapshot")
        self.root = root
        self.keep = keep
        os.makedirs(root, exist_ok=True)
        self._seq = max((seq for seq, _kind, _p in self._entries()), default=0)

    def _entries(self) -> List[Tuple[int, str, str]]:
        """Sorted ``(seq, kind, path)`` for every checkpoint file present."""
        out = []
        for name in os.listdir(self.root):
            m = _ENTRY_RE.match(name)
            if m:
                out.append((int(m.group(1)), m.group(2), os.path.join(self.root, name)))
        out.sort()
        return out

    def _next_path(self, kind: str) -> str:
        self._seq += 1
        return os.path.join(self.root, f"ckpt-{self._seq:08d}.{kind}")

    # -- writing ---------------------------------------------------------------

    def save_full(self, state: Dict[str, Any]) -> str:
        """Write one full snapshot; prune past the retention window."""
        path = self._next_path("full")
        write_envelope(path, state, kind="full")
        self.prune()
        return path

    def save_delta(self, delta: Dict[str, Any]) -> str:
        """Write one incremental checkpoint (requires a preceding full)."""
        if not any(kind == "full" for _s, kind, _p in self._entries()):
            raise ExecutionError(
                "cannot write a delta checkpoint before any full snapshot"
            )
        path = self._next_path("delta")
        write_envelope(path, delta, kind="delta")
        return path

    def prune(self) -> List[str]:
        """Keep the last ``keep`` full snapshots and everything after the
        oldest kept one; drop older files and stale temp files. Returns
        the removed paths."""
        entries = self._entries()
        full_seqs = [seq for seq, kind, _p in entries if kind == "full"]
        removed = []
        if len(full_seqs) > self.keep:
            floor = full_seqs[-self.keep]
            for seq, _kind, path in entries:
                if seq < floor:
                    try:
                        os.unlink(path)
                        removed.append(path)
                    except OSError:  # pragma: no cover - concurrent sweep
                        pass
        for name in os.listdir(self.root):
            if _TMP_MARK in name:
                path = os.path.join(self.root, name)
                try:
                    os.unlink(path)
                    removed.append(path)
                except OSError:  # pragma: no cover - concurrent sweep
                    pass
        return removed

    # -- reading ---------------------------------------------------------------

    def load(self) -> CheckpointLoad:
        """Reconstruct the newest restorable state (last-good fallback).

        Walks full snapshots newest-first; for the first one that
        verifies, applies the contiguous good prefix of the deltas written
        after it (and before the next full — deltas chain from their
        immediately preceding save, so a corrupt link ends the chain).
        Raises :class:`~repro.errors.CheckpointCorruptError` only when *no*
        full snapshot in the store verifies.
        """
        entries = self._entries()
        fulls = [(seq, path) for seq, kind, path in entries if kind == "full"]
        if not fulls:
            raise CheckpointCorruptError(
                self.root, "store contains no full checkpoint snapshot"
            )
        skipped: List[Tuple[str, str]] = []
        next_full_seq: Optional[int] = None
        for full_seq, full_path in reversed(fulls):
            try:
                kind, state = read_envelope(full_path)
                if kind != "full":
                    raise CheckpointCorruptError(
                        full_path, f"mis-labelled snapshot (kind {kind!r})"
                    )
            except CheckpointCorruptError as exc:
                skipped.append((full_path, exc.reason))
                next_full_seq = full_seq
                continue
            load = CheckpointLoad(state=state, base_path=full_path, skipped=skipped)
            deltas = [
                (seq, path)
                for seq, kind, path in entries
                if kind == "delta"
                and seq > full_seq
                and (next_full_seq is None or seq < next_full_seq)
            ]
            for _seq, delta_path in deltas:
                try:
                    kind, delta = read_envelope(delta_path)
                    if kind != "delta":
                        raise CheckpointCorruptError(
                            delta_path, f"mis-labelled delta (kind {kind!r})"
                        )
                    apply_delta_state(state, delta)
                except (CheckpointCorruptError, ExecutionError) as exc:
                    reason = getattr(exc, "reason", str(exc))
                    skipped.append((delta_path, reason))
                    break  # later deltas chain off this one: unusable
                load.delta_paths.append(delta_path)
            return load
        raise CheckpointCorruptError(
            self.root,
            "no full snapshot verified: "
            + "; ".join(f"{os.path.basename(p)}: {r}" for p, r in skipped),
        )


# -- engine-facing cadence -------------------------------------------------------


class EngineCheckpointer:
    """Alternate full snapshots with cheap deltas at a fixed cadence.

    ``full_every=K`` writes one full snapshot, then ``K-1`` deltas, then
    another full, and so on (``1`` = every save is a full snapshot). The
    first save is always full; :meth:`save` is what the CLI's
    ``--checkpoint-every`` callback invokes.
    """

    def __init__(self, engine, store: CheckpointStore, full_every: int = 5) -> None:
        if full_every < 1:
            raise ValueError("full_every must be >= 1")
        self.engine = engine
        self.store = store
        self.full_every = full_every
        self._cursor = None
        self._deltas_since_full = 0

    @property
    def cycle(self) -> Optional[int]:
        """The engine cycle of the last save (``None`` before the first)."""
        return None if self._cursor is None else self._cursor[0]

    def save(self) -> str:
        """Write the next checkpoint (full or delta per the cadence)."""
        if self._cursor is None or self._deltas_since_full >= self.full_every - 1:
            state = self.engine.checkpoint()
            path = self.store.save_full(state)
            self._cursor = self.engine.checkpoint_cursor()
            self._deltas_since_full = 0
        else:
            delta, self._cursor = self.engine.checkpoint_delta(self._cursor)
            path = self.store.save_delta(delta)
            self._deltas_since_full += 1
        return path
