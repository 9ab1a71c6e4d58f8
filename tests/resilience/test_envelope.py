"""Checkpoint envelope: atomicity, framing, digest verification.

The property that matters: a ``kill -9`` at ANY byte of a checkpoint write
never leaves a file that loads as wrong state — it either loads exactly, or
raises the typed :class:`CheckpointCorruptError` (so a store can fall back
to the previous checkpoint). The truncation test sweeps every prefix length
of a real envelope to prove it.
"""

import json
import os

import pytest

from repro.errors import CheckpointCorruptError, ExecutionError, ReproError
from repro.resilience.checkpoint import (
    MAGIC,
    load_checkpoint_file,
    read_envelope,
    write_envelope,
)


STATE = {
    "version": 1,
    "cycle": 7,
    "halted": False,
    "redaction_quiescent": False,
    "wm": {"records": [["edge", {"src": "a", "dst": "b"}, 1]], "next_timestamp": 2},
    "fired": [["r1", [1]]],
    "output": ["hello"],
    "delta_log": [[[1], [["edge", {"src": "a", "dst": "b"}, 1]]]],
}


class TestRoundtrip:
    def test_write_read_roundtrip(self, tmp_path):
        path = str(tmp_path / "ck.full")
        write_envelope(path, STATE, kind="full")
        kind, payload = read_envelope(path)
        assert kind == "full"
        assert payload == STATE

    def test_delta_kind_roundtrips(self, tmp_path):
        path = str(tmp_path / "ck.delta")
        write_envelope(path, {"base_cycle": 3}, kind="delta")
        kind, payload = read_envelope(path)
        assert kind == "delta"
        assert payload == {"base_cycle": 3}

    def test_no_tmp_file_left_behind(self, tmp_path):
        path = str(tmp_path / "ck.full")
        write_envelope(path, STATE, kind="full")
        assert os.listdir(tmp_path) == ["ck.full"]


class TestCorruptionDetection:
    def test_every_truncation_point_is_detected(self, tmp_path):
        """The kill -9 property: any prefix of a checkpoint write either
        fails typed or (full length) loads exactly — never wrong state,
        never a raw json/KeyError leak."""
        path = str(tmp_path / "ck.full")
        write_envelope(path, STATE, kind="full")
        with open(path, "rb") as fh:
            blob = fh.read()
        torn = str(tmp_path / "torn")
        for cut in range(len(blob)):
            with open(torn, "wb") as fh:
                fh.write(blob[:cut])
            with pytest.raises(CheckpointCorruptError):
                read_envelope(torn)
        # the full write still reads back exactly
        assert read_envelope(path)[1] == STATE

    def test_flipped_payload_byte_fails_digest(self, tmp_path):
        path = str(tmp_path / "ck.full")
        write_envelope(path, STATE, kind="full")
        with open(path, "rb") as fh:
            blob = bytearray(fh.read())
        blob[-2] ^= 0xFF  # inside the JSON payload
        with open(path, "wb") as fh:
            fh.write(blob)
        with pytest.raises(CheckpointCorruptError) as exc:
            read_envelope(path)
        assert "digest" in str(exc.value)

    def test_trailing_garbage_is_detected(self, tmp_path):
        path = str(tmp_path / "ck.full")
        write_envelope(path, STATE, kind="full")
        with open(path, "ab") as fh:
            fh.write(b"junk")
        with pytest.raises(CheckpointCorruptError):
            read_envelope(path)

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "notckpt")
        with open(path, "wb") as fh:
            fh.write(b"X" * len(MAGIC) + b"rest")
        with pytest.raises(CheckpointCorruptError):
            read_envelope(path)

    def test_error_is_typed_and_names_path(self, tmp_path):
        path = str(tmp_path / "ck.full")
        with open(path, "wb") as fh:
            fh.write(MAGIC + b"{not json\n")
        with pytest.raises(CheckpointCorruptError) as exc:
            read_envelope(path)
        err = exc.value
        assert isinstance(err, ExecutionError)
        assert isinstance(err, ReproError)
        assert err.path == path
        assert path in str(err)


class TestLoadCheckpointFile:
    def test_unframed_valid_json_is_refused(self, tmp_path):
        """Every restored state is digest-verified: a valid JSON state
        with no envelope around it is corruption, not a legacy format."""
        path = str(tmp_path / "unframed.ckpt")
        with open(path, "w") as fh:
            json.dump(STATE, fh)
        with pytest.raises(CheckpointCorruptError) as exc:
            load_checkpoint_file(path)
        assert path in str(exc.value)

    def test_envelope_loads(self, tmp_path):
        path = str(tmp_path / "ck.full")
        write_envelope(path, STATE, kind="full")
        assert load_checkpoint_file(path) == STATE

    def test_bare_delta_file_is_rejected(self, tmp_path):
        path = str(tmp_path / "ck.delta")
        write_envelope(path, {"base_cycle": 1}, kind="delta")
        with pytest.raises(ExecutionError):
            load_checkpoint_file(path)
