"""CheckpointStore: rotation, delta chains, last-good fallback.

The acceptance property lives in :class:`TestKillDuringWrite`: truncating
the *newest* store file at every possible byte offset (what a ``kill -9``
mid-write leaves behind, modulo the atomic rename that normally prevents
even that) never loses the store — ``load()`` always returns a state the
engine actually checkpointed, falling back past the torn file.
"""

import os

import pytest

from repro.core import EngineConfig, ParulelEngine
from repro.errors import CheckpointCorruptError, ExecutionError
from repro.lang.parser import parse_program
from repro.resilience.checkpoint import (
    CheckpointStore,
    EngineCheckpointer,
    apply_delta_state,
    write_envelope,
)

COUNTER = """
(literalize count value)
(literalize audit value)
(p bump
    (count ^value {<v> < 10})
    -->
    (modify 1 ^value (compute <v> + 1))
    (make audit ^value <v>))
"""


def wm_bytes(engine):
    return [repr(w) for w in engine.wm.snapshot()]


def fresh():
    engine = ParulelEngine(parse_program(COUNTER))
    engine.make("count", value=0)
    return engine


def checkpointed_run(root, cycles, full_every=3, keep=3):
    """Step an engine ``cycles`` times, saving after every step."""
    engine = fresh()
    store = CheckpointStore(root, keep=keep)
    ck = EngineCheckpointer(engine, store, full_every=full_every)
    paths = [ck.save()]  # cycle-0 baseline, like the CLI
    for _ in range(cycles):
        engine.step()
        paths.append(ck.save())
    return engine, store, paths


def kinds(paths):
    return [os.path.splitext(p)[1].lstrip(".") for p in paths]


class TestCadenceAndRotation:
    def test_full_every_alternates_kinds(self, tmp_path):
        _e, _s, paths = checkpointed_run(str(tmp_path), 6, full_every=3)
        assert kinds(paths) == [
            "full", "delta", "delta", "full", "delta", "delta", "full",
        ]

    def test_full_every_one_means_all_fulls(self, tmp_path):
        _e, _s, paths = checkpointed_run(str(tmp_path), 3, full_every=1)
        assert kinds(paths) == ["full"] * 4

    def test_keep_bounds_full_snapshots(self, tmp_path):
        _e, store, _paths = checkpointed_run(
            str(tmp_path), 9, full_every=2, keep=2
        )
        entries = store._entries()
        fulls = [p for _s, k, p in entries if k == "full"]
        assert len(fulls) == 2
        # Nothing older than the oldest kept full survives.
        oldest_kept = min(s for s, k, _p in entries if k == "full")
        assert all(s >= oldest_kept for s, _k, _p in entries)

    def test_prune_sweeps_stale_tmp_files(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        stale = tmp_path / "ckpt-00000001.full.tmp-12345"
        stale.write_bytes(b"torn")
        removed = store.prune()
        assert str(stale) in removed
        assert not stale.exists()

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointStore(str(tmp_path), keep=0)

    def test_full_every_must_be_positive(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        with pytest.raises(ValueError):
            EngineCheckpointer(fresh(), store, full_every=0)

    def test_delta_before_any_full_rejected(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        with pytest.raises(ExecutionError):
            store.save_delta({"base_cycle": 0})


class TestDeltaChain:
    def test_store_restore_equals_direct_full(self, tmp_path):
        """full + deltas reconstructs exactly what a full snapshot at the
        same cycle would hold."""
        engine, store, _paths = checkpointed_run(str(tmp_path), 5, full_every=3)
        direct = engine.checkpoint()
        load = store.load()
        assert not load.fell_back
        assert load.delta_paths  # the chain was actually exercised
        got = dict(load.state)
        # fired ordering differs (direct sorts, delta appends in firing
        # order) but the *set* must match; everything else is exact.
        assert sorted(map(tuple, got.pop("fired"))) == sorted(
            map(tuple, direct.pop("fired"))
        )
        assert got == direct

    def test_resumed_run_matches_clean_run(self, tmp_path):
        ref = fresh()
        ref.run()
        _engine, store, _paths = checkpointed_run(str(tmp_path), 4)
        load = store.load()
        resumed = ParulelEngine.restore(parse_program(COUNTER), load.state)
        resumed.run()
        assert wm_bytes(resumed) == wm_bytes(ref)
        assert resumed.output == ref.output
        assert resumed.fired == ref.fired

    def test_apply_delta_rejects_base_cycle_gap(self, tmp_path):
        engine, store, _paths = checkpointed_run(str(tmp_path), 3, full_every=2)
        state = engine.checkpoint()
        delta, _cursor = engine.checkpoint_delta(engine.checkpoint_cursor())
        delta["base_cycle"] = state["cycle"] + 1
        with pytest.raises(ExecutionError, match="base cycle"):
            apply_delta_state(state, delta)


class TestFallback:
    def corrupt(self, path):
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) // 2)

    def test_corrupt_newest_full_falls_back(self, tmp_path):
        _e, store, paths = checkpointed_run(str(tmp_path), 6, full_every=3)
        assert paths[-1].endswith(".full")
        self.corrupt(paths[-1])
        load = store.load()
        assert load.fell_back
        assert load.base_path == paths[3]  # previous full
        assert load.delta_paths == [paths[4], paths[5]]
        assert load.state["cycle"] == 5
        assert paths[-1] in [p for p, _r in load.skipped]

    def test_corrupt_delta_stops_chain_keeps_full(self, tmp_path):
        _e, store, paths = checkpointed_run(str(tmp_path), 2, full_every=3)
        assert kinds(paths) == ["full", "delta", "delta"]
        self.corrupt(paths[1])
        load = store.load()
        # The full still loads; the chain ends at the torn delta — the
        # later delta chains off it and must not be applied.
        assert load.base_path == paths[0]
        assert load.delta_paths == []
        assert load.state["cycle"] == 0
        assert [p for p, _r in load.skipped] == [paths[1]]

    def test_all_fulls_corrupt_raises_typed(self, tmp_path):
        _e, store, _paths = checkpointed_run(str(tmp_path), 3, full_every=1)
        for _seq, _kind, path in store._entries():
            self.corrupt(path)
        with pytest.raises(CheckpointCorruptError) as exc:
            store.load()
        assert exc.value.path == str(tmp_path)

    def test_empty_store_raises_typed(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        with pytest.raises(CheckpointCorruptError):
            store.load()

    def test_mislabelled_snapshot_is_skipped(self, tmp_path):
        engine, store, _paths = checkpointed_run(str(tmp_path), 1, full_every=1)
        # A delta payload wearing a .full name must not be trusted.
        bogus = os.path.join(str(tmp_path), "ckpt-00000099.full")
        write_envelope(bogus, {"base_cycle": 1}, kind="delta")
        load = store.load()
        assert load.state["cycle"] == 1
        assert bogus in [p for p, _r in load.skipped]


class TestKillDuringWrite:
    """Acceptance criterion: kill -9 during a checkpoint write never
    corrupts the latest *restorable* checkpoint."""

    def sweep(self, store, victim, acceptable_cycles):
        with open(victim, "rb") as fh:
            blob = fh.read()
        for cut in range(len(blob)):
            with open(victim, "wb") as fh:
                fh.write(blob[:cut])
            load = store.load()
            assert load.state["cycle"] in acceptable_cycles, (
                f"truncation at byte {cut} produced cycle "
                f"{load.state['cycle']}"
            )
            assert load.fell_back  # the torn file was noticed, not trusted
        with open(victim, "wb") as fh:
            fh.write(blob)

    def test_torn_newest_full_every_offset(self, tmp_path):
        _e, store, paths = checkpointed_run(str(tmp_path), 3, full_every=3)
        assert paths[-1].endswith(".full")
        # Fallback target: previous full (cycle 0) + its two deltas = cycle 2.
        self.sweep(store, paths[-1], acceptable_cycles={2})
        assert store.load().state["cycle"] == 3  # intact file still wins

    def test_torn_newest_delta_every_offset(self, tmp_path):
        _e, store, paths = checkpointed_run(str(tmp_path), 4, full_every=3)
        assert paths[-1].endswith(".delta")
        # Chain ends before the torn delta: full at cycle 3 stands alone.
        self.sweep(store, paths[-1], acceptable_cycles={3})
        assert store.load().state["cycle"] == 4

    def test_torn_file_resumes_to_same_final_state(self, tmp_path):
        """End to end: truncate, load, restore, run — the run converges to
        the clean final state regardless of which checkpoint survived."""
        ref = fresh()
        ref.run()
        _e, store, paths = checkpointed_run(str(tmp_path), 5, full_every=2)
        size = os.path.getsize(paths[-1])
        with open(paths[-1], "r+b") as fh:
            fh.truncate(size // 3)
        load = store.load()
        resumed = ParulelEngine.restore(
            parse_program(COUNTER), load.state, EngineConfig()
        )
        resumed.run()
        assert wm_bytes(resumed) == wm_bytes(ref)
        assert resumed.output == ref.output
