"""Unit tests for WMEs."""

import os
import pickle
import subprocess
import sys

import pytest

from repro.wm.wme import NIL, WME


class TestAccess:
    def test_get_assigned_attribute(self):
        w = WME("block", {"name": "b1", "size": 3}, 1)
        assert w.get("name") == "b1"
        assert w.get("size") == 3

    def test_missing_attribute_is_nil(self):
        w = WME("block", {"name": "b1"}, 1)
        assert w.get("size") == NIL
        assert w["size"] == "nil"

    def test_getitem(self):
        w = WME("block", {"name": "b1"}, 1)
        assert w["name"] == "b1"

    def test_attributes_returns_fresh_dict(self):
        w = WME("block", {"name": "b1"}, 1)
        d = w.attributes
        d["name"] = "tampered"
        assert w.get("name") == "b1"

    def test_items_iteration_sorted(self):
        w = WME("c", {"z": 1, "a": 2}, 1)
        assert list(w.items()) == [("a", 2), ("z", 1)]

    def test_class_name_and_timestamp(self):
        w = WME("goal", {}, 42)
        assert w.class_name == "goal"
        assert w.timestamp == 42


class TestIdentity:
    def test_equal_contents_equal_timestamp(self):
        a = WME("c", {"x": 1}, 5)
        b = WME("c", {"x": 1}, 5)
        assert a == b
        assert hash(a) == hash(b)

    def test_attr_order_irrelevant(self):
        a = WME("c", {"x": 1, "y": 2}, 5)
        b = WME("c", {"y": 2, "x": 1}, 5)
        assert a == b

    def test_different_timestamps_differ(self):
        assert WME("c", {"x": 1}, 1) != WME("c", {"x": 1}, 2)

    def test_different_class_differ(self):
        assert WME("c", {"x": 1}, 1) != WME("d", {"x": 1}, 1)

    def test_not_equal_to_other_types(self):
        assert WME("c", {}, 1) != "not a wme"

    def test_content_key_ignores_timestamp(self):
        a = WME("c", {"x": 1}, 1)
        b = WME("c", {"x": 1}, 99)
        assert a.content_key() == b.content_key()

    def test_usable_in_sets(self):
        s = {WME("c", {"x": 1}, 1), WME("c", {"x": 1}, 1), WME("c", {"x": 2}, 2)}
        assert len(s) == 2


class TestWithUpdates:
    def test_update_changes_value(self):
        w = WME("c", {"x": 1, "y": 2}, 1)
        w2 = w.with_updates({"x": 10}, 7)
        assert w2.get("x") == 10
        assert w2.get("y") == 2
        assert w2.timestamp == 7

    def test_update_adds_attribute(self):
        w = WME("c", {"x": 1}, 1)
        w2 = w.with_updates({"z": 3}, 2)
        assert w2.get("z") == 3

    def test_original_untouched(self):
        w = WME("c", {"x": 1}, 1)
        w.with_updates({"x": 2}, 2)
        assert w.get("x") == 1


class TestRepr:
    def test_repr_surface_form(self):
        w = WME("block", {"name": "b1", "size": 3}, 4)
        assert repr(w) == "(block ^name b1 ^size 3)@4"

    def test_repr_empty_attrs(self):
        assert repr(WME("goal", {}, 1)) == "(goal)@1"

    def test_repr_quotes_spacey_strings(self):
        w = WME("note", {"text": "two words"}, 1)
        assert "^text |two words|" in repr(w)


class TestPickle:
    def test_round_trip(self):
        w = WME("block", {"name": "b1", "size": 3}, 4)
        back = pickle.loads(pickle.dumps(w))
        assert back == w and hash(back) == hash(w)
        assert back.get("size") == 3 and back.get("colour") == NIL

    def test_hash_follows_the_loading_process(self, tmp_path):
        """A WME pickled under one hash seed and loaded under another must
        hash like a twin built there, or set and dict lookups miss it."""
        blob = tmp_path / "wme.pickle"
        dump = (
            "import pathlib, pickle, sys\n"
            "from repro.wm.wme import WME\n"
            "w = WME('block', {'name': 'b1', 'size': 3, 'on': 'table'}, 7)\n"
            "pathlib.Path(sys.argv[1]).write_bytes(pickle.dumps(w))\n"
        )
        load = (
            "import pathlib, pickle, sys\n"
            "from repro.wm.wme import WME\n"
            "w = pickle.loads(pathlib.Path(sys.argv[1]).read_bytes())\n"
            "twin = WME('block', {'on': 'table', 'size': 3, 'name': 'b1'}, 7)\n"
            "assert w == twin, (w, twin)\n"
            "assert hash(w) == hash(twin), 'hash kept from the dumping process'\n"
            "assert w in {twin} and twin in {w}\n"
        )
        for seed, code in (("1", dump), ("2", load)):
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), PYTHONHASHSEED=seed)
            done = subprocess.run(
                [sys.executable, "-c", code, str(blob)],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert done.returncode == 0, done.stderr
