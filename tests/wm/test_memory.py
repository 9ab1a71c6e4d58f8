"""Unit tests for the working-memory store."""

import pytest

from repro.errors import WorkingMemoryError
from repro.wm.memory import WorkingMemory
from repro.wm.template import TemplateRegistry
from repro.wm.wme import WME


@pytest.fixture
def wm():
    return WorkingMemory()


class TestMakeAndRemove:
    def test_make_assigns_increasing_timestamps(self, wm):
        a = wm.make("c", x=1)
        b = wm.make("c", x=2)
        assert b.timestamp == a.timestamp + 1

    def test_make_with_dict_and_kwargs(self, wm):
        w = wm.make("c", {"a": 1}, b=2)
        assert w.get("a") == 1
        assert w.get("b") == 2

    def test_kwargs_translate_underscores(self, wm):
        w = wm.make("block", on_top_of="nil")
        assert w.get("on-top-of") == "nil"

    def test_len_counts_all_classes(self, wm):
        wm.make("a", x=1)
        wm.make("b", x=1)
        assert len(wm) == 2

    def test_contains(self, wm):
        w = wm.make("c", x=1)
        assert w in wm
        wm.remove(w)
        assert w not in wm

    def test_remove_absent_raises(self, wm):
        w = wm.make("c", x=1)
        wm.remove(w)
        with pytest.raises(WorkingMemoryError):
            wm.remove(w)

    def test_discard_returns_flag(self, wm):
        w = wm.make("c", x=1)
        assert wm.discard(w) is True
        assert wm.discard(w) is False

    def test_duplicate_add_raises(self, wm):
        w = wm.make("c", x=1)
        with pytest.raises(WorkingMemoryError):
            wm.add(w)

    def test_add_prebuilt_advances_timestamp(self, wm):
        wm.add(WME("c", {"x": 1}, 10))
        nxt = wm.make("c", x=2)
        assert nxt.timestamp == 11

    def test_allocate_timestamp(self, wm):
        t1 = wm.allocate_timestamp()
        t2 = wm.allocate_timestamp()
        assert t2 == t1 + 1
        assert wm.latest_timestamp == t2


class TestQueries:
    def test_by_class_in_timestamp_order(self, wm):
        a = wm.make("c", x=1)
        wm.make("d", x=9)
        b = wm.make("c", x=2)
        assert wm.by_class("c") == (a, b)

    def test_by_class_unknown_is_empty(self, wm):
        assert wm.by_class("nope") == ()

    def test_count_class(self, wm):
        wm.make("c", x=1)
        wm.make("c", x=2)
        assert wm.count_class("c") == 2
        assert wm.count_class("d") == 0

    def test_find_by_attribute(self, wm):
        wm.make("c", x=1, y="a")
        hit = wm.make("c", x=2, y="b")
        assert wm.find("c", x=2) == (hit,)
        assert wm.find("c", x=3) == ()

    def test_find_with_underscore_translation(self, wm):
        w = wm.make("block", on_top_of="b2")
        assert wm.find("block", on_top_of="b2") == (w,)

    def test_snapshot_global_timestamp_order(self, wm):
        a = wm.make("b", x=1)
        b = wm.make("a", x=2)
        c = wm.make("b", x=3)
        assert wm.snapshot() == (a, b, c)

    def test_iteration_covers_everything(self, wm):
        made = {wm.make("c", x=i) for i in range(5)}
        made |= {wm.make("d", x=i) for i in range(3)}
        assert set(wm) == made


class TestListeners:
    def test_listener_sees_adds_and_removes(self, wm):
        events = []
        wm.add_listener(
            lambda ws, added: events.append(([w.get("x") for w in ws], added))
        )
        w = wm.make("c", x=1)
        wm.remove(w)
        assert events == [([1], True), ([1], False)]

    def test_a_batch_is_one_event(self, wm):
        events = []
        wm.add_listener(
            lambda ws, added: events.append(([w.timestamp for w in ws], added))
        )
        made = wm.make_batch([("c", {"x": 1}), ("d", {"x": 2}), ("c", {"x": 3})])
        assert [w.timestamp for w in made] == [1, 2, 3]
        wm.remove_batch([made[2], made[0]])
        assert events == [([1, 2, 3], True), ([3, 1], False)]
        assert list(wm) == [made[1]]

    def test_a_batch_that_fails_validation_asserts_nothing(self):
        templates = TemplateRegistry(strict=True)
        templates.declare("c", ["x"])
        wm = WorkingMemory(templates)
        events = []
        wm.add_listener(lambda ws, added: events.append(ws))
        with pytest.raises(WorkingMemoryError, match="no attribute 'y'"):
            wm.make_batch([("c", {"x": 1}), ("c", {"y": 2})])
        assert len(wm) == 0 and events == [] and wm.latest_timestamp == 0

    def test_a_batch_remove_stops_at_the_first_absent_wme(self, wm):
        events = []
        a, b = wm.make("c", x=1), wm.make("c", x=2)
        wm.remove(b)
        wm.add_listener(lambda ws, added: events.append(list(ws)))
        with pytest.raises(WorkingMemoryError, match="absent"):
            wm.remove_batch([a, b])
        assert len(wm) == 0 and events == [[a]]

    def test_listener_removal(self, wm):
        events = []
        listener = lambda w, added: events.append(added)  # noqa: E731
        wm.add_listener(listener)
        wm.make("c", x=1)
        wm.remove_listener(listener)
        wm.make("c", x=2)
        assert events == [True]

    def test_multiple_listeners_in_order(self, wm):
        order = []
        wm.add_listener(lambda w, a: order.append("first"))
        wm.add_listener(lambda w, a: order.append("second"))
        wm.make("c", x=1)
        assert order == ["first", "second"]


class TestTemplates:
    def test_strict_registry_rejects_undeclared_class(self):
        reg = TemplateRegistry(strict=True)
        reg.declare("block", ["name"])
        wm = WorkingMemory(reg)
        with pytest.raises(WorkingMemoryError, match="never declared"):
            wm.make("ghost", x=1)

    def test_strict_registry_rejects_undeclared_attr(self):
        reg = TemplateRegistry(strict=True)
        reg.declare("block", ["name"])
        wm = WorkingMemory(reg)
        with pytest.raises(WorkingMemoryError, match="no attribute"):
            wm.make("block", size=3)

    def test_instantiation_class_always_allowed(self):
        reg = TemplateRegistry(strict=True)
        wm = WorkingMemory(reg)
        wm.make("instantiation", rule="r", id=1)  # no error

    def test_permissive_registry_allows_anything(self):
        wm = WorkingMemory(TemplateRegistry(strict=False))
        wm.make("anything", whatever=1)

    def test_from_program_strictness(self):
        from repro.lang.parser import parse_program

        typed = TemplateRegistry.from_program(
            parse_program("(literalize c a)")
        )
        untyped = TemplateRegistry.from_program(parse_program(""))
        assert typed.strict
        assert not untyped.strict
        assert typed.attributes("c") == frozenset({"a"})
        assert untyped.attributes("c") is None

    def test_declare_widens(self):
        reg = TemplateRegistry(strict=True)
        reg.declare("c", ["a"])
        reg.declare("c", ["b"])
        assert reg.attributes("c") == frozenset({"a", "b"})
        assert reg.class_names == frozenset({"c"})
