"""Property-based tests of delta merging (interference resolution)."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import InterferenceError
from repro.core.actions import FiringDelta
from repro.core.delta import InterferencePolicy, merge_deltas
from repro.lang.parser import parse_program
from repro.match.instantiation import Instantiation
from repro.wm.wme import WME

RULES = {
    name: parse_program(f"(p {name} (c ^a <x>) --> (halt))").rules[0]
    for name in ("r0", "r1", "r2")
}

#: A small pool of target WMEs the generated deltas contend over.
TARGETS = [WME("t", {"slot": i, "v": 0}, 100 + i) for i in range(3)]


@st.composite
def delta_lists(draw):
    n = draw(st.integers(1, 5))
    deltas = []
    for i in range(n):
        rule = RULES[draw(st.sampled_from(sorted(RULES)))]
        trigger = WME("c", {"a": i}, i + 1)
        inst = Instantiation(rule, (trigger,), {"x": i})
        d = FiringDelta([inst])
        for _ in range(draw(st.integers(0, 2))):
            kind = draw(st.sampled_from(["make", "modify", "remove"]))
            target = draw(st.sampled_from(TARGETS))
            if kind == "make":
                d.makes.append(("out", {"n": draw(st.integers(0, 2))}))
            elif kind == "modify":
                d.modifies.append((target, {"v": draw(st.integers(0, 2))}))
            else:
                d.removes.append(target)
        deltas.append(d)
    return deltas


class TestMergeProperties:
    @settings(max_examples=150, deadline=None)
    @given(deltas=delta_lists(), policy=st.sampled_from(["first", "merge"]))
    def test_non_error_policies_never_raise(self, deltas, policy):
        out = merge_deltas(deltas, InterferencePolicy.of(policy))
        # A WME never appears twice in removes, and never both removed
        # and re-made unchanged... removes are unique:
        assert len(out.removes) == len(set(out.removes))

    @settings(max_examples=150, deadline=None)
    @given(deltas=delta_lists(), policy=st.sampled_from(["first", "merge"]))
    def test_makes_and_origins_stay_parallel(self, deltas, policy):
        out = merge_deltas(deltas, InterferencePolicy.of(policy))
        assert len(out.makes) == len(out.make_origins)
        for (cls, _attrs), (inst, kind, replaced) in zip(
            out.makes, out.make_origins
        ):
            assert kind in ("make", "modify")
            assert (replaced is not None) == (kind == "modify")
            assert inst.rule.name in RULES

    @settings(max_examples=150, deadline=None)
    @given(deltas=delta_lists())
    def test_error_policy_raises_or_agrees_with_merge(self, deltas):
        """If ERROR does not raise, the firing set was conflict-free, and
        then all three policies must produce the identical delta."""
        try:
            strict = merge_deltas(deltas, InterferencePolicy.ERROR)
        except InterferenceError:
            return
        relaxed_first = merge_deltas(deltas, InterferencePolicy.FIRST)
        relaxed_merge = merge_deltas(deltas, InterferencePolicy.MERGE)
        for other in (relaxed_first, relaxed_merge):
            assert other.removes == strict.removes
            assert other.makes == strict.makes
            assert other.conflicts_resolved == 0

    @settings(max_examples=150, deadline=None)
    @given(deltas=delta_lists(), policy=st.sampled_from(["error", "first", "merge"]))
    def test_dedupe_only_removes_duplicates(self, deltas, policy):
        try:
            with_dedupe = merge_deltas(
                deltas, InterferencePolicy.of(policy), dedupe_makes=True
            )
            without = merge_deltas(
                deltas, InterferencePolicy.of(policy), dedupe_makes=False
            )
        except InterferenceError:
            return
        assert len(with_dedupe.makes) + with_dedupe.makes_deduped == len(
            without.makes
        )
        # Deduped output is a sub-multiset of the raw output.
        raw = [tuple(sorted(a.items())) + (c,) for c, a in without.makes]
        kept = [tuple(sorted(a.items())) + (c,) for c, a in with_dedupe.makes]
        for item in kept:
            assert item in raw

    @settings(max_examples=100, deadline=None)
    @given(deltas=delta_lists(), policy=st.sampled_from(["first", "merge"]))
    def test_deterministic(self, deltas, policy):
        a = merge_deltas(deltas, InterferencePolicy.of(policy))
        b = merge_deltas(deltas, InterferencePolicy.of(policy))
        assert a.removes == b.removes
        assert a.makes == b.makes
        assert a.conflicts_resolved == b.conflicts_resolved


def _shape(d):
    return (d.rule.name, len(d.removes), len(d.modifies), len(d.makes))


def batched(deltas):
    """Consecutive firings of one rule with one effect shape, folded into
    batches the way the evaluator builds them: the firings in order, each
    effect list their concatenation."""
    out = []
    for d in deltas:
        last = out[-1] if out else None
        if last is not None and _shape(last[0]) == _shape(d):
            last.append(d)
        else:
            out.append([d])
    return [
        FiringDelta(
            [d.inst for d in run],
            makes=[m for d in run for m in d.makes],
            removes=[w for d in run for w in d.removes],
            modifies=[m for d in run for m in d.modifies],
            writes=[w for d in run for w in d.writes],
            halt=any(d.halt for d in run),
        )
        for run in out
    ]


def _merged(deltas, policy, dedupe, origins):
    try:
        return merge_deltas(
            deltas, InterferencePolicy.of(policy), dedupe_makes=dedupe,
            origins=origins,
        )
    except InterferenceError as exc:
        return ("error", str(exc), exc.rules)


@st.composite
def batch_lists(draw):
    """Runs of firings of one rule with one effect shape (what the
    evaluator batches), contending over the same few targets."""
    deltas = []
    for run in range(draw(st.integers(1, 3))):
        rule = RULES[draw(st.sampled_from(sorted(RULES)))]
        n_rem, n_mod, n_make = (draw(st.integers(0, 2)) for _ in range(3))
        for _ in range(draw(st.integers(1, 3))):
            i = len(deltas)
            inst = Instantiation(rule, (WME("c", {"a": i}, i + 1),), {"x": i})
            d = FiringDelta([inst])
            d.removes = [draw(st.sampled_from(TARGETS)) for _ in range(n_rem)]
            d.modifies = [
                (draw(st.sampled_from(TARGETS)), {"v": draw(st.integers(0, 2))})
                for _ in range(n_mod)
            ]
            d.makes = [("out", {"n": draw(st.integers(0, 2))}) for _ in range(n_make)]
            deltas.append(d)
    return deltas


class TestBatches:
    @settings(max_examples=300, deadline=None)
    @given(
        deltas=st.one_of(delta_lists(), batch_lists()),
        policy=st.sampled_from(["error", "first", "merge"]),
        dedupe=st.booleans(),
        origins=st.booleans(),
    )
    def test_a_batch_merges_as_its_firings_one_by_one(
        self, deltas, policy, dedupe, origins
    ):
        assert _merged(batched(deltas), policy, dedupe, origins) == _merged(
            deltas, policy, dedupe, origins
        )

    @settings(max_examples=100, deadline=None)
    @given(deltas=delta_lists(), policy=st.sampled_from(["first", "merge"]))
    def test_origins_off_changes_nothing_else(self, deltas, policy):
        full = merge_deltas(deltas, InterferencePolicy.of(policy))
        bare = merge_deltas(deltas, InterferencePolicy.of(policy), origins=False)
        assert bare.make_origins == [] and len(full.make_origins) == len(full.makes)
        full.make_origins = []
        assert bare == full
