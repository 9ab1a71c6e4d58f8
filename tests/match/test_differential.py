"""Property-based differential testing: RETE ≡ TREAT ≡ naive.

Hypothesis generates random rule programs (joins, predicates, negation) and
random add/remove scripts; after every step all three engines must report
identical conflict sets. This is the strongest correctness evidence for the
incremental engines — any divergence in alpha sharing, hash-join indexing,
negative-node counting, or TREAT's seeded re-enumeration shows up here.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.lab.rete import create_lab_matcher
from repro.lang.builder import ProgramBuilder, conj, gt, lt, ne, v
from repro.match.interface import MATCHER_NAMES
from repro.programs import REGISTRY
from repro.wm.columnar import ColumnarWorkingMemory
from repro.wm.memory import WorkingMemory

CLASSES = ["a", "b", "c"]
ATTRS = ["k", "m"]
VALUES = [0, 1, 2]

#: Every backend a run can choose, behind the RETE comparands the figures
#: still rely on.
BACKENDS = ("rete", "rete-shared") + MATCHER_NAMES


@st.composite
def rule_programs(draw):
    """1-3 rules, each 1-3 CEs over shared classes, optional negation."""
    pb = ProgramBuilder()
    n_rules = draw(st.integers(1, 3))
    for r in range(n_rules):
        rb = pb.rule(f"r{r}")
        n_ces = draw(st.integers(1, 3))
        bound = []
        for i in range(n_ces):
            cls = draw(st.sampled_from(CLASSES))
            # bool() matters: "i > 0 and bound and ..." would alias the
            # (mutable) bound list when it is empty, becoming truthy later.
            negated = bool(i > 0 and bound and draw(st.booleans()))
            tests = {}
            for attr in ATTRS:
                choice = draw(st.integers(0, 4))
                if choice == 0:
                    continue  # no test on this attribute
                if choice == 1:
                    tests[attr] = draw(st.sampled_from(VALUES))
                elif choice == 2 and bound:
                    tests[attr] = v(draw(st.sampled_from(bound)))
                elif choice == 3 and bound:
                    op = draw(st.sampled_from([ne, lt, gt]))
                    tests[attr] = op(v(draw(st.sampled_from(bound))))
                elif not negated:
                    var = f"v{r}_{i}_{attr}"
                    if draw(st.booleans()):
                        tests[attr] = v(var)
                    else:
                        tests[attr] = conj(v(var), gt(-1))
                    bound.append(var)
                else:
                    tests[attr] = draw(st.sampled_from(VALUES))
            if negated and not tests:
                tests["k"] = draw(st.sampled_from(VALUES))
            if negated:
                rb.neg(cls, **tests)
            else:
                rb.ce(cls, **tests)
        rb.halt()
    return pb.build(analyze=False)


#: Script steps: ("add", class, k, m) or ("remove", index-into-live).
script_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.sampled_from(CLASSES),
            st.sampled_from(VALUES),
            st.sampled_from(VALUES),
        ),
        st.tuples(st.just("remove"), st.integers(0, 10_000)),
    ),
    min_size=1,
    max_size=25,
)


def conflict_image(matcher):
    return sorted(i.key for i in matcher.instantiations())


class TestDifferential:
    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(program=rule_programs(), script=script_steps)
    def test_engines_agree_at_every_step(self, program, script):
        wm = WorkingMemory()
        matchers = [
            create_lab_matcher(name, program.rules, wm)
            for name in ("rete", "rete-shared", "treat", "naive")
        ]
        live = []
        for step in script:
            if step[0] == "add":
                _tag, cls, k, mval = step
                live.append(wm.make(cls, k=k, m=mval))
            else:
                if not live:
                    continue
                wme = live.pop(step[1] % len(live))
                wm.remove(wme)
            images = [conflict_image(m) for m in matchers]
            assert all(img == images[0] for img in images), (
                f"divergence after {step}: {images}"
            )

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(program=rule_programs(), script=script_steps)
    def test_incremental_equals_batch_rebuild(self, program, script):
        """After the whole script, an incrementally maintained RETE must
        equal a RETE freshly built over the final memory."""
        wm = WorkingMemory()
        incremental = create_lab_matcher("rete", program.rules, wm)
        live = []
        for step in script:
            if step[0] == "add":
                _tag, cls, k, mval = step
                live.append(wm.make(cls, k=k, m=mval))
            elif live:
                wm.remove(live.pop(step[1] % len(live)))
        fresh_wm = WorkingMemory()
        for wme in wm.snapshot():
            fresh_wm.add(wme)
        fresh = create_lab_matcher("rete", program.rules, fresh_wm)
        assert conflict_image(incremental) == conflict_image(fresh)

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(program=rule_programs(), script=script_steps)
    def test_columnar_store_agrees_with_dict_store(self, program, script):
        """The whole differential script run over the columnar store must
        land every serial matcher on the same conflict set as over the
        dict store — the ``--wm-backend columnar`` guarantee."""
        col_wm = ColumnarWorkingMemory()
        dict_wm = WorkingMemory()
        try:
            col_matchers = [
                create_lab_matcher(name, program.rules, col_wm)
                for name in ("rete", "rete-shared", "treat", "naive")
            ]
            dict_rete = create_lab_matcher("rete", program.rules, dict_wm)
            live_col, live_dict = [], []
            for step in script:
                if step[0] == "add":
                    _tag, cls, k, mval = step
                    live_col.append(col_wm.make(cls, k=k, m=mval))
                    live_dict.append(dict_wm.make(cls, k=k, m=mval))
                else:
                    if not live_col:
                        continue
                    idx = step[1] % len(live_col)
                    col_wm.remove(live_col.pop(idx))
                    dict_wm.remove(live_dict.pop(idx))
                expected = conflict_image(dict_rete)
                for matcher in col_matchers:
                    assert conflict_image(matcher) == expected, (
                        f"columnar divergence after {step}"
                    )
        finally:
            col_wm.close()


class TestAllBackendsOnRealPrograms:
    """Every registered backend — including the multiprocessing one — must
    produce the identical instantiation set on the bundled benchmark
    programs' initial working memories."""

    @pytest.mark.parametrize("name", ["monkey", "waltz", "tc"])
    def test_backends_agree_on_workload(self, name):
        workload = REGISTRY[name]()
        wm = WorkingMemory()
        matchers = [
            create_lab_matcher(backend, workload.program.rules, wm)
            for backend in BACKENDS
        ]
        try:
            workload.setup(wm)
            images = [conflict_image(m) for m in matchers]
            assert images[0], f"{name}: initial conflict set unexpectedly empty"
            for backend, image in zip(BACKENDS, images):
                assert image == images[0], (
                    f"{name}: backend {backend!r} diverges from "
                    f"{BACKENDS[0]!r}"
                )
        finally:
            for matcher in matchers:
                if hasattr(matcher, "close"):
                    matcher.close()

    @pytest.mark.parametrize("name", ["monkey", "waltz", "tc"])
    def test_backends_agree_after_retractions(self, name):
        """Still identical after retracting part of the initial memory —
        exercises every backend's remove path on real rule shapes."""
        workload = REGISTRY[name]()
        wm = WorkingMemory()
        matchers = [
            create_lab_matcher(backend, workload.program.rules, wm)
            for backend in BACKENDS
        ]
        try:
            workload.setup(wm)
            victims = wm.snapshot()[::3]
            for wme in victims:
                wm.remove(wme)
            images = [conflict_image(m) for m in matchers]
            for backend, image in zip(BACKENDS, images):
                assert image == images[0], (
                    f"{name}: backend {backend!r} diverges after retractions"
                )
        finally:
            for matcher in matchers:
                if hasattr(matcher, "close"):
                    matcher.close()
