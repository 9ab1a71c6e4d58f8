"""Counter attribution consistency across match engines.

``alpha_tests`` is bumped globally only — never per rule — because alpha
memories (and the shared alpha cache) serve every rule at once. This was
inconsistent between matchers before the join-kernel work; these tests pin
the contract for all of them, indexed and not.
"""

import pytest

from repro.lab.rete import create_lab_matcher
from repro.lang.builder import ProgramBuilder, v
from repro.wm.memory import WorkingMemory

from tests.nested_loop import SERIAL_MATCHERS


def _program():
    pb = ProgramBuilder()
    pb.rule("join").ce("a", k=v("x")).ce("b", k=v("x")).halt()
    pb.rule("blocked").ce("a", k=v("x")).neg("c", k=v("x")).halt()
    return pb.build(analyze=False)


def _churn(wm):
    live = []
    for i in range(6):
        live.append(wm.make("a", k=i % 2))
        live.append(wm.make("b", k=i % 3))
    wm.make("c", k=0)
    for wme in live[:6:2]:  # churn some (not all) of the "a" WMEs
        wm.remove(wme)


class TestAlphaTestAttribution:
    @pytest.mark.parametrize("name", list(SERIAL_MATCHERS))
    @pytest.mark.parametrize("indexed", [True, False])
    def test_alpha_tests_never_rule_attributed(self, name, indexed):
        program = _program()
        wm = WorkingMemory()
        matcher = SERIAL_MATCHERS[name](program.rules, wm, indexed=indexed)
        _churn(wm)
        matcher.instantiations()  # force lazy matchers to do the work
        stats = matcher.stats
        assert stats.totals["alpha_tests"] > 0, (
            f"{name}: expected alpha work to be counted at all"
        )
        offenders = {
            rule: bucket["alpha_tests"]
            for rule, bucket in stats.per_rule.items()
            if bucket.get("alpha_tests")
        }
        assert not offenders, (
            f"{name} (indexed={indexed}): alpha_tests attributed per-rule: "
            f"{offenders}"
        )

    @pytest.mark.parametrize("name", list(SERIAL_MATCHERS))
    def test_join_work_is_rule_attributed(self, name):
        """The per-rule channel itself still works: join-level counters do
        land in per-rule buckets."""
        program = _program()
        wm = WorkingMemory()
        matcher = create_lab_matcher(name, program.rules, wm)
        _churn(wm)
        matcher.instantiations()
        per_rule_join = sum(
            bucket.get("join_probes", 0)
            + bucket.get("join_checks", 0)
            + bucket.get("tokens", 0)
            + bucket.get("instantiations", 0)
            for bucket in matcher.stats.per_rule.values()
        )
        assert per_rule_join > 0, f"{name}: no join work attributed to any rule"
