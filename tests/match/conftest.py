"""Shared fixtures: every behavioral match test runs on all three engines."""

import pytest

from repro.lab.rete import create_lab_matcher
from repro.lang.parser import parse_program
from repro.wm.memory import WorkingMemory
from repro.wm.template import TemplateRegistry


@pytest.fixture(params=["rete", "rete-shared", "treat", "naive"])
def engine_name(request):
    return request.param


@pytest.fixture
def setup(engine_name):
    """Returns (wm, matcher) for a program source string."""

    def _setup(src):
        prog = parse_program(src)
        wm = WorkingMemory(TemplateRegistry.from_program(prog))
        matcher = create_lab_matcher(engine_name, prog.rules, wm)
        return wm, matcher

    return _setup


def keys(matcher):
    """Sorted instantiation keys — engine-independent conflict-set image."""
    return sorted(i.key for i in matcher.instantiations())
