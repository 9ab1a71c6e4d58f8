"""Public-API surface tests: the names README documents must exist and the
one-screen quickstart must run exactly as printed."""

import inspect

import pytest

import repro


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    @pytest.mark.parametrize(
        "name",
        [
            "ParulelEngine",
            "OPS5Engine",
            "EngineConfig",
            "WorkingMemory",
            "WME",
            "parse_program",
            "analyze_program",
            "format_program",
            "create_matcher",
        ],
    )
    def test_core_entry_points(self, name):
        assert hasattr(repro, name)

    def test_errors_form_a_hierarchy(self):
        for name in (
            "LexError",
            "ParseError",
            "SemanticError",
            "MatchError",
            "ExecutionError",
            "InterferenceError",
            "WorkingMemoryError",
            "CycleLimitExceeded",
        ):
            exc = getattr(repro, name)
            assert issubclass(exc, repro.ReproError), name

    def test_lazily_exported_names_resolve_to_their_definitions(self):
        """The packages that name their API without importing it (PEP 562)
        export what they did when the imports were eager."""
        from repro import core, lab, match, obs, parallel, resilience

        for package in (repro, core, lab, match, obs, parallel, resilience):
            for name in package.__all__:
                value = getattr(package, name)
                home = getattr(value, "__module__", None)
                if name != "__version__" and home is not None:
                    assert home.startswith("repro."), (package.__name__, name)
                # Resolved once, then a plain attribute.
                assert package.__dict__[name] is value
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            core.nope
        with pytest.raises(ImportError):
            from repro.match import nope  # noqa: F401

    def test_subpackage_apis(self):
        from repro import parallel, programs, tools, wm

        for name in parallel.__all__:
            assert hasattr(parallel, name), f"parallel.{name}"
        for name in tools.__all__:
            assert hasattr(tools, name), f"tools.{name}"
        for name in programs.__all__:
            assert hasattr(programs, name), f"programs.{name}"
        for name in wm.__all__:
            assert hasattr(wm, name), f"wm.{name}"


class TestReadmeQuickstart:
    def test_module_docstring_example(self):
        # The example in repro/__init__.py's docstring, executed verbatim.
        src = """
        (literalize count value)
        (p bump
            (count ^value {<v> < 5})
            -->
            (modify 1 ^value (compute <v> + 1)))
        """
        engine = repro.ParulelEngine(repro.parse_program(src))
        engine.make("count", value=0)
        engine.run()
        assert engine.wm.find("count", value=5)

    def test_readme_quickstart(self):
        src = """
        (literalize task name priority status)
        (literalize resource name owner)
        (p grab
            (task ^name <t> ^priority <pr> ^status waiting)
            (resource ^name <res> ^owner nil)
            -->
            (modify 2 ^owner <t>)
            (modify 1 ^status running))
        (mp prefer-higher-priority
            (instantiation ^rule grab ^id <i> ^pr <p1> ^res <r>)
            (instantiation ^rule grab ^id {<j> <> <i>} ^pr < <p1> ^res <r>)
            -->
            (redact <j>))
        """
        engine = repro.ParulelEngine(repro.parse_program(src))
        engine.make("task", name="alpha", priority=1, status="waiting")
        engine.make("task", name="beta", priority=5, status="waiting")
        engine.make("resource", name="gpu", owner="nil")
        engine.run()
        assert engine.wm.find("resource")[0].get("owner") == "beta"


class TestDocstringCoverage:
    def test_public_modules_documented(self):
        import pkgutil

        import repro as pkg

        undocumented = []
        for info in pkgutil.walk_packages(pkg.__path__, prefix="repro."):
            module = __import__(info.name, fromlist=["_"])
            if not (module.__doc__ or "").strip():
                undocumented.append(info.name)
        assert undocumented == []

    def test_public_classes_documented(self):
        from repro import baseline, core, match, parallel

        for ns in (core, baseline, parallel, match):
            for name in ns.__all__:
                obj = getattr(ns, name)
                if inspect.isclass(obj) or inspect.isfunction(obj):
                    assert (obj.__doc__ or "").strip(), f"{ns.__name__}.{name}"
