"""Surface ratchet: the exact user-settable surface, as literal lists.

Every independent option multiplies the configurations tests and
benchmarks must cover (ROADMAP aim 2), so adding or removing a CLI
argument, an ``EngineConfig`` field, a ``create_matcher`` keyword or an
``analyze`` parameter must show up as an edit to this file in the same
diff. So must a module that ``import repro.cli`` newly loads: every run
pays for it before ``main``.
And no product module may reach into :mod:`repro.lab`, the figures'
comparands.
"""

import argparse
import ast
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import _parse_args, build_parser, main
from repro.core import EngineConfig
from repro.match.interface import MATCHER_NAMES, create_matcher
from repro.repl import ReplSession, run_repl

CLI = {
    "run": [
        "program", "--facts", "--engine", "--matcher", "--workers",
        "--wm-backend", "--checkpoint-every", "--checkpoint", "--resume",
        "--strategy",
        "--interference", "--max-cycles", "--trace", "--stats",
        "--dump-wm", "--trace-out", "--metrics-out", "--no-flight-recorder",
        "--blackbox",
    ],
    "check": ["program"],
    "fmt": ["program"],
    "demo": ["name"],
    "dot": ["program", "--facts"],
    "explain": ["program", "--facts", "--wme", "--max-cycles", "--json"],
    "analyze": ["programs", "--facts", "--json", "--sarif", "--no-hints"],
    "repl": ["program", "--facts"],
    "profile": [
        "target", "--facts", "--matcher", "--workers", "--wm-backend",
        "--max-cycles", "--top", "--trace-out", "--metrics-out",
    ],
    "blackbox": [],
    "blackbox dump": ["file", "--limit"],
    "blackbox report": ["file", "--metrics-out"],
    "blackbox diff": ["left", "right"],
    "janitor": ["--shm-dir", "--dry-run", "--verbose"],
}

ENGINE_CONFIG = [
    "matcher", "interference", "dedupe_makes", "max_cycles",
    "max_meta_cycles", "track_provenance", "wm_backend",
    "flight_recorder", "blackbox_path",
]

CREATE_MATCHER = ["tracer", "metrics", "flightrec"]

#: ``repro.analysis.analyze`` runs every check; none can be switched off.
ANALYZE = ["program", "seed_classes", "name"]

#: The ``repro`` modules ``import repro.cli`` loads: what a default ``run``
#: executes. The packages' other public names resolve on first use
#: (PEP 562), so the baseline engine, the fault plans, the naive matcher,
#: the table helpers and provenance load when something asks.
CLI_IMPORTS = [
    "repro", "repro._lazy", "repro._record", "repro.cli", "repro.collector",
    "repro.core", "repro.core.actions", "repro.core.delta", "repro.core.engine",
    "repro.core.redaction", "repro.errors", "repro.lang",
    "repro.lang.analysis", "repro.lang.ast", "repro.lang.builder",
    "repro.lang.lexer", "repro.lang.parser", "repro.lang.pretty",
    "repro.match", "repro.match.alphaindex", "repro.match.compile",
    "repro.match.instantiation", "repro.match.interface", "repro.match.join",
    "repro.match.stats", "repro.obs", "repro.obs.metrics", "repro.obs.profile",
    "repro.obs.trace", "repro.wm", "repro.wm.io", "repro.wm.memory",
    "repro.wm.template", "repro.wm.wme",
]

#: The other modules ``import repro.cli`` adds to a fresh interpreter. No
#: class on that path is a dataclass, so ``dataclasses`` and what it
#: imports (``inspect``, ``ast``, ``dis``, ``tokenize``, ``copy``) stay
#: out, and so does ``json``: only writing a trace or metrics file loads it.
CLI_STDLIB_IMPORTS = ["__future__", "argparse", "gc", "gettext"]


#: What ``import repro.parallel.process`` adds on top of ``CLI_IMPORTS`` —
#: the pool a ``--matcher process`` run builds: its workers' matcher, the
#: flight ring and the columnar store — and not
#: ``concurrent.futures`` or ``logging``, which only the lab's thread pool
#: and simulators load.
POOL_IMPORTS = [
    "repro.match.treat", "repro.obs.flightrec", "repro.parallel",
    "repro.parallel.process", "repro.wm.columnar",
]


#: What ``run --matcher`` and ``profile --matcher`` offer, and all that
#: ``create_matcher`` builds. RETE is a figure's comparand in
#: :mod:`repro.lab`: no workload has it ahead of the default
#: (EXPERIMENTS.md).
MATCHER_CHOICES = ("treat", "naive", "process")
DEFAULT_MATCHER = "treat"


def _walk(parser, prefix=""):
    """``{subcommand path: [option string or positional dest, ...]}``."""
    out = {}
    mine = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                out.update(_walk(sub, f"{prefix} {name}".strip()))
        elif not isinstance(action, argparse._HelpAction):
            mine.append("/".join(action.option_strings) or action.dest)
    if prefix:
        out[prefix] = mine
    else:
        assert mine == []  # no top-level options
    return out


def test_cli_arguments_are_exactly_the_listed_ones():
    assert _walk(build_parser()) == CLI
    assert sum(len(args) for args in CLI.values()) == 54


def test_the_default_matcher_is_treat_wherever_one_is_defaulted():
    assert EngineConfig().matcher == DEFAULT_MATCHER
    assert inspect.signature(ReplSession).parameters["matcher"].default == DEFAULT_MATCHER
    assert inspect.signature(run_repl).parameters["matcher"].default == DEFAULT_MATCHER
    subcommands = next(
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ).choices
    for name in ("run", "profile"):
        (action,) = [
            a for a in subcommands[name]._actions if a.dest == "matcher"
        ]
        assert action.default == DEFAULT_MATCHER
        assert tuple(action.choices) == MATCHER_CHOICES
    assert MATCHER_NAMES == MATCHER_CHOICES


def test_engine_config_fields_are_exactly_the_listed_ones():
    parameters = inspect.signature(EngineConfig).parameters
    assert list(parameters) == ENGINE_CONFIG
    assert list(EngineConfig._fields) == ENGINE_CONFIG  # the blackbox header's keys
    assert len(ENGINE_CONFIG) == 9


def test_create_matcher_keywords_are_exactly_the_listed_ones():
    keywords = [
        p.name
        for p in inspect.signature(create_matcher).parameters.values()
        if p.kind is p.KEYWORD_ONLY
    ]
    assert keywords == CREATE_MATCHER
    assert len(CREATE_MATCHER) == 3


def test_analyze_parameters_are_exactly_the_listed_ones():
    from repro.analysis import analyze

    assert list(inspect.signature(analyze).parameters) == ANALYZE


def test_importing_the_cli_loads_exactly_the_listed_modules():
    """In a fresh interpreter (this one has imported everything)."""
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.cli\n"
            "print(*sorted(m for m in sys.modules"
            " if m == 'repro' or m.startswith('repro.')))",
        ],
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.split() == CLI_IMPORTS
    assert len(CLI_IMPORTS) == 34


def test_importing_the_cli_loads_exactly_the_listed_stdlib_modules():
    """What ``import repro.cli`` adds to ``sys.modules`` besides ``repro``
    itself, in a fresh interpreter (what ``site`` loaded does not count)."""
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys\n"
            "before = set(sys.modules)\n"
            "import repro.cli\n"
            "print(*sorted(m for m in set(sys.modules) - before"
            " if m != 'repro' and not m.startswith('repro.')))",
        ],
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.split() == CLI_STDLIB_IMPORTS


def test_importing_the_pool_loads_exactly_the_listed_modules():
    """In a fresh interpreter: the pool, not the whole parallel package."""
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.cli\n"
            "before = set(sys.modules)\n"
            "import repro.parallel.process\n"
            "new = set(sys.modules) - before\n"
            "print(*sorted(m for m in new if m.startswith('repro.')))\n"
            "print(*sorted(new & {'concurrent.futures', 'logging'}))",
        ],
        capture_output=True,
        text=True,
        check=True,
    )
    loaded, stdlib = out.stdout.split("\n")[:2]
    assert loaded.split() == POOL_IMPORTS
    assert stdlib == ""


def test_a_default_run_loads_only_the_default_matcher_on_top(tmp_path):
    """The lazy names must not all resolve the moment ``main`` runs."""
    program = tmp_path / "p.pl"
    program.write_text("(literalize a k)\n(p r (a ^k 1) --> (halt))\n")
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.cli\n"
            "before = set(sys.modules)\n"
            f"assert repro.cli.main(['run', {str(program)!r}]) == 0\n"
            "new = set(sys.modules) - before\n"
            "print(*sorted(m for m in new if m.startswith('repro.')))\n"
            "print('json' in new)",
        ],
        capture_output=True,
        text=True,
        check=True,
    )
    loaded, json_loaded = out.stdout.split("\n")[:2]
    assert loaded.split() == ["repro.match.treat", "repro.obs.flightrec"]
    # Only a black-box dump writes JSON; a clean run never loads it.
    assert json_loaded == "False"


SRC = Path(repro.__file__).parent
LAB = SRC / "lab"


def _named_modules(tree):
    """Every module a file names: ``import`` / ``from`` targets at any
    depth (function-local ones included) and the string values of its
    ``lazy_exports`` tables, which import on first use."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # A relative import would name a module this walk cannot see.
            assert node.level == 0, ast.dump(node)
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Call) and ast.unparse(node.func) == "lazy_exports":
            for table in node.args:
                if isinstance(table, ast.Dict):
                    yield from (ast.literal_eval(v) for v in table.values)


def test_no_product_module_imports_the_lab():
    """``repro.lab`` holds what only the figures run; a product module that
    imports it would put a comparand on a run path."""
    product = sorted(p for p in SRC.rglob("*.py") if LAB not in p.parents)
    assert len(product) > 50 and SRC / "cli.py" in product
    offenders = [
        f"{path.relative_to(SRC)}: {name}"
        for path in product
        for name in _named_modules(ast.parse(path.read_text(encoding="utf-8")))
        if name == "repro.lab" or name.startswith("repro.lab.")
    ]
    assert offenders == []


#: ``secrets`` and what it imports: ``hmac`` -> ``hashlib`` -> ``_hashlib``,
#: which maps OpenSSL's libcrypto into the process. Segment names need
#: only ``os.urandom``, so no run path may load any of them.
CRYPTO_MODULES = ["_hashlib", "hashlib", "hmac", "secrets"]

#: The code each import-ratchet path runs after ``import repro.cli``, with
#: ``{p}`` a program and ``{f}`` its two facts.
RATCHET_PATHS = {
    "import repro.cli": "",
    "default run": "assert repro.cli.main(['run', {p!r}]) == 0",
    "import repro.parallel.process": "import repro.parallel.process",
    "process columnar run": (
        "assert repro.cli.main(['run', {p!r}, '--facts', {f!r},"
        " '--matcher', 'process', '--workers', '2',"
        " '--wm-backend', 'columnar']) == 0"
    ),
}


@pytest.mark.parametrize("path", list(RATCHET_PATHS))
def test_no_run_path_loads_a_crypto_library(path, tmp_path):
    """In a fresh interpreter, counting only what the path itself loads
    (a set difference, so modules ``site`` imported do not count)."""
    program, facts = tmp_path / "p.pl", tmp_path / "f.facts"
    program.write_text("(literalize a k)\n(p r (a ^k 1) --> (halt))\n")
    facts.write_text("(a ^k 1)\n(a ^k 2)\n")
    code = RATCHET_PATHS[path].format(p=str(program), f=str(facts))
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys\n"
            "before = set(sys.modules)\n"
            "import repro.cli\n"
            f"{code}\n"
            f"print(*sorted((set(sys.modules) - before) & {set(CRYPTO_MODULES)!r}))",
        ],
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.split() == []


#: Command lines ``main`` parses with only the named subcommand's parser
#: built, the rejected ones included: ``--workers`` without ``process``
#: parses (``main`` refuses it, ``tests/test_cli.py``), the others exit 2
#: from argparse.
PARSE_CASES = [
    ["run", "p.pl"],
    ["run", "p.pl", "--facts", "f.facts", "--matcher", "process", "--workers", "2"],
    ["run", "p.pl", "--workers", "2"],
    ["run", "p.pl", "--max-cycles", "5", "--trace", "--stats", "--dump-wm", "o"],
    ["run", "p.pl", "--no-flight-recorder", "--interference", "merge"],
    ["run", "p.pl", "--matcher", "rete"],
    ["run", "p.pl", "--wm-backend", "nope"],
    ["run", "p.pl", "--max-cycles", "many"],
    ["run", "p.pl", "--bogus"],
    ["run"],
    ["run", "--help"],
    ["profile", "tc"],
    ["profile", "tc", "--matcher", "process", "--workers", "3", "--top", "4"],
    ["profile", "tc", "--workers", "2"],
    ["profile", "tc", "--matcher", "nope"],
    ["profile"],
]


def _parsed(parse, argv, capsys):
    try:
        outcome = parse(argv)
    except SystemExit as exc:
        outcome = ("exit", exc.code)
    return outcome, capsys.readouterr()


@pytest.mark.parametrize("argv", PARSE_CASES, ids=" ".join)
def test_the_one_subcommand_parser_parses_like_the_full_one(argv, capsys):
    assert _parsed(_parse_args, argv, capsys) == _parsed(
        build_parser().parse_args, argv, capsys
    )


def test_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in CLI:
        if " " not in name:
            assert f"    {name} " in out, name
