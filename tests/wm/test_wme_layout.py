"""The slot layout of :class:`~repro.wm.wme.WME`.

Guards: a differential against the dict-backed reference
(``dict_wme.DictWME``), a memory ratchet, a thread race on layout
interning, and a check that no ``--dump-wm`` output depends on the hash
seed (the WME hash formula is private to the layout).
"""

import gc
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import uuid

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.programs import REGISTRY
from repro.wm.wme import NIL, WME
from tests.wm.dict_wme import DictWME

# -- differential against the dict-backed reference ---------------------------

_NAMES = st.sampled_from(["a", "b", "c", "name", "x-y", "zz", "^odd", "ce1"])
_VALUES = st.one_of(
    st.sampled_from(["b1", "two words", "|", "", "Nil", "café"]),
    st.text(max_size=4),
    st.integers(min_value=-(2**31), max_value=2**31),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1, 1.0, True, 0, 0.0, False]),
    st.integers(min_value=2**64, max_value=2**200),
    st.just(float("nan")),
    st.just(NIL),
)
_ATTRS = st.dictionaries(_NAMES, _VALUES, max_size=6)
_PROBES = ["a", "b", "c", "name", "x-y", "zz", "^odd", "ce1", "absent", ""]


def _shown(wme) -> str:
    """``repr``, or the error text: a non-finite float has no surface form."""
    try:
        return repr(wme)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _same_reads(w: WME, r: DictWME) -> None:
    for name in _PROBES:
        assert w.get(name) is r.get(name)
        assert w[name] is r[name]
    # Tuple and dict comparisons test identity first, so a shared NaN
    # compares equal to itself here, as it does inside both classes.
    assert list(w.items()) == list(r.items())
    assert list(w.attributes.items()) == list(r.attributes.items())
    assert w.content_key() == r.content_key()
    assert _shown(w) == _shown(r)


@settings(max_examples=300, deadline=None)
@given(
    _ATTRS,
    _ATTRS,
    st.sampled_from(["c", "d"]),
    st.sampled_from(["c", "d"]),
    st.integers(1, 3),
    st.integers(1, 3),
    _NAMES,
    _VALUES,
)
def test_layout_matches_dict_reference(d1, d2, cls1, cls2, ts1, ts2, name, value):
    w1, r1 = WME(cls1, d1, ts1), DictWME(cls1, d1, ts1)
    w2, r2 = WME(cls2, d2, ts2), DictWME(cls2, d2, ts2)
    _same_reads(w1, r1)
    _same_reads(w2, r2)
    assert (w1 == w2) == (r1 == r2)
    if w1 == w2:
        assert hash(w1) == hash(w2)
    # Insertion order never matters.
    twin = WME(cls1, dict(reversed(list(d1.items()))), ts1)
    assert twin == w1 and hash(twin) == hash(w1)
    # with_updates: one update that adds or overwrites ``name``, one that
    # overwrites an existing attribute when there is one.
    updates = [{name: value}]
    if d1:
        updates.append({next(iter(d1)): value})
    for upd in updates:
        _same_reads(w1.with_updates(upd, 9), r1.with_updates(upd, 9))
        assert w1.with_updates(upd, 9) == WME(cls1, {**d1, **upd}, 9)


def test_one_slot_map_per_name_set():
    a = WME("path", {"src": "x", "dst": "y"}, 1)
    b = WME("path", {"dst": "q", "src": "p"}, 2)
    c = WME("edge", {"src": "x", "dst": "y"}, 3)
    assert a._slots is b._slots is c._slots
    assert WME("path", {"src": "x"}, 4)._slots is not a._slots


# -- memory ratchet -------------------------------------------------------------

N_RATCHET = 20_000
#: Bytes per three-attribute WME, traced. On Python 3.11 the dict-backed
#: layout (``tests/wm/dict_wme.py``) takes 532 and the slot layout 188.
MAX_BYTES_PER_WME = 260


def test_three_attribute_wme_bytes():
    attrs = [{"src": f"n{i}", "dst": f"m{i}", "len": i} for i in range(N_RATCHET)]
    stamps = list(range(1, N_RATCHET + 1))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        wmes = [WME("path", a, ts) for a, ts in zip(attrs, stamps)]
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(wmes) == N_RATCHET
    per_wme = (after - before) / N_RATCHET
    assert per_wme <= MAX_BYTES_PER_WME, f"{per_wme:.0f} B per WME"


# -- thread race on interning ---------------------------------------------------

N_THREADS = 8
ROUNDS = 400
TIME_BOUND_S = 3.0


def test_interning_races_make_one_layout():
    """Threads intern the same fresh name sets at once (a barrier starts
    each round, and each round's names are new to the process); WMEs with
    equal content must be equal, hash alike and share one slot map."""
    tag = uuid.uuid4().hex[:8]
    deadline = time.monotonic() + TIME_BOUND_S
    stop = []

    def check_deadline() -> None:  # runs once per round, before release
        if time.monotonic() > deadline:
            stop.append(True)

    barrier = threading.Barrier(N_THREADS, action=check_deadline, timeout=60)
    built = [[] for _ in range(N_THREADS)]

    def work(k: int) -> None:
        for r in range(ROUNDS):
            barrier.wait()
            if stop:
                break
            names = [f"{tag}-{r}-{j}" for j in range(4)]
            if k % 2:
                names.reverse()
            built[k].append(WME("c", {n: len(n) for n in names}, r))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(old)
    rounds = len(built[0])
    assert rounds > 0 and all(len(b) == rounds for b in built)
    for r in range(rounds):
        first = built[0][r]
        for other in built[1:]:
            w = other[r]
            assert w == first and hash(w) == hash(first)
            assert w._slots is first._slots


# -- hash-seed invariance ---------------------------------------------------------

_DUMP_ALL = """
import contextlib, io, pathlib, sys
from repro.cli import main
from repro.lang import format_program
from repro.programs import REGISTRY
from repro.wm.io import dumps
from repro.wm.memory import WorkingMemory

out = pathlib.Path(sys.argv[1])
for name, build in sorted(REGISTRY.items()):
    workload = build()
    wm = WorkingMemory()
    workload.setup(wm)
    (out / f"{name}.pl").write_text(format_program(workload.program))
    (out / f"{name}.facts").write_text(dumps(wm))
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", str(out / f"{name}.pl"),
                     "--facts", str(out / f"{name}.facts"),
                     "--dump-wm", str(out / f"{name}.wm")])
    assert code == 0, (name, code)
"""


def test_dump_wm_independent_of_hash_seed(tmp_path):
    dumps = {}
    for seed in ("0", "12345"):
        out = tmp_path / seed
        out.mkdir()
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), PYTHONHASHSEED=seed)
        done = subprocess.run(
            [sys.executable, "-c", _DUMP_ALL, str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        dumps[seed] = {p.name: p.read_bytes() for p in sorted(out.glob("*.wm"))}
    assert len(dumps["0"]) == len(REGISTRY)
    assert dumps["0"] == dumps["12345"]
