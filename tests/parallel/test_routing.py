"""The pool's delta routing: each worker receives only its share.

A delta-fed worker's replica must hold exactly the WMEs one of its alpha
memories can hold — by class and site condition: a class every CE of which
is keyed on one attribute (or the timestamp) at the one site its key maps
to, another class some CE reads at every site, a class no CE reads
nowhere. Removes and a respawned worker's catch-up snapshot route the same
way, and a worker asked to remove a timestamp it never held still fails.
The replicas are rebuilt here from the very bytes the parent ships, with
the worker's own strict ``WMDelta.apply_wire``.

A pool started with ``spawn`` — workers with their own string-hash seed —
must run a symbol-keyed program to the serial dump, byte for byte: the
residue cannot lean on ``hash()`` of a string.
"""

import os
import pickle
import random

import pytest

from repro.core import ParulelEngine
from repro.errors import MatchError
from repro.lab.rete import create_lab_matcher
from repro.lang.parser import parse_program
from repro.match.compile import alpha_test_passes, compile_rules
from repro.match.interface import Matcher
from repro.parallel.process import ProcessMatcher, ProcessMatchPool
from repro.wm.io import dumps
from repro.wm.memory import WMDelta, WorkingMemory
from repro.wm.template import TemplateRegistry

#: ``path`` is keyed on ``src`` by every CE that reads it; ``edge`` is
#: keyed by one rule and read whole by the other, so it goes everywhere;
#: ``tick`` has a one-CE rule of its own, keyed on the timestamp; ``noise``
#: is read by nothing.
SRC = """
(literalize edge src dst)
(literalize path src dst)
(literalize tick n)
(literalize noise v)
(p tc-init (edge ^src <a> ^dst <b>) -(path ^src <a> ^dst <b>)
 --> (make path ^src <a> ^dst <b>))
(p tc-extend (path ^src <a> ^dst <b>) (edge ^src <b> ^dst <c>)
 -(path ^src <a> ^dst <c>) --> (make path ^src <a> ^dst <c>))
(p count (tick ^n <n>) --> (halt))
"""

VALUES = ["n0", "n1", "n2", "été", "日本", 0, 1, 1.0, True, 2**70, "nil"]


def keys(insts):
    return sorted(i.key for i in insts)


class Shipped:
    """The replicas the parent's bytes build, one per site: every
    ``match`` request is replayed with the worker's ``apply_wire``, and a
    (re)spawned site starts from an empty replica, as its worker does."""

    def __init__(self, pool):
        self.replicas = {}
        self.removes = {site: 0 for site in pool.active_sites}
        for site in pool.active_sites:
            self._reset(site)
        send, spawn = pool._try_send_bytes, pool._spawn

        def send_and_replay(site, blob):
            msg = pickle.loads(blob)
            if msg[0] == "match":
                for wire in msg[1]:
                    WMDelta.apply_wire(*self.replicas[site], wire)
                    self.removes[site] += len(wire[1])
            return send(site, blob)

        def spawn_empty(site):
            self._reset(site)
            spawn(site)

        pool._try_send_bytes = send_and_replay
        pool._spawn = spawn_empty

    def _reset(self, site):
        self.replicas[site] = (WorkingMemory(), {})

    def held(self, site):
        return set(self.replicas[site][1])


def can_hold(compiled, wme):
    """Some CE of the site's share reads ``wme``'s class and its site
    conditions pass ``wme`` (its other alpha conditions are the memory's
    business, not the router's)."""
    return any(
        ce.class_name == wme.class_name
        and alpha_test_passes([c for c in ce.alpha_conds if c[0] == "site"], wme)
        for cr in compiled
        for ce in cr.ces
    )


def churn(wm, rng, live):
    for _ in range(rng.randint(4, 12)):
        op = rng.random()
        if op < 0.6 or not live:
            cls = rng.choice(["edge", "path", "path", "tick", "noise"])
            if cls in ("edge", "path"):
                attrs = {"src": rng.choice(VALUES), "dst": rng.choice(VALUES)}
            else:
                attrs = {"n" if cls == "tick" else "v": rng.choice(VALUES)}
            live.append(wm.make(cls, attrs))
        elif op < 0.8:
            wm.remove(live.pop(rng.randrange(len(live))))
        else:  # a modify
            old = live.pop(rng.randrange(len(live)))
            wm.remove(old)
            attrs = dict(old.attributes)
            attr = rng.choice(sorted(attrs))
            attrs[attr] = rng.choice(VALUES)
            live.append(wm.make(old.class_name, attrs))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_each_replica_holds_exactly_what_its_memories_can_hold(k):
    prog = parse_program(SRC)
    shares = [compile_rules(prog.rules, site=(k, s)) for s in range(k)]
    wm = WorkingMemory()
    rete = create_lab_matcher("rete", prog.rules, wm)
    rng = random.Random(k)
    live = []
    churn(wm, rng, live)
    with ProcessMatchPool(prog.rules, wm, k) as pool:
        shipped = Shipped(pool)
        for cycle in range(10):
            if cycle == 6:
                # A respawned worker is caught up with its share of the
                # live memory, not the whole of it.
                pool._procs[0].kill()
                pool._procs[0].join()
            assert keys(pool.conflict_set()) == keys(rete.instantiations())
            for site in range(k):
                want = {w.timestamp for w in wm if can_hold(shares[site], w)}
                assert shipped.held(site) == want, (cycle, site)
            held = [shipped.held(site) for site in range(k)]
            for wme in wm:
                at = sum(wme.timestamp in h for h in held)
                expected = {"edge": k, "path": 1, "tick": 1, "noise": 0}
                assert at == expected[wme.class_name], wme
            churn(wm, rng, live)
        assert pool.respawns == 1
    # Removes were shipped, each of a WME its site held (the replay is
    # the worker's strict one).
    assert sum(shipped.removes.values()) > 0


def test_a_remove_goes_where_its_add_went_and_nowhere_else():
    prog = parse_program(SRC)
    wm = WorkingMemory()
    with ProcessMatchPool(prog.rules, wm, 3) as pool:
        shipped = Shipped(pool)
        paths = [wm.make("path", src=f"s{i}", dst="x") for i in range(30)]
        noise = wm.make("noise", v=1)
        pool.conflict_set()
        before = dict(shipped.removes)
        for wme in paths[:10]:
            wm.remove(wme)
        wm.remove(noise)
        pool.conflict_set()
        sent = {site: shipped.removes[site] - before[site] for site in before}
        assert sum(sent.values()) == 10  # one site per path; none for noise
        for site in pool.active_sites:
            assert not shipped.held(site) & {w.timestamp for w in paths[:10]}


def test_an_unknown_timestamp_on_a_worker_is_still_an_error():
    with pytest.raises(KeyError):
        WMDelta.apply_wire(WorkingMemory(), {}, ((), (5,)))
    prog = parse_program(SRC)
    wm = WorkingMemory()
    wm.make("path", src="a", dst="b")
    with ProcessMatchPool(prog.rules, wm, 2) as pool:
        pool.conflict_set()
        bogus = pickle.dumps(("match", [((), (10**6,))], ()))
        assert pool._try_send_bytes(0, bogus)
        with pytest.raises(MatchError, match="KeyError"):
            pool._recv(0)


class _SpawnedPool(ProcessMatcher):
    """The process matcher over a pool whose workers are spawned: fresh
    interpreters, nothing inherited from the parent's heap."""

    def __init__(self, rules, wm):
        self.pool = ProcessMatchPool(rules, wm, 2, start_method="spawn")
        Matcher.__init__(self, rules, wm)


@pytest.mark.timeout(120)
def test_a_spawned_pool_over_symbol_keys_dumps_what_serial_does(monkeypatch):
    # The workers get a string-hash seed the parent does not have.
    seed = "4242" if os.environ.get("PYTHONHASHSEED") != "4242" else "4243"
    monkeypatch.setenv("PYTHONHASHSEED", seed)
    prog = parse_program(SRC)
    nodes = [f"nœud-{i}" for i in range(12)] + ["日本", "nil", "été"]

    def setup(engine):
        for a, b in zip(nodes, nodes[1:]):
            engine.make("edge", src=a, dst=b)
        engine.make("noise", v="x")

    serial = ParulelEngine(prog)
    setup(serial)
    want = serial.run()
    wm = WorkingMemory(TemplateRegistry.from_program(prog))
    matcher = _SpawnedPool(prog.rules, wm)
    matched = [0, 0]
    real = matcher.pool.conflict_set

    def count():
        # Each site's retained set as collected, before what fires leaves.
        merged = real()
        for site in (0, 1):
            matched[site] += len(matcher.pool._retained[site])
        return merged

    matcher.pool.conflict_set = count
    engine = ParulelEngine(prog, wm=wm, matcher=matcher)
    try:
        setup(engine)
        got = engine.run()
        assert (got.cycles, got.firings) == (want.cycles, want.firings)
        assert dumps(engine.wm) == dumps(serial.wm)
    finally:
        engine.close()
    # Both sites had matches to retain: the symbols really were split.
    assert want.firings > 0 and min(matched) > 0
