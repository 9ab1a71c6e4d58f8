"""The parallel substrate: what the paper ran on hardware, simulated.

PARULEL was evaluated on real multiprocessors; this reproduction substitutes
a deterministic simulation (see DESIGN.md §2):

- :mod:`repro.parallel.costmodel` — converts the match engines' operation
  counters into abstract time units (per-probe, per-token, per-fire,
  broadcast and barrier costs);
- :mod:`repro.parallel.partition` — rule-to-site assignment (round-robin
  and LPT on profiled weights) and **copy-and-constrain**, the paper's
  data-parallel transformation that splits one hot rule into k copies
  constrained to disjoint data partitions;
- :mod:`repro.parallel.simmachine` — :class:`SimMachine`, a barrier-
  synchronized P-site machine: one engine run whose matcher is split into
  one match engine per site, charged per cycle from the run's records;
  per-cycle time is the slowest site (makespan) plus serial redaction and
  barrier costs. Speedup(P) = T(1)/T(P) — Figure 1/2;
- :mod:`repro.parallel.distributed` — :class:`DistributedMachine`, the
  same run charged to PARADISER-style replicated sites over a
  :class:`NetworkModel`, with seeded site and message faults — Figure 5/6;
- :mod:`repro.parallel.threaded` — a real ``ThreadPoolExecutor`` match
  fan-out, included to exercise genuine concurrency and to document the
  GIL ceiling (Table 4);
- :mod:`repro.parallel.process` — the escape from that ceiling: a
  persistent ``multiprocessing`` worker pool, each worker holding the
  hash class of every rule's split attribute, with per-site WM replicas
  kept current by routed delta shipping (Table 4's ``process`` rows);
- :mod:`repro.parallel.stats` — speedup/efficiency series helpers.
"""

from repro._lazy import lazy_exports

#: Resolved on first use (PEP 562): the process pool a run spawns does not
#: load the simulators, the thread pool or the autotuner.
__getattr__ = lazy_exports(
    __name__,
    {
        "TunedPlan": "repro.parallel.autotune",
        "autotune": "repro.parallel.autotune",
        "hottest_rule": "repro.parallel.autotune",
        "CostModel": "repro.parallel.costmodel",
        "DistResult": "repro.parallel.distributed",
        "DistributedMachine": "repro.parallel.distributed",
        "NetworkModel": "repro.parallel.distributed",
        "Assignment": "repro.parallel.partition",
        "copy_and_constrain": "repro.parallel.partition",
        "copy_and_constrain_program": "repro.parallel.partition",
        "hash_partitions": "repro.parallel.partition",
        "lpt_assignment": "repro.parallel.partition",
        "profile_rule_weights": "repro.parallel.partition",
        "rehost_assignment": "repro.parallel.partition",
        "round_robin_assignment": "repro.parallel.partition",
        "ProcessMatchPool": "repro.parallel.process",
        "ProcessMatcher": "repro.parallel.process",
        "SimMachine": "repro.parallel.simmachine",
        "SimResult": "repro.parallel.simmachine",
        "SpeedupSeries": "repro.parallel.stats",
        "ThreadedMatchPool": "repro.parallel.threaded",
    },
)

__all__ = [
    "Assignment",
    "CostModel",
    "DistResult",
    "DistributedMachine",
    "NetworkModel",
    "ProcessMatchPool",
    "ProcessMatcher",
    "SimMachine",
    "SimResult",
    "SpeedupSeries",
    "ThreadedMatchPool",
    "TunedPlan",
    "autotune",
    "hottest_rule",
    "copy_and_constrain",
    "copy_and_constrain_program",
    "hash_partitions",
    "lpt_assignment",
    "profile_rule_weights",
    "rehost_assignment",
    "round_robin_assignment",
]
