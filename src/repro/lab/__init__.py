"""The laboratory: what the paper's figures compare PARULEL against.

A run never executes this package. It holds the paper-era comparands and
the cost models that reproduce the figures (see DESIGN.md §2):

- :mod:`repro.lab.rete` — the RETE matcher (and its beta-sharing
  variant), Figure 3 and Ablations A2/A5's comparand, with
  :func:`~repro.lab.rete.create_lab_matcher` resolving ``rete`` /
  ``rete-shared`` beside every product matcher name, and
  :func:`~repro.lab.rete.dot.rete_to_dot` drawing its network;
- :mod:`repro.lab.costmodel` — converts the match engines' operation
  counters into abstract time units (per-probe, per-token, per-fire,
  broadcast and barrier costs);
- :mod:`repro.lab.partition` — rule-to-site assignment (round-robin and
  LPT on profiled weights) and **copy-and-constrain** by source rewrite,
  the paper's data-parallel transformation that splits one hot rule into
  k copies constrained to disjoint data partitions;
- :mod:`repro.lab.advisor` — the static analyzer's connectivity-minimizing
  rule partition (``assignment="analysis"``);
- :mod:`repro.lab.simmachine` — :class:`SimMachine`, a barrier-
  synchronized P-site machine: one engine run whose matcher is split into
  one match engine per site, charged per cycle from the run's records;
  per-cycle time is the slowest site (makespan) plus serial redaction and
  barrier costs. Speedup(P) = T(1)/T(P) — Figure 1/2;
- :mod:`repro.lab.distributed` — :class:`DistributedMachine`, the same
  run charged to PARADISER-style replicated sites over a
  :class:`NetworkModel`, with seeded site and message faults — Figure 5/6;
- :mod:`repro.lab.threaded` — a ``ThreadPoolExecutor`` match fan-out that
  documents the GIL ceiling (Table 4);
- :mod:`repro.lab.stats` — speedup/efficiency series helpers.

No module outside this package imports it (``tests/test_surface.py``).
"""

from repro._lazy import lazy_exports

#: Resolved on first use (PEP 562): a figure loads the comparand it runs.
__getattr__ = lazy_exports(
    __name__,
    {
        "CostModel": "repro.lab.costmodel",
        "DistResult": "repro.lab.distributed",
        "DistributedMachine": "repro.lab.distributed",
        "NetworkModel": "repro.lab.distributed",
        "Assignment": "repro.lab.partition",
        "copy_and_constrain": "repro.lab.partition",
        "copy_and_constrain_program": "repro.lab.partition",
        "hash_partitions": "repro.lab.partition",
        "lpt_assignment": "repro.lab.partition",
        "profile_rule_weights": "repro.lab.partition",
        "rehost_assignment": "repro.lab.partition",
        "round_robin_assignment": "repro.lab.partition",
        "SimMachine": "repro.lab.simmachine",
        "SimResult": "repro.lab.simmachine",
        "SpeedupSeries": "repro.lab.stats",
        "ThreadedMatchPool": "repro.lab.threaded",
    },
)

__all__ = [
    "Assignment",
    "CostModel",
    "DistResult",
    "DistributedMachine",
    "NetworkModel",
    "SimMachine",
    "SimResult",
    "SpeedupSeries",
    "ThreadedMatchPool",
    "copy_and_constrain",
    "copy_and_constrain_program",
    "hash_partitions",
    "lpt_assignment",
    "profile_rule_weights",
    "rehost_assignment",
    "round_robin_assignment",
]
