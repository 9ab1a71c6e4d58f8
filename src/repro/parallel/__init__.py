"""The process pool: what ``--matcher process`` runs.

:mod:`repro.parallel.process` fans TREAT matching out to a persistent
``multiprocessing`` worker pool. Every worker holds every rule and the
hash class of each rule's split attribute (copy-and-constrain at the alpha
layer), with per-site working-memory replicas kept current by routed delta
shipping. The simulators, partitioners and thread pool the figures use
live in :mod:`repro.lab`.
"""

from repro._lazy import lazy_exports

#: Resolved on first use (PEP 562).
__getattr__ = lazy_exports(
    __name__,
    {
        "ProcessMatchPool": "repro.parallel.process",
        "ProcessMatcher": "repro.parallel.process",
    },
)

__all__ = ["ProcessMatchPool", "ProcessMatcher"]
