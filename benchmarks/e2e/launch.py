"""Child-process launcher: ``python launch.py SIDE plain|traced CLI-ARGS...``.

Runs the real CLI (``repro.cli.main``) in this fresh process and leaves a
JSON side file the harness reads after reaping it. The plain mode does
exactly three things around ``main``: stamp ``time.monotonic()`` first,
wrap ``ParulelEngine.run`` with two stamps, and after ``main`` returns
write the stamps with this process's and its reaped workers' resource
usage. It holds no reference to anything the run built, so interpreter
exit costs what it costs the CLI. ``traced`` additionally installs the
span wrappers of ``spans.py`` and writes ``SIDE.spans`` before the side
file.
"""

import time

T0 = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _peak_rss_kb() -> int:
    """This program image's peak resident set. Not ``ru_maxrss``: that
    survives exec, so for a small run it reads the *harness's* size at
    fork time; ``VmHWM`` starts afresh with the image."""
    with open("/proc/self/status") as fh:
        return int(next(
            line for line in fh if line.startswith("VmHWM:")
        ).split()[1])


def main(argv):
    side, mode, cli_args = argv[0], argv[1], argv[2:]
    import repro.cli
    from repro.core import ParulelEngine

    stamps = {"start": T0, "imported": time.monotonic()}
    log = None
    if mode == "traced":
        import spans  # sibling module: this file runs as a script

        log = spans.SpanLog()
        spans.install(log, side + ".blackbox")
        stamps["installed"] = time.monotonic()

    run = ParulelEngine.run

    def stamped_run(self, *args, **kwargs):
        stamps["run_enter"] = time.monotonic()
        try:
            return run(self, *args, **kwargs)
        finally:
            stamps["run_exit"] = time.monotonic()

    ParulelEngine.run = stamped_run
    stamps["main_enter"] = time.monotonic()
    code = repro.cli.main(cli_args)
    stamps["main_exit"] = time.monotonic()

    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    record = {
        "stamps": stamps,
        "self": {"cpu_s": own.ru_utime + own.ru_stime,
                 "maxrss_kb": _peak_rss_kb()},
        "children": {"cpu_s": workers.ru_utime + workers.ru_stime,
                     "maxrss_kb": workers.ru_maxrss},
    }
    if log is not None:
        log.write(side + ".spans")
        record["extra"] = log.extra
        stamps["spans_written"] = time.monotonic()
    with open(side, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
