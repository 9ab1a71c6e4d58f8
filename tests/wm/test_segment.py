"""``_Seg``, the shared-memory segment under the columnar store and the
workers' flight rings, keeps the stdlib ``SharedMemory`` tracker protocol.

The resource tracker is a helper process shared by an interpreter and its
forked children; what it reports surfaces on the interpreter's stderr when
the interpreter exits. So the protocol tests run in a fresh interpreter
and read that stderr. The janitor's sweep of segments an owner left
behind is covered on this class by ``tests/resilience/test_janitor.py``
(a SIGKILLed flight-ring owner) and ``tests/resilience/test_chaos.py``
(a SIGKILLed columnar owner).
"""

import gc
import os
import subprocess
import sys
from multiprocessing import resource_tracker

import pytest

from repro.wm.columnar import _Seg

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="needs POSIX shared memory in /dev/shm"
)


def _fresh(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )


def _token() -> str:
    return f"pwm{os.getpid():08x}p{os.urandom(4).hex()}t"


def test_a_forked_attach_then_close_and_unlink_leave_nothing_to_report():
    name = _token()
    proc = _fresh(
        "import multiprocessing as mp\n"
        "from repro.wm.columnar import _Seg\n"
        "def child(name):\n"
        "    seg = _Seg(name)\n"
        "    seg.buf[0] = 7\n"
        "    seg.close()\n"
        "if __name__ == '__main__':\n"
        f"    seg = _Seg({name!r}, size=64, create=True)\n"
        f"    p = mp.get_context('fork').Process(target=child, args=({name!r},))\n"
        "    p.start(); p.join()\n"
        "    assert p.exitcode == 0 and seg.buf[0] == 7 and len(seg.buf) == 64\n"
        "    seg.close(); seg.unlink()\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert not os.path.exists(f"/dev/shm/{name}")


def test_a_segment_never_unlinked_is_reclaimed_by_the_tracker():
    """``register`` on create: the tracker knows the name, so a leak is
    reported and unlinked at exit exactly as the stdlib's would be."""
    name = _token()
    proc = _fresh(
        "from repro.wm.columnar import _Seg\n"
        f"_Seg({name!r}, size=64, create=True).close()\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert "leaked shared_memory objects" in proc.stderr
    assert not os.path.exists(f"/dev/shm/{name}")


def test_unlinking_a_name_already_swept_still_unregisters_it():
    """A janitor or chaos fault removed the name first: ``unlink`` must
    not raise, and must drop the tracker entry, or the tracker would warn
    and try to unlink the missing name at exit."""
    name = _token()
    proc = _fresh(
        "import _posixshmem\n"
        "from repro.wm.columnar import _Seg\n"
        f"seg = _Seg({name!r}, size=64, create=True)\n"
        f"_posixshmem.shm_unlink('/' + {name!r})\n"
        "seg.close(); seg.unlink()\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
def test_no_descriptor_outlives_close_or_collection():
    name = _token()
    resource_tracker.ensure_running()  # its pipe is the one fd meant to stay
    gc.collect()
    before = _open_fds()
    seg = _Seg(name, size=4096, create=True)
    view = seg.view(0, 64, "q")
    attached = _Seg(name)
    assert len(attached.buf) == 4096
    attached.close()
    seg.close()
    with pytest.raises(ValueError):  # released with the mapping
        view[0]
    assert _open_fds() == before
    # Dropped without close(): collection releases the mapping and its fd.
    _Seg(name)
    gc.collect()
    assert _open_fds() == before
    seg.unlink()
    assert not os.path.exists(f"/dev/shm/{name}")
