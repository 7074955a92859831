"""Suite-wide guards.

Every test must leave the process with zero mapped shared-memory
segments: a forgotten ``close()``/``unlink()`` becomes a hard failure
in the offending test, not an interpreter-exit ResourceWarning nobody
reads.  The short grace poll lets reader threads finish releasing
ends that were closed at the very end of a test.

Likewise for threads: every runtime thread this codebase can start —
comm-node drivers, reader threads, the colocated host — must be gone when a test returns.  A shutdown path that forgets one
fails the offending test by name instead of silently accumulating
threads across the suite.
"""

import threading
import time

import pytest

from repro.transport.shm import live_segments

# Thread-name prefixes this runtime creates; anything else alive after
# a test (pytest internals, third-party pools) is not ours to police.
_RUNTIME_THREAD_PREFIXES = (
    "commnode-",
    "colocated-host",
    "tcp-reader-",
    "shm-reader-",
    "drain-",
    "attach",
    "accept-rank",
    "leaf-acceptor",
)


def _runtime_threads():
    return [
        t for t in threading.enumerate()
        if t.name.startswith(_RUNTIME_THREAD_PREFIXES)
    ]


@pytest.fixture(autouse=True)
def _no_leaked_shm_segments():
    yield
    deadline = time.monotonic() + 2.0
    while live_segments() and time.monotonic() < deadline:
        time.sleep(0.01)
    leaked = live_segments()
    assert not leaked, f"test leaked shared-memory segments: {leaked}"


@pytest.fixture(autouse=True)
def _no_leaked_runtime_threads():
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + 4.0
    while time.monotonic() < deadline:
        fresh = [t for t in _runtime_threads() if t not in before]
        if not fresh:
            return
        time.sleep(0.02)
    assert not fresh, (
        "test leaked runtime threads: "
        f"{sorted(t.name for t in fresh)}"
    )
