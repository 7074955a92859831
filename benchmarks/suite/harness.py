"""Shared measurement helpers for the live-overlay benchmark suite.

Everything here observes the program from outside: wall-clock spans
around public calls, deltas of ``Network.stats()`` counters, and the
Chrome JSON that ``Network.trace_chrome_json()`` exports.  Nothing in
``src/`` is edited or monkey-patched.
"""

from __future__ import annotations

import ctypes
import gc
import json
import os
import resource
import signal
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

SUITE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parents[1]
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = SUITE_DIR / "out"

now = time.perf_counter

#: A timed wave or query slower than this is counted as a stall: the
#: event loop's 50 ms IDLE_TIMEOUT safety cap shows up as waves that
#: take a whole multiple of it, far above any healthy wave here.
STALL_MS = 40.0

#: Figure-3 stage names as `repro.obs.tracing` emits them.
FIG3_STAGES = (
    "recv", "demux", "sync_wait", "filter", "rebatch", "send", "pipeline_fill",
)


def export_pythonpath() -> None:
    """Put ``src`` on ``sys.path`` and in ``PYTHONPATH``.

    ``mrnet_commnode`` children are started with ``sys.executable`` and
    inherit the environment; with only a ``sys.path.insert`` they cannot
    import ``repro`` and ``transport="process"`` dies with "root child
    never connected".
    """
    src = str(SRC_DIR)
    if src not in sys.path:
        sys.path.insert(0, src)
    parts = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    if src not in parts:
        os.environ["PYTHONPATH"] = os.pathsep.join([src] + parts)


# -- statistics ---------------------------------------------------------------


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100) of *values*."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, -(-len(ordered) * p // 100))  # ceil
    return ordered[int(rank) - 1]


median = statistics.median


def windowed_rate(stamps: Sequence[float], took: Optional[Sequence[float]],
                  t0: float, t1: float) -> float:
    """Operations per second: the median over the ~1 s windows of ``[t0, t1]``.

    An operation counts in the window its stamp (in ``[t0, t1]``) falls in.  With *took*
    (closed loop, one operation at a time: the seconds each one took) a
    window's rate is its operations over the time they took, so ten
    100 ms waves in a window do not quantise to 9, 10 or 11; without it
    (operations overlap) a window's rate is its count over its width.
    Every window counts and none is picked: the median says what a
    typical second of the run delivered, and a second in which the
    machine or the program stalled moves it only once such seconds are
    the majority.
    """
    n = max(1, int(t1 - t0))
    width = (t1 - t0) / n
    count = [0] * n
    spent = [0.0] * n
    for i, stamp in enumerate(stamps):
        k = min(int((stamp - t0) / width), n - 1)
        count[k] += 1
        spent[k] += took[i] if took is not None else 0.0
    if took is None:
        return median(c / width for c in count)
    return median(c / s for c, s in zip(count, spent) if c)


# -- benchmark-side spans -----------------------------------------------------


class Spans:
    """In-memory spans around the driver's own calls.

    One tuple per span: ``(name, start, end, parent, op_id)``; *parent*
    is the name of the enclosing span (``"wave"``/``"query"``) and
    *op_id* the wave or query number, so spans of one operation share
    an identifier.  Written as Chrome trace JSON when the run ends.
    """

    def __init__(self) -> None:
        self.rows: List[tuple] = []

    def add(self, name: str, t0: float, t1: float, parent: str, op_id: int) -> None:
        self.rows.append((name, t0, t1, parent, op_id))

    def durations(self, name: str) -> List[float]:
        return [t1 - t0 for n, t0, t1, _p, _i in self.rows if n == name]

    def mean_us(self, name: str) -> float:
        d = self.durations(name)
        return statistics.fmean(d) * 1e6 if d else 0.0

    def write_chrome(self, path: Path) -> None:
        origin = min((r[1] for r in self.rows), default=0.0)
        events = [
            {
                "name": name,
                "ph": "X",
                "pid": 1,
                "tid": 1 if parent == "" else 2,
                "ts": (t0 - origin) * 1e6,
                "dur": max((t1 - t0) * 1e6, 0.01),
                "args": {"parent": parent, "op": op_id},
            }
            for name, t0, t1, parent, op_id in self.rows
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))


# -- Network.stats() deltas ---------------------------------------------------


def flat_counters(stats: Dict[str, dict]) -> Dict[str, Dict[str, float]]:
    """Numeric series per process from one ``Network.stats()`` result."""
    out: Dict[str, Dict[str, float]] = {}
    for proc, series in stats.items():
        if proc in ("meta", "recovery") or not isinstance(series, dict):
            continue
        out[proc] = {
            k: v for k, v in series.items() if isinstance(v, (int, float))
        }
    return out


def stats_delta(before: Dict[str, dict], after: Dict[str, dict]) -> Dict[str, float]:
    """Counter deltas summed over every process, plus ``fe.*`` for the root."""
    b, a = flat_counters(before), flat_counters(after)
    total: Dict[str, float] = {}
    for proc, series in a.items():
        base = b.get(proc, {})
        for key, value in series.items():
            d = value - base.get(key, 0)
            total[key] = total.get(key, 0) + d
            if proc.startswith("0:"):
                total["fe." + key] = d
    return total


def eventloop_per_op(delta: Dict[str, float], ops: int) -> Dict[str, float]:
    ops = max(ops, 1)
    fe_msgs = delta.get("fe.messages_in", 0)
    return {
        "transport.eventloop.wakeups_per_wave": delta.get("loop_wakeups", 0) / ops,
        "transport.eventloop.writes_per_wave": delta.get("loop_writes", 0) / ops,
        "transport.eventloop.wire_bytes_per_wave": delta.get("loop_bytes_out", 0) / ops,
        "core.batching.pkts_per_msg": (
            delta.get("fe.packets_in", 0) / fe_msgs if fe_msgs else 0.0
        ),
    }


# -- Figure-3 stage times from the program's own trace ------------------------


def fig3_per_op(chrome_json: str, ops: int) -> Dict[str, float]:
    """Busy µs per operation and stage, summed over every traced node."""
    busy = {stage: 0.0 for stage in FIG3_STAGES}
    for event in json.loads(chrome_json)["traceEvents"]:
        if event.get("ph") == "X" and event["name"] in busy:
            busy[event["name"]] += event["dur"]
    ops = max(ops, 1)
    return {f"fig3.{stage}_us": total / ops for stage, total in busy.items()}


# -- set-up timing ------------------------------------------------------------


def median_setup(build: Callable[[], object], teardown: Callable[[object], None], repeats: int):
    """Build *repeats* times; keep the last, tear the others down.

    *build* returns a context whose ``setup_s`` attribute (or key) is
    the time from the ``Network(...)`` call to the first verified wave.
    Returns ``(last_context, median_setup_s, all_setup_times)``.
    """
    times: List[float] = []
    ctx = None
    for k in range(repeats):
        ctx = build()
        times.append(ctx.setup_s)
        if k < repeats - 1:
            teardown(ctx)
            # A torn-down tree is cyclic garbage (~0.5 MB): collected here,
            # untimed, so that peak memory does not grow with *repeats*.
            gc.collect()
    return ctx, median(times), times


# -- resource census ----------------------------------------------------------


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited child."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024.0


def leaked_resources(grace: float = 2.0) -> List[str]:
    """Threads, child processes and shm segments that outlived teardown."""
    from repro.transport.shm import live_segments

    deadline = time.monotonic() + grace
    while True:
        threads = [
            t.name for t in threading.enumerate()
            if t is not threading.main_thread() and t.is_alive()
        ]
        children = _child_processes()
        segments = live_segments()
        if not (threads or children or segments) or time.monotonic() > deadline:
            break
        time.sleep(0.02)
    leaks = [f"thread:{name}" for name in threads]
    leaks += [f"child:{cmd}" for cmd in children]
    leaks += [f"shm:{name}" for name in segments]
    return leaks


def child_pids() -> List[int]:
    """This process's direct children, zombies included (Linux only)."""
    pids: List[int] = []
    try:
        for task in Path("/proc/self/task").iterdir():
            pids += [int(pid) for pid in (task / "children").read_text().split()]
    except OSError:
        pass  # no /proc, or the thread ended between the two reads
    return pids


def _child_processes() -> List[str]:
    """Command lines of this process's direct children.

    Python's own shared-memory resource tracker (started by the shm
    transport probe) is a child for the life of the interpreter and is
    not a leak; ``stop_descendants`` ends it.
    """
    out: List[str] = []
    for pid in child_pids():
        try:
            raw = Path(f"/proc/{pid}/cmdline").read_bytes()
        except OSError:
            continue  # exited between the two reads
        cmd = raw.replace(b"\0", b" ").decode(errors="replace").strip()
        if "resource_tracker" not in cmd:
            out.append(f"{pid}:{cmd[:80] or 'zombie'}")
    return out


# -- no process outlives a run ------------------------------------------------


def adopt_orphans() -> None:
    """Make every descendant this process orphans its own child.

    A comm-node whose parent died, or the grandchildren of a run that
    ``run.py`` killed after its time limit, would otherwise go to init,
    where nothing here can wait for them.  Linux only; elsewhere nothing
    happens.
    """
    pr_set_child_subreaper = 36
    try:
        ctypes.CDLL(None, use_errno=True).prctl(pr_set_child_subreaper, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def stop_descendants() -> None:
    """Stop every process this one started and wait until each has ended.

    Runs on every path out of ``main``.  Python's shared-memory resource
    tracker (the shm transport starts it) ends by itself once this
    process is gone, but only *after* that, so whoever waited for this
    process could still see it; it is stopped and waited for here.  After
    a clean teardown nothing else is left, and the leak census has
    already failed the run if something was; whatever is, is killed.
    """
    try:
        from multiprocessing import resource_tracker
        resource_tracker._resource_tracker._stop()
    except Exception:
        pass  # not started, or an interpreter without _stop(): killed below
    while True:
        pids = child_pids()
        if not pids:
            return
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        for pid in pids:
            try:
                os.waitpid(pid, 0)
            except OSError:
                pass  # a Popen object reaped it first


# -- result plumbing ----------------------------------------------------------


class Checker:
    """Counts attempted and failed operations; every output goes through it."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def ok(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, why: str, n: int = 1) -> None:
        self.attempted += n
        self.failed += n
        if len(self.notes) < 20:
            self.notes.append(why)

    def expect(self, cond: bool, why: str) -> bool:
        if cond:
            self.ok()
        else:
            self.fail(why)
        return cond


def stall_frac(latencies_s: Sequence[float]) -> float:
    if not latencies_s:
        return 0.0
    return sum(1 for x in latencies_s if x * 1e3 > STALL_MS) / len(latencies_s)
