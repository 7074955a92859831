"""One benchmark for the live overlay.

Two ways in, one code path:

``run.py --workload W --seed N --seconds S --trace 0|1``
    Run one workload in this (fresh) process, check every output, print
    every metric by name with its unit, and finish with one JSON line
    ``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
    metrics of BENCHMARK.json with ``--trace 0``, the per-layer metrics
    with ``--trace 1``.

``run.py --seed N [--traced] [--runs R] [--smoke] [--out F]``
    Run every workload, each in its own fresh subprocess of the form
    above, print one table and optionally write all runs to *F* (the
    input of ``compare.py``).

Exit status is non-zero when any output check failed, any operation
failed, or a thread, child process or shm segment outlived teardown.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

SUITE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parents[1]
SMOKE_SECONDS = 0.5  # same shapes, about 1/20 of the counts

sys.path.insert(0, str(SUITE_DIR))
import harness  # noqa: E402  (standard library only: starts no thread before the pin)


def load_spec() -> dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def parse_args(argv=None) -> argparse.Namespace:
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--traced", action="store_true",
                   help="all-workloads mode: also make the traced (per-layer) run")
    p.add_argument("--runs", type=int, default=1,
                   help="all-workloads mode: repeat with seeds seed..seed+runs-1")
    p.add_argument("--smoke", action="store_true",
                   help=f"measure for {SMOKE_SECONDS}s per workload instead of --seconds")
    p.add_argument("--out", type=Path, help="all-workloads mode: write every run as JSON")
    args = p.parse_args(argv)
    if args.smoke:
        args.seconds = SMOKE_SECONDS
    return args


# -- one workload, in this process --------------------------------------------


#: Workloads whose tree nodes are OS processes.  They exist to measure
#: real process parallelism, so they keep every CPU the machine gives;
#: every other workload hosts its nodes on threads that share one GIL.
PROCESS_HOSTED = frozenset({"stream_process"})


def pin_to_one_cpu() -> frozenset:
    """Confine this process and the threads it starts to one CPU.

    Must run before anything starts a thread (numpy included): affinity
    is inherited at creation.  Every node of a thread-hosted tree shares
    one GIL, so a second core adds no throughput, only cross-CPU
    wake-ups, and on a small VM those go through the hypervisor: they
    were the largest source of run-to-run spread (the traced run of
    ``rtt_tcp`` measures the same tree with the pin lifted:
    ``runtime.unpinned.rtt_tcp_p50_ms``).  Returns the CPUs the process
    had before.
    """
    if not hasattr(os, "sched_setaffinity"):
        return frozenset()
    before = frozenset(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {max(before)})
    return before


def keep_freed_memory() -> None:
    """Make glibc serve MiB-sized buffers from its heap, never trimmed.

    By default a freed 1-4 MiB buffer goes back to the kernel and the
    next one is mapped and zero-filled again, under a threshold glibc
    adapts from the order of the first frees, which thread timing
    decides.  ``bulk_tcp`` took 6 000 to 27 000 minor page faults per
    wave depending on the process (p50 105-180 ms); with both thresholds
    fixed it takes about 30 (100-111 ms).  Not glibc: nothing happens.
    """
    m_trim_threshold, m_mmap_threshold = -1, -3
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(m_mmap_threshold, 1 << 30)
    mallopt(m_trim_threshold, 1 << 30)


def run_one(args: argparse.Namespace, spec: dict) -> int:
    if not (REPO_ROOT / "src" / "repro").is_dir():
        print(f"run.py: no program to measure: {REPO_ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    all_cpus = frozenset()
    if args.workload not in PROCESS_HOSTED:
        all_cpus = pin_to_one_cpu()
    keep_freed_memory()
    harness.export_pythonpath()
    import workloads

    traced = bool(args.trace)
    # The traced run repeats the workload at a quarter of its length.
    seconds = args.seconds / 4 if traced else args.seconds
    result = workloads.WORKLOADS[args.workload](args.seed, seconds, traced)
    chk = result.checker
    values = dict(result.layer if traced else result.e2e)
    if traced:
        values.update(traced_extras(args, result, all_cpus))
    leaks = harness.leaked_resources()
    for leak in leaks:
        chk.fail(f"outlived teardown: {leak}")
    values["peak_rss_mb"] = harness.peak_rss_mb()
    values["harness.failed_frac"] = chk.failed / max(1, chk.attempted)

    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in values and not traced:
            chk.fail(f"workload did not produce end-to-end metric {m['name']}")
        # A per-layer metric this workload does not exercise reads 0.
        metrics[m["name"]] = {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
    for name, entry in metrics.items():
        print(f"{args.workload:16s} {name:42s} {entry['value']:14.4f} {entry['unit']}")
    for key, value in result.info.items():
        print(f"# {key}: {value}")
    for flag in result.flags:
        print(f"# FLAGGED: {flag}")
    for note in chk.notes:
        print(f"# FAILED: {note}")
    correct = chk.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, chk.attempted),
        "failed": chk.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def traced_extras(args, result, all_cpus: frozenset) -> dict:
    """Layer numbers that need no live tree of the workload's own."""
    import layers
    import model
    import workloads

    # The micro-calls time one function alone: on one CPU for every
    # workload, the process-hosted one included.
    pin_to_one_cpu()
    extra = layers.run_all(args.workload)
    if args.workload == "stream_process":
        measured = result.info["waves_per_s"]
    else:
        measured = result.info.get("wave_p50_s", 0.0)
    extra.update(model.residual(args.workload, extra, measured))
    if args.workload == "rtt_colocated":
        local = workloads.run_local_runtime(args.seed)
        result.info["runtime.local per-tree p50 ms"] = [
            round(x, 2) for x in local.pop("per_tree_p50_ms")
        ]
        extra.update(local)
    if args.workload == "rtt_tcp" and all_cpus:
        extra.update(workloads.run_unpinned_tcp(args.seed, all_cpus))
    return extra


# -- every workload, each in a fresh subprocess -------------------------------


RUN_TIMEOUT = 180.0  # the driver's own limit for one run


def run_child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    # Its own session, so that a hung run can be killed with the
    # mrnet_commnode processes it started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    notes = []
    try:
        stdout, stderr = proc.communicate(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, stderr = proc.communicate()
        notes.append(f"# FAILED: killed after {RUN_TIMEOUT:g} s without a result")
    lines = stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1])
    except (IndexError, ValueError):
        doc = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    notes += [line for line in lines if line.startswith(("# FAILED", "# FLAGGED"))]
    if proc.returncode != 0:
        notes.append(f"exit status {proc.returncode}: {stderr.strip()[-400:]}")
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": doc["correct"] and proc.returncode == 0,
        "attempted": doc["attempted"], "failed": doc["failed"],
        "wall_s": time.monotonic() - t0, "notes": notes,
        "metrics": {k: v["value"] for k, v in doc["metrics"].items()},
    }


def run_all(args: argparse.Namespace, spec: dict) -> int:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    runs = []
    for seed in range(args.seed, args.seed + args.runs):
        for w in spec["workloads"]:
            for trace in (0, 1) if args.traced else (0,):
                run = run_child(w["name"], seed, args.seconds, trace)
                runs.append(run)
                state = "ok" if run["correct"] else "FAILED"
                print(f"== {run['workload']} seed={seed} trace={trace} {state} "
                      f"({run['attempted']} checked, {run['failed']} failed, "
                      f"{run['wall_s']:.1f}s)")
                for name, value in run["metrics"].items():
                    print(f"   {name:42s} {value:14.4f} {units[name]}")
                for note in run["notes"]:
                    print(f"   {note}")
    if args.out:
        args.out.write_text(json.dumps({"meta": machine(args), "runs": runs}, indent=1))
    bad = [r for r in runs if not r["correct"]]
    return 1 if bad else 0


def machine(args: argparse.Namespace) -> dict:
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "platform": platform.platform(), "seconds": args.seconds,
        "seed": args.seed, "runs": args.runs,
        "network": "loopback only, no real link crossed",
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    harness.adopt_orphans()
    # A terminated run leaves through the ``finally`` below as well.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        if args.workload:
            return run_one(args, spec)
        return run_all(args, spec)
    finally:
        harness.stop_descendants()


if __name__ == "__main__":
    sys.exit(main())
