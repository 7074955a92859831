#!/usr/bin/env python3
"""Alternating parent/change runs of one BENCHMARK.json workload.

The rule of the ``choosing-metrics`` guide, section 8, as a command::

    python tools/paired_bench.py --workload bulk_tcp --parent HEAD~1 --pairs 10

extracts ``--parent`` (``git archive``) and the change (the working
tree's tracked and staged files, as they are on disk) into two sibling
temporary directories whose paths are equally long, byte-compiles both,
and runs ``benchmarks/suite/run.py --workload W --seed k --seconds S
--trace 0`` alternately in each — order swapped every pair, a fresh
seed per pair — then prints, per end-to-end metric, both medians, both
quartile distances, pairs won/lost/tied, and failed/attempted
operations per side.  Neither side runs from the working tree, so
neither carries its caches or stray files.

``--aa REF`` runs one ref against itself the same way (side A in the
``parent`` slot, side B in the ``change`` slot) and prints the lean per
metric: the won/lost split and median delta that position alone
produces.  A gain may be claimed when the change wins at least nine
tenths of the pairs, the medians differ by more than the parent's
quartile distance, and the delta is larger than that metric's A/A lean.

This VM's CPU runs at two speeds about 25 % apart and flips between
them every few seconds, and every CPU-bound workload follows it.  So a
fixed pure-Python loop is timed before and after every run, pinned to
the CPU the benchmark pins itself to; each raw throughput is printed
with throughput x loop time beside it, and a pair whose two sides' loop
times differ by more than 10 % compared the two speeds, not the two
commits: it is reported as "mode-split" and left out of won/lost/tied.

A run that breaks one of the benchmark's validity rules (for example a
generator-bound ``stream_process``) prints ``# FLAGGED:`` lines; they
are kept, the pair line names the flagged side, and the summary and the
``--json`` rows count flagged runs per side, so a claim resting on
flagged runs is visible as such.

Each run's CPU time (user plus system seconds of ``run.py`` and every
process it reaped, forked comm nodes included) is read from
``RUSAGE_CHILDREN`` and summarised as one more row, ``cpu_s``, beside
the end-to-end metrics: CPU time moves less with the VM's speed than
wall-clock numbers do.

Reads only ``BENCHMARK.json`` and, of ``run.py``'s stdout, the
``# FLAGGED:`` lines and the last line; never two runs at once (the
benchmark pins itself to one CPU).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Two runs whose calibration-loop times differ by more than this ran
#: at different CPU speeds.
MODE_SPLIT = 0.10


def loop_ms() -> float:
    """Milliseconds for 300 k dict stores on the CPU the benchmark uses.

    Imports nothing from the repo, so it reads the machine, not the
    program.
    """
    pin = hasattr(os, "sched_setaffinity")
    if pin:
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(cpus)})
    try:
        d = {}
        t0 = time.perf_counter()
        for i in range(300_000):
            d[i & 1023] = i
        return (time.perf_counter() - t0) * 1e3
    finally:
        if pin:
            os.sched_setaffinity(0, cpus)


def extract(ref: str, into: pathlib.Path) -> None:
    """Unpack commit *ref* of this repository under *into*."""
    into.mkdir()
    archive = into / "ref.tar"
    subprocess.run(
        ["git", "-C", str(REPO_ROOT), "archive", "-o", str(archive), ref], check=True
    )
    with tarfile.open(archive) as tar:
        tar.extractall(into)
    archive.unlink()


def extract_worktree(into: pathlib.Path) -> None:
    """Copy the working tree's tracked and staged files under *into*."""
    into.mkdir()
    listed = subprocess.run(
        ["git", "-C", str(REPO_ROOT), "ls-files", "-z"],
        check=True, capture_output=True,
    ).stdout.decode().split("\0")
    for name in filter(None, listed):
        src = REPO_ROOT / name
        if src.is_file():  # a tracked file deleted on disk stays deleted
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, into / name)


def byte_compile(command, root: pathlib.Path) -> None:
    """Write every module's bytecode under *root* with the benchmark's
    interpreter, so no run pays (or races) the first compile."""
    subprocess.run([command[0], "-m", "compileall", "-q", str(root)],
                   check=True, stdout=subprocess.DEVNULL)


def children_cpu_s() -> float:
    """User plus system CPU seconds of every child this process reaped."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_once(root: pathlib.Path, command, workload, seed, seconds) -> dict:
    """One driver-form run under *root*: the parsed last stdout line,
    plus ``loop_ms``, the mean of the calibration loop before and after,
    ``flagged``, the run's ``# FLAGGED:`` lines, and the run's CPU
    seconds as the metric ``cpu_s``."""
    before = loop_ms()
    cpu0 = children_cpu_s()
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    cpu_s = children_cpu_s() - cpu0
    lines = proc.stdout.strip().splitlines()
    try:
        run = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr[-2000:])
        run = {"attempted": 1, "failed": 1, "metrics": {}}
    run.setdefault("metrics", {})["cpu_s"] = {"value": cpu_s}
    run["loop_ms"] = (before + loop_ms()) / 2
    run["flagged"] = [line for line in lines if line.startswith("# FLAGGED:")]
    return run


def metrics(spec: dict) -> list:
    """The end-to-end metrics of *spec*, then the run's CPU time."""
    return [*spec["end_to_end"], {"name": "cpu_s", "unit": "s", "better": "lower"}]


def value(run: dict, name: str) -> float:
    return run["metrics"].get(name, {}).get("value", float("nan"))


def shown(run: dict, metric: dict) -> str:
    """A raw value; a rate also as rate x loop time (work per unit of CPU speed)."""
    raw = value(run, metric["name"])
    if metric["better"] != "higher":
        return f"{raw:.4g}"
    return f"{raw:.4g} (x loop {raw * run['loop_ms'] / 1e3:.4g})"


def quartile_distance(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def mode_split(parent_run: dict, change_run: dict) -> bool:
    """True when the two sides of a pair ran at different CPU speeds."""
    a, b = parent_run["loop_ms"], change_run["loop_ms"]
    return abs(a - b) > MODE_SPLIT * min(a, b)


def flagged(runs) -> int:
    """How many of *runs* printed at least one ``# FLAGGED:`` line."""
    return sum(bool(r.get("flagged")) for r in runs)


def pair_marks(parent_run: dict, change_run: dict) -> str:
    """What the pair line says about the pair besides its numbers."""
    marks = ["MODE-SPLIT"] if mode_split(parent_run, change_run) else []
    sides = [label for label, run in (("parent", parent_run), ("change", change_run))
             if run.get("flagged")]
    if sides:
        marks.append(f"FLAGGED({','.join(sides)})")
    return "".join("  " + m for m in marks)


def summarise(spec: dict, parent_runs, change_runs) -> list:
    """One row per end-to-end metric, and one for CPU time, over the
    pairs that ran at one speed."""
    same_mode = [
        (p, c) for p, c in zip(parent_runs, change_runs) if not mode_split(p, c)
    ]
    rows = []
    for metric in metrics(spec):
        name, lower = metric["name"], metric["better"] == "lower"
        pairs = [
            (value(p, name), value(c, name))
            for p, c in same_mode
            if name in p["metrics"] and name in c["metrics"]
        ]
        if not pairs:
            continue
        won = sum((c < p) if lower else (c > p) for p, c in pairs)
        tied = sum(c == p for p, c in pairs)
        old = [p for p, _ in pairs]
        new = [c for _, c in pairs]
        rows.append({
            "metric": name, "unit": metric["unit"], "better": metric["better"],
            "parent_median": statistics.median(old),
            "change_median": statistics.median(new),
            "parent_iqr": quartile_distance(old),
            "change_iqr": quartile_distance(new),
            "won": won, "lost": len(pairs) - won - tied, "tied": tied,
            "mode_split": len(parent_runs) - len(same_mode),
            "parent_flagged": flagged(parent_runs),
            "change_flagged": flagged(change_runs),
            "parent_values": old, "change_values": new,
        })
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    which = ap.add_mutually_exclusive_group(required=True)
    which.add_argument("--parent", help="git ref to compare the working tree against")
    which.add_argument("--aa", metavar="REF", help="run git ref REF against itself")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--seed", type=int, default=1000,
                    help="seed of the first pair; pair k uses seed + k")
    ap.add_argument("--json", type=pathlib.Path, help="also write the rows here")
    args = ap.parse_args(argv)

    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    parent_runs, change_runs = [], []
    with tempfile.TemporaryDirectory(prefix="paired-bench-") as tmp:
        # Siblings with names of one length: the two sides' paths differ
        # in one word, not in length or depth.
        parent_root, change_root = pathlib.Path(tmp, "parent"), pathlib.Path(tmp, "change")
        extract(args.aa or args.parent, parent_root)
        if args.aa:
            extract(args.aa, change_root)
        else:
            extract_worktree(change_root)
        for root in (parent_root, change_root):
            byte_compile(spec["command"], root)
        for k in range(args.pairs):
            sides = [(parent_root, parent_runs), (change_root, change_runs)]
            if k % 2:
                sides.reverse()
            for root, runs in sides:
                runs.append(
                    run_once(root, spec["command"], args.workload, args.seed + k, seconds)
                )
            p, c = parent_runs[-1], change_runs[-1]
            print(f"pair {k} seed {args.seed + k}: " + "  ".join(
                f"{m['name']} {shown(p, m)} -> {shown(c, m)}"
                for m in metrics(spec)
            ) + f"  loop {p['loop_ms']:.1f} -> {c['loop_ms']:.1f} ms"
              + pair_marks(p, c), flush=True)

    rows = summarise(spec, parent_runs, change_runs)
    if args.aa:
        print(f"\n{args.workload}: A/A of {args.aa}, {args.pairs} pairs of {seconds:g} s;"
              " 'parent' is side A, 'change' side B: delta and won/lost/tied are the lean")
    else:
        print(f"\n{args.workload}: {args.pairs} pairs of {seconds:g} s, parent {args.parent}")
    split = sum(mode_split(p, c) for p, c in zip(parent_runs, change_runs))
    print(f"{split} of {args.pairs} pairs mode-split (loop times over "
          f"{MODE_SPLIT:.0%} apart): left out of every row below")
    print(f"{'metric':18} {'parent med':>11} {'iqr':>9} {'change med':>11} {'iqr':>9} "
          f"{'delta':>8}  won/lost/tied")
    for r in rows:
        delta = (r["change_median"] / r["parent_median"] - 1) * 100 if r["parent_median"] else 0.0
        print(f"{r['metric']:18} {r['parent_median']:11.4g} {r['parent_iqr']:9.3g} "
              f"{r['change_median']:11.4g} {r['change_iqr']:9.3g} {delta:+7.1f}%  "
              f"{r['won']}/{r['lost']}/{r['tied']}  ({r['better']} is better)")
    for label, runs in (("parent", parent_runs), ("change", change_runs)):
        failed = sum(r.get("failed", 0) for r in runs)
        attempted = sum(r.get("attempted", 0) for r in runs)
        print(f"{label}: {failed} failed of {attempted} attempted operations, "
              f"{flagged(runs)} of {len(runs)} runs FLAGGED")
        first = next((r["flagged"][0] for r in runs if r.get("flagged")), None)
        if first:
            print(f"  first: {first}")
    if args.json:
        args.json.write_text(json.dumps(rows, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
