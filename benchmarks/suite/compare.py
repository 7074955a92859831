"""Compare two result files written by ``run.py --out``.

``compare.py A.json B.json`` prints, for every (workload, end-to-end
metric), A's median (the base), B's median, their ratio, the bound
BENCHMARK.json fixes, and a verdict:

* ``ok`` — B's median is no worse than A's by more than the bound;
* ``worse`` — it is, and the run-to-run spread is inside the bound;
* ``unresolved`` — the spread of either side (quartile distance over
  median) is wider than the bound, so the medians cannot settle it —
  unless every run of B reads better than every run of A.

Per-layer metrics have no bound and are listed with ``--layers`` as
values and ratio only.  Exit status is 1 if any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

REPO_ROOT = Path(__file__).resolve().parents[2]


def load(path: Path, trace: int) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> values, one per run, from one result file."""
    out: Dict[Tuple[str, str], List[float]] = {}
    for run in json.loads(path.read_text())["runs"]:
        if run["trace"] != trace:
            continue
        for metric, value in run["metrics"].items():
            out.setdefault((run["workload"], metric), []).append(value)
    return out


def spread(values: List[float]) -> float:
    """Quartile distance as a share of the median (0 for under 2 runs)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    """``ok``, ``worse`` or ``unresolved`` for B's runs against A's."""
    base, new = statistics.median(a), statistics.median(b)
    if base == 0:
        return "ok" if new == 0 else "unresolved"
    change = (new - base) / abs(base)
    worsening = change if better == "lower" else -change
    all_better = (
        max(b) < min(a) if better == "lower" else min(b) > max(a)
    )
    if max(spread(a), spread(b)) > bound and not all_better:
        return "unresolved"
    return "worse" if worsening > bound else "ok"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    p.add_argument("--layers", action="store_true",
                   help="also list the per-layer metrics of the traced runs")
    args = p.parse_args(argv)
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]

    a, b = load(args.a, 0), load(args.b, 0)
    print(f"{'workload':16s} {'metric':18s} {'A (base)':>12s} {'B':>12s} "
          f"{'B/A':>7s} {'spreadA':>8s} {'spreadB':>8s} {'bound':>6s}  verdict")
    worse = 0
    for workload in workloads:
        for m in spec["end_to_end"]:
            key = (workload, m["name"])
            if key not in a or key not in b:
                print(f"{workload:16s} {m['name']:18s} missing from one side")
                worse += 1
                continue
            word = verdict(a[key], b[key], m["better"], m["bound"])
            base, new = statistics.median(a[key]), statistics.median(b[key])
            worse += word == "worse"
            print(f"{workload:16s} {m['name']:18s} {base:12.4f} {new:12.4f} "
                  f"{new / base if base else 0:7.3f} {spread(a[key]):8.3f} "
                  f"{spread(b[key]):8.3f} {m['bound']:6.2f}  {word}")
    if args.layers:
        la, lb = load(args.a, 1), load(args.b, 1)
        print(f"\n{'workload':16s} {'per-layer metric':42s} {'A (base)':>14s} {'B':>14s} {'B/A':>7s}")
        for workload in workloads:
            for m in spec["per_layer"]:
                key = (workload, m["name"])
                if key in la and key in lb:
                    base, new = statistics.median(la[key]), statistics.median(lb[key])
                    if base or new:
                        print(f"{workload:16s} {m['name']:42s} {base:14.4f} {new:14.4f} "
                              f"{new / base if base else 0:7.3f}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
