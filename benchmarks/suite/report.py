"""Render a ``run.py --out`` file as the README's results tables.

``report.py baseline.json`` prints markdown; ``--write`` replaces the
text between the ``results:begin``/``results:end`` markers of README.md,
so the committed table is generated, never typed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from compare import load, spread

SUITE_DIR = Path(__file__).resolve().parent
BEGIN, END = "<!-- results:begin -->", "<!-- results:end -->"


def fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    return f"{value:.3g}" if abs(value) < 10 else f"{value:.1f}"


def render(path: Path) -> str:
    spec = json.loads((SUITE_DIR.parents[1] / "BENCHMARK.json").read_text())
    meta = json.loads(path.read_text())["meta"]
    workloads = [w["name"] for w in spec["workloads"]]
    e2e, layer = load(path, 0), load(path, 1)
    lines = [
        f"Machine: {meta['nproc']} cores, Python {meta['python']}, {meta['platform']}; "
        f"{meta['network']}.  {meta['runs']} runs per workload (seeds {meta['seed']}.."
        f"{meta['seed'] + meta['runs'] - 1}), {meta['seconds']:g} s each; every cell is the "
        "median over runs, with the quartile distance as a share of the median in brackets.",
        "",
        "| workload | " + " | ".join(f"{m['name']} ({m['unit']})" for m in spec["end_to_end"]) + " |",
        "|---|" + "---:|" * len(spec["end_to_end"]),
    ]
    for w in workloads:
        cells = []
        for m in spec["end_to_end"]:
            values = e2e.get((w, m["name"]), [])
            cells.append(
                f"{fmt(statistics.median(values))} [{spread(values):.2f}]" if values else "-"
            )
        lines.append(f"| `{w}` | " + " | ".join(cells) + " |")
    lines += ["", "Per-layer metrics (traced runs, median; a blank cell means the "
              "workload does not exercise the layer):", "",
              "| metric (unit) | " + " | ".join(f"`{w}`" for w in workloads) + " |",
              "|---|" + "---:|" * len(workloads)]
    for m in spec["per_layer"]:
        cells = []
        for w in workloads:
            values = layer.get((w, m["name"]), [])
            mid = statistics.median(values) if values else 0
            cells.append(fmt(mid) if mid else "")
        lines.append(f"| `{m['name']}` ({m['unit']}) | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("results", type=Path)
    p.add_argument("--write", action="store_true", help="rewrite the table in README.md")
    args = p.parse_args(argv)
    table = render(args.results)
    if not args.write:
        print(table)
        return 0
    readme = SUITE_DIR / "README.md"
    text = readme.read_text()
    head, rest = text.split(BEGIN, 1)
    _old, tail = rest.split(END, 1)
    readme.write_text(f"{head}{BEGIN}\n{table}{END}{tail}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
