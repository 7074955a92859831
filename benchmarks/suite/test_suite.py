"""Smoke test of the benchmark suite itself.

Outside tier-1 (``pyproject.toml`` collects only ``tests/``); run with
``python -m pytest benchmarks/suite -q``.  One ``--smoke --traced`` pass
over every workload (same tree shapes, about 1/20 of the counts) must
complete with every output verified, emit exactly the metric names
BENCHMARK.json declares, and compare clean against itself.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent
SPEC = json.loads((SUITE.parents[1] / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("suite") / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(SUITE / "run.py"), "--smoke", "--traced",
         "--seed", "3", "--out", str(out)],
        capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return out


def test_smoke_emits_every_declared_metric(smoke_file):
    runs = json.loads(smoke_file.read_text())["runs"]
    names = [w["name"] for w in SPEC["workloads"]]
    assert sorted((r["workload"], r["trace"]) for r in runs) == sorted(
        (name, trace) for name in names for trace in (0, 1)
    )
    for run in runs:
        declared = SPEC["per_layer"] if run["trace"] else SPEC["end_to_end"]
        assert set(run["metrics"]) == {m["name"] for m in declared}, run["workload"]
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
        if not run["trace"]:
            # An end-to-end metric that reads 0 measured nothing.
            assert all(v > 0 for v in run["metrics"].values()), run


def test_compare_against_itself_is_all_ok(smoke_file):
    proc = subprocess.run(
        [sys.executable, str(SUITE / "compare.py"), str(smoke_file), str(smoke_file)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout
    rows = [line for line in proc.stdout.splitlines()[1:] if line.strip()]
    assert len(rows) == len(SPEC["workloads"]) * len(SPEC["end_to_end"])
    assert all(row.split()[-1] == "ok" for row in rows), proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark, there is nothing to measure."""
    bare = tmp_path / "bare"
    (bare / "benchmarks").mkdir(parents=True)
    for name in ("run.py", "harness.py", "workloads.py", "layers.py", "model.py"):
        target = bare / "benchmarks" / "suite" / name
        target.parent.mkdir(exist_ok=True)
        target.write_text((SUITE / name).read_text())
    (bare / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", "rtt_colocated",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "\"metrics\"" not in proc.stdout


def test_no_process_outlives_a_run():
    """Nothing a run started is still there the moment the run has ended.

    The traced ``rtt_colocated`` run starts Python's shm resource
    tracker, which would otherwise end only after its parent has.
    """
    proc = subprocess.Popen(
        [sys.executable, str(SUITE / "run.py"), "--workload", "rtt_colocated",
         "--seed", "3", "--seconds", "0.5", "--trace", "1"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True,
    )
    assert proc.wait(timeout=180) == 0
    left = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                session = int((entry / "stat").read_text().rsplit(")", 1)[1].split()[3])
            except OSError:
                continue  # ended while we looked
            if session == proc.pid:
                left.append(entry.name)
    assert left == []
