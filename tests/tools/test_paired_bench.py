"""``tools/paired_bench.py``: pairs that straddle the VM's two CPU
speeds are reported and left out; the rest are summarised per metric;
runs the benchmark flagged are marked and counted per side."""

import pathlib
import shutil
import subprocess
import sys

import pytest

from . import load_tool

paired_bench = load_tool("paired_bench")

SPEC = {
    "end_to_end": [
        {"name": "latency_p50_ms", "unit": "ms", "better": "lower"},
        {"name": "throughput_per_s", "unit": "1/s", "better": "higher"},
    ]
}


def run(latency, throughput, loop_ms):
    return {
        "attempted": 10,
        "failed": 0,
        "loop_ms": loop_ms,
        "metrics": {
            "latency_p50_ms": {"value": latency},
            "throughput_per_s": {"value": throughput},
        },
    }


@pytest.mark.parametrize("parent_ms, change_ms, split", [
    (39.0, 39.0, False),
    (39.0, 42.8, False),  # 9.7 % apart
    (39.0, 43.0, True),  # 10.3 % apart
    (50.0, 39.0, True),  # the two speeds of the development VM
])
def test_pairs_over_ten_percent_apart_are_mode_split(parent_ms, change_ms, split):
    pair = run(5.0, 100.0, parent_ms), run(5.0, 100.0, change_ms)
    assert paired_bench.mode_split(*pair) is split
    assert paired_bench.mode_split(*reversed(pair)) is split


def test_summarise_counts_only_pairs_that_ran_at_one_speed():
    # The change is better in the three same-speed pairs; in the fourth
    # it ran on the slow CPU and reads worse, which says nothing about it.
    parent = [run(5.0, 100.0, 39.0), run(6.4, 80.0, 50.0),
              run(5.0, 100.0, 39.0), run(5.0, 100.0, 39.0)]
    change = [run(4.5, 110.0, 39.5), run(5.8, 88.0, 49.0),
              run(5.0, 100.0, 40.0), run(6.0, 85.0, 50.0)]
    latency, throughput = paired_bench.summarise(SPEC, parent, change)

    assert (latency["won"], latency["lost"], latency["tied"]) == (2, 0, 1)
    assert (throughput["won"], throughput["lost"], throughput["tied"]) == (2, 0, 1)
    assert latency["mode_split"] == throughput["mode_split"] == 1
    assert latency["parent_values"] == [5.0, 6.4, 5.0]
    assert latency["change_values"] == [4.5, 5.8, 5.0]
    assert latency["parent_median"] == 5.0 and latency["change_median"] == 5.0
    assert throughput["change_median"] == 100.0
    assert throughput["parent_iqr"] == pytest.approx(10.0)


def test_summarise_with_every_pair_mode_split_has_no_rows():
    assert paired_bench.summarise(
        SPEC, [run(5.0, 100.0, 39.0)], [run(5.0, 100.0, 50.0)]
    ) == []


def test_a_rate_is_shown_with_its_loop_normalised_value():
    metric = SPEC["end_to_end"][1]
    assert paired_bench.shown(run(5.0, 68.0, 39.0), metric) == "68 (x loop 2.652)"
    assert paired_bench.shown(run(5.0, 54.0, 50.0), metric) == "54 (x loop 2.7)"
    assert paired_bench.shown(run(5.0, 54.0, 50.0), SPEC["end_to_end"][0]) == "5"


GENERATOR_BOUND = "# FLAGGED: generator-bound: the driver was busy 0.73 of the time (limit 0.5)"


def test_flagged_runs_are_marked_on_the_pair_and_counted_per_side():
    parent = [run(5.0, 100.0, 39.0), run(5.0, 100.0, 39.0), run(5.0, 100.0, 39.0)]
    change = [run(4.5, 200.0, 39.0), run(4.5, 200.0, 39.0), run(4.5, 200.0, 50.0)]
    for r in parent:
        r["flagged"] = []
    for r in change:
        r["flagged"] = [GENERATOR_BOUND]
    parent[1]["flagged"] = [GENERATOR_BOUND]

    assert paired_bench.pair_marks(parent[0], change[0]) == "  FLAGGED(change)"
    assert paired_bench.pair_marks(parent[1], change[1]) == "  FLAGGED(parent,change)"
    assert paired_bench.pair_marks(parent[2], change[2]) == "  MODE-SPLIT  FLAGGED(change)"
    assert paired_bench.pair_marks(parent[0], parent[0]) == ""
    # Flagged runs still count in won/lost/tied; the counts are per
    # side over every run, mode-split pairs included.
    latency, throughput = paired_bench.summarise(SPEC, parent, change)
    for row in (latency, throughput):
        assert (row["won"], row["mode_split"]) == (2, 1)
        assert (row["parent_flagged"], row["change_flagged"]) == (1, 3)


def test_run_once_keeps_the_flagged_lines(tmp_path):
    script = tmp_path / "fake_run.py"
    script.write_text(
        "print('# driver_busy_frac: 0.73')\n"
        f"print({GENERATOR_BOUND!r})\n"
        "print('{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {}}')\n"
    )
    got = paired_bench.run_once(tmp_path, [sys.executable, str(script)], "w", 1, 0.1)
    assert got["flagged"] == [GENERATOR_BOUND]
    assert got["attempted"] == 3 and got["loop_ms"] > 0


def test_each_run_counts_the_cpu_seconds_of_its_processes(tmp_path):
    """A run's ``cpu_s`` is the CPU time of the benchmark process and of
    every process it reaped, and it is summarised like a metric."""
    script = tmp_path / "fake_run.py"
    script.write_text(
        "import os, time\n"
        "def burn(s):\n"
        "    end = time.process_time() + s\n"
        "    while time.process_time() < end:\n"
        "        pass\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    burn(0.3)\n"
        "    os._exit(0)\n"
        "burn(0.2)\n"
        "os.waitpid(pid, 0)\n"
        "print('{\"attempted\": 1, \"failed\": 0, \"metrics\": {}}')\n"
    )
    runs = [
        paired_bench.run_once(tmp_path, [sys.executable, str(script)], "w", 1, 0.1)
        for _ in range(2)
    ]
    for got in runs:
        assert 0.5 <= paired_bench.value(got, "cpu_s") < 2.0
        got["loop_ms"] = 20.0  # one CPU speed: the pair is summarised
    (cpu,) = paired_bench.summarise({"end_to_end": []}, runs[:1], runs[1:])
    assert (cpu["metric"], cpu["unit"], cpu["better"]) == ("cpu_s", "s", "lower")
    assert cpu["parent_median"] == paired_bench.value(runs[0], "cpu_s")


def in_git_checkout() -> bool:
    if shutil.which("git") is None:
        return False
    probe = subprocess.run(
        ["git", "-C", str(paired_bench.REPO_ROOT), "rev-parse", "--is-inside-work-tree"],
        capture_output=True, text=True,
    )
    return probe.returncode == 0 and probe.stdout.strip() == "true"


@pytest.mark.skipif(not in_git_checkout(), reason="needs a git checkout")
def test_change_side_is_the_tracked_files_byte_compiled(tmp_path):
    """The change side is an extraction too: tracked files as they are
    on disk, none of the working tree's caches, bytecode written before
    any run."""
    root = tmp_path / "change"
    paired_bench.extract_worktree(root)
    module = pathlib.Path("tools", "paired_bench.py")
    assert (root / module).read_bytes() == (paired_bench.REPO_ROOT / module).read_bytes()
    assert not list(root.rglob("__pycache__"))
    paired_bench.byte_compile([sys.executable], root / "tools")
    assert list((root / "tools" / "__pycache__").glob("paired_bench.*.pyc"))
