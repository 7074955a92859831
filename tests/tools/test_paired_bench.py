"""``tools/paired_bench.py``: pairs that straddle the VM's two CPU
speeds are reported and left out; the rest are summarised per metric."""

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
