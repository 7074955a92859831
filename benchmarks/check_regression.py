"""Compare a fresh bench_dataplane run against the committed baseline.

CI guard for the data-plane fast paths: fails (exit 1) if the
``relay_hop`` or ``pipelined_reduction`` *speedup ratio* of a fresh
run drops more than 30% below the committed ``BENCH_dataplane.json``
reference.
Ratios (new/baseline on the same machine, same run) are compared
rather than absolute throughput so the check is portable across CI
hardware.

The committed file records per-mode references under
``reference_speedups`` (smoke runs use far fewer rounds and a smaller
tree, so their ratios are not comparable to full-mode ones).

With ``--fresh-startup`` the same ratio gate also covers the
bench_startup.py ratio scenarios (shm-vs-loopback link throughput,
colocated thread census) against ``BENCH_startup.json``, and the
absolute start-up time of the depth-3 process tree must stay under
1.5 × the committed ``reference_startup_s`` for the same mode.

With ``--fresh-multistream`` the many-stream scaling gates run
against a fresh ``bench_multistream.py`` output (falling back to the
committed ``BENCH_multistream.json``): bulk ``new_streams()``
creation must beat the per-stream ``new_stream()`` loop by the floor
ratio (10x full, 5x smoke), the idle event-loop tick must stay flat
between 64 and 5000 open streams (the O(active) structural bar), and
16 concurrent metric streams must cost no more per wave per stream
than a single stream.  All three are absolute structural bars.

With ``--fresh-gateway`` the gateway serving gates run against a
fresh ``bench_gateway.py`` output (falling back to the committed
``BENCH_gateway.json``): identical concurrent queries must coalesce
to exactly one wave, the serviced fraction under 2× saturation
offered load must stay at or above the floor, and the mean typed-shed
decision latency must stay under the ceiling.  These are absolute
structural bars (the shed decision is an in-process O(1) check), so
no committed-ratio dance is needed.

Usage::

    PYTHONPATH=src python benchmarks/check_regression.py \
        --fresh /tmp/bench_dataplane_smoke.json \
        [--fresh-startup /tmp/bench_startup_smoke.json] \
        [--committed BENCH_dataplane.json] [--tolerance 0.3]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

GUARDED_SCENARIOS = (
    "relay_hop",
    "pipelined_reduction",
    "allreduce_tree",
)
STARTUP_SCENARIOS = (
    "shm_relay_hop",
    "colocated_1000node",
)
STARTUP_CEILING = 1.5  # x the committed recursive_s of the same mode


def reference_speedups(committed: dict, mode: str) -> dict:
    """The committed speedup ratios comparable to a *mode* run.

    Entries without a ``speedup`` field (e.g. bench_recovery.py's
    recovery-latency and heartbeat-overhead rows, merged into the same
    file) are not speedup scenarios and are skipped.
    """
    per_mode = committed.get("reference_speedups", {})
    if mode in per_mode:
        return per_mode[mode]
    if committed.get("mode") == mode:
        return {
            name: row["speedup"]
            for name, row in committed["results"].items()
            if "speedup" in row
        }
    raise SystemExit(
        f"committed benchmark has no reference for mode {mode!r} "
        f"(has: {sorted(per_mode) or committed.get('mode')!r})"
    )


def check_heartbeat_overhead(fresh: dict, committed: dict, ceiling: float) -> bool:
    """Enforce the steady-state heartbeat cost bar, if measured.

    Prefers a fresh ``heartbeat_overhead`` entry (a bench_recovery.py
    run on this machine); falls back to the committed one.  Returns
    True when the gate fails.
    """
    row = fresh.get("results", {}).get("heartbeat_overhead") or committed.get(
        "results", {}
    ).get("heartbeat_overhead")
    if row is None or "overhead_ratio" not in row:
        return False
    ratio = row["overhead_ratio"]
    status = "ok" if ratio < ceiling else "REGRESSED"
    print(
        f"{'heartbeat_overhead':<20} {'':>10} {ratio:>9.3f}x "
        f"{ceiling:>9.2f}x  {status}"
    )
    return ratio >= ceiling


def check_obs_overhead(fresh: dict, committed: dict) -> bool:
    """Enforce the observability-layer overhead bars, if measured.

    The ``obs_relay_overhead`` entry (bench_observability.py) records
    the relay-hop cost of the metrics layer relative to an
    instrumentation-stripped twin.  Full-mode ceilings: <5% with
    tracing off, <15% with tracing on.  Smoke runs use far fewer
    rounds/repeats, so their ratios get proportionally looser bars
    (the full-mode numbers are the committed evidence).  Returns True
    when a gate fails.
    """
    row = fresh.get("results", {}).get("obs_relay_overhead") or committed.get(
        "results", {}
    ).get("obs_relay_overhead")
    if row is None or "overhead_off_ratio" not in row:
        return False
    smoke = row.get("mode") == "smoke"
    gates = (
        ("obs overhead (off)", row["overhead_off_ratio"], 1.15 if smoke else 1.05),
        ("obs overhead (on)", row["overhead_on_ratio"], 1.30 if smoke else 1.15),
    )
    failed = False
    for label, ratio, ceiling in gates:
        status = "ok" if ratio < ceiling else "REGRESSED"
        print(f"{label:<20} {'':>10} {ratio:>9.3f}x {ceiling:>9.2f}x  {status}")
        failed |= ratio >= ceiling
    return failed


def check_recovery_latency(fresh: dict, committed: dict) -> bool:
    """Enforce the repair-time bars, if measured.

    Two absolute ceilings (wall-clock on any reasonable machine, so no
    committed-ratio dance is needed): a plain kill must repair to full
    membership in under 5 s (``recovery_latency.repair_ms``), and a
    mid-chunked-wave kill with checkpointing on must reach a
    byte-identical wave in under 5 s (``wave_recovery.wave_recovery_ms``).
    Returns True when a gate fails.
    """
    gates = (
        ("repair_latency", "recovery_latency", "repair_ms"),
        ("wave_recovery", "wave_recovery", "wave_recovery_ms"),
    )
    failed = False
    for label, scenario, field in gates:
        row = fresh.get("results", {}).get(scenario) or committed.get(
            "results", {}
        ).get(scenario)
        if row is None or field not in row:
            continue
        ms = row[field]
        status = "ok" if ms < 5000.0 else "REGRESSED"
        print(f"{label:<20} {'':>10} {ms:>8.1f}ms {'5000.00ms':>11}  {status}")
        failed |= ms >= 5000.0
    return failed


def check_checkpoint_overhead(fresh: dict, committed: dict) -> bool:
    """Enforce the steady-state checkpointing cost bar, if measured.

    The ``checkpoint_overhead`` entry (bench_recovery.py) compares wave
    latency with ``checkpoint_interval`` unset vs. set on an otherwise
    identical tree.  Full-mode ceiling: <15% with checkpointing on
    (the acceptance bar); smoke runs use far fewer rounds, so their
    ratio gets a proportionally looser bar.  Returns True when the
    gate fails.
    """
    row = fresh.get("results", {}).get("checkpoint_overhead") or committed.get(
        "results", {}
    ).get("checkpoint_overhead")
    if row is None or "overhead_ratio" not in row:
        return False
    smoke = row.get("mode") == "smoke"
    ceiling = 1.30 if smoke else 1.15
    ratio = row["overhead_ratio"]
    status = "ok" if ratio < ceiling else "REGRESSED"
    print(
        f"{'checkpoint_overhead':<20} {'':>10} {ratio:>9.3f}x "
        f"{ceiling:>9.2f}x  {status}"
    )
    return ratio >= ceiling


def check_multistream(doc: dict) -> bool:
    """Enforce the many-stream scaling bars on a bench_multistream.py
    output.

    Three absolute gates (structural properties of the runtime, so no
    committed-ratio dance): bulk creation >= 10x the new_stream loop
    (5x in smoke mode, whose small batch amortizes the constant wave
    cost over fewer streams); the 5000-stream idle tick within 3x of
    the 64-stream tick (both are sub-microsecond heap peeks — the old
    linear scan sat at ~78x); and 16-way wave latency per stream no
    worse than 1.25x single-stream.  Returns True when a gate fails.
    """
    results = doc.get("results", {})
    smoke = doc.get("mode") == "smoke"
    failed = False

    creation = results.get("bulk_creation")
    if creation is not None:
        floor = 5.0 if smoke else 10.0
        got = creation["speedup"]
        status = "ok" if got >= floor else "REGRESSED"
        print(
            f"{'bulk_creation':<20} {'':>10} {got:>9.2f}x "
            f"{floor:>9.2f}x  {status}"
        )
        failed |= got < floor

    tick = results.get("idle_tick")
    if tick is not None:
        ceiling = 3.0
        ratio = tick["tick_ratio"]
        status = "ok" if ratio <= ceiling else "REGRESSED"
        print(
            f"{'idle_tick_flatness':<20} {'':>10} {ratio:>9.2f}x "
            f"{ceiling:>9.2f}x  {status}"
        )
        failed |= ratio > ceiling

    wave = results.get("multistream_wave")
    if wave is not None:
        floor = 0.8  # speedup >= 0.8 <=> per-stream cost <= 1.25x single
        got = wave["speedup"]
        status = "ok" if got >= floor else "REGRESSED"
        print(
            f"{'multistream_wave':<20} {'':>10} {got:>9.2f}x "
            f"{floor:>9.2f}x  {status}"
        )
        failed |= got < floor
    return failed


def check_gateway(doc: dict) -> bool:
    """Enforce the gateway serving bars on a bench_gateway.py output.

    Three gates, all absolute (see bench_gateway.py's ``gates`` block,
    which travels with the results): coalescing must resolve ≥100
    identical concurrent queries with exactly one wave; the serviced
    fraction at 2× offered load must hold the floor; and the mean
    typed-shed decision must stay under the latency ceiling.  Returns
    True when a gate fails.
    """
    results = doc.get("results", {})
    gates = doc.get("gates", {})
    min_coalesced = gates.get("min_coalesced_queries", 100)
    floor = gates.get("serviced_floor_2x", 0.30)
    ceiling = gates.get("shed_mean_ms_ceiling", 5.0)
    failed = False

    co = results.get("coalescing_10k")
    if co is not None:
        one_wave = (
            co["waves"] == 1
            and co["queries_coalesced"] >= min_coalesced - 1
            and co["concurrent_identical_queries"] >= min_coalesced
        )
        status = "ok" if one_wave else "REGRESSED"
        print(
            f"{'gateway_coalescing':<20} {'':>10} "
            f"{co['concurrent_identical_queries']:>6}q/{co['waves']}w "
            f"{'1 wave':>11}  {status}"
        )
        failed |= not one_wave

    two_x = results.get("offered_load", {}).get("2x")
    if two_x is not None:
        frac = two_x["serviced_fraction"]
        status = "ok" if frac >= floor else "REGRESSED"
        print(
            f"{'gateway_serviced_2x':<20} {'':>10} {frac:>9.3f} "
            f"{floor:>9.2f}f  {status}"
        )
        failed |= frac < floor
        shed_ms = two_x["shed_mean_ms"]
        typed = sum(two_x["shed"].values()) > 0
        shed_ok = typed and shed_ms <= ceiling
        status = "ok" if shed_ok else "REGRESSED"
        print(
            f"{'gateway_shed_latency':<20} {'':>10} {shed_ms:>8.3f}m "
            f"{ceiling:>8.2f}ms  {status}"
        )
        failed |= not shed_ok
    return failed


def check_startup_time(fresh: dict, committed: dict) -> bool:
    """Absolute ceiling on the depth-3 process tree's start-up time.

    Returns True when the fresh ``recursive_s`` exceeds
    ``STARTUP_CEILING`` x the committed value for the same mode.
    """
    mode = fresh.get("mode", "full")
    ref = committed.get("reference_startup_s", {}).get(mode)
    row = fresh.get("results", {}).get("startup_64leaf_depth3")
    if ref is None or row is None:
        print(f"{'startup_64leaf_depth3':<22} {'-':>10} {'-':>10} {'-':>10}  skipped")
        return False
    got, ceiling = row["recursive_s"], STARTUP_CEILING * ref
    status = "ok" if got <= ceiling else "REGRESSED"
    print(
        f"{'startup_64leaf_depth3':<22} {ref:>9.3f}s {got:>9.3f}s "
        f"{ceiling:>9.3f}s  {status}"
    )
    return got > ceiling


def check_speedups(
    fresh: dict, committed: dict, scenarios, tolerance: float
) -> bool:
    """Ratio-vs-committed gate shared by both benchmark files.

    Returns True when any guarded scenario's fresh speedup drops more
    than *tolerance* below the committed reference for the same mode.
    """
    reference = reference_speedups(committed, fresh.get("mode", "full"))
    failed = False
    print(f"{'scenario':<22} {'committed':>10} {'fresh':>10} {'floor':>10}")
    for name in scenarios:
        ref = reference.get(name)
        row = fresh.get("results", {}).get(name)
        if ref is None or row is None or "speedup" not in row:
            # Unknown or non-speedup entries (recovery-latency rows,
            # scenarios added after the baseline was committed) are
            # not comparable; skip rather than crash.
            print(f"{name:<22} {'-':>10} {'-':>10} {'-':>10}  skipped")
            continue
        got = row["speedup"]
        floor = (1.0 - tolerance) * ref
        status = "ok" if got >= floor else "REGRESSED"
        print(f"{name:<22} {ref:>9.2f}x {got:>9.2f}x {floor:>9.2f}x  {status}")
        failed |= got < floor
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fresh", type=Path, required=True)
    parser.add_argument(
        "--committed", type=Path, default=REPO_ROOT / "BENCH_dataplane.json"
    )
    parser.add_argument(
        "--fresh-startup",
        type=Path,
        default=None,
        help="fresh bench_startup.py output to gate (omit to skip)",
    )
    parser.add_argument(
        "--committed-startup",
        type=Path,
        default=REPO_ROOT / "BENCH_startup.json",
    )
    parser.add_argument(
        "--fresh-gateway",
        type=Path,
        default=None,
        help="fresh bench_gateway.py output to gate (omit to skip)",
    )
    parser.add_argument(
        "--committed-gateway",
        type=Path,
        default=REPO_ROOT / "BENCH_gateway.json",
    )
    parser.add_argument(
        "--fresh-multistream",
        type=Path,
        default=None,
        help="fresh bench_multistream.py output to gate (omit to skip)",
    )
    parser.add_argument(
        "--committed-multistream",
        type=Path,
        default=REPO_ROOT / "BENCH_multistream.json",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.3,
        help="allowed fractional drop in speedup ratio (default 0.3 = 30%%)",
    )
    parser.add_argument(
        "--hb-ceiling",
        type=float,
        default=1.10,
        help="max heartbeat-on/off wave-latency ratio (default 1.10)",
    )
    args = parser.parse_args(argv)

    fresh = json.loads(args.fresh.read_text())
    committed = json.loads(args.committed.read_text())

    failed = check_speedups(fresh, committed, GUARDED_SCENARIOS, args.tolerance)

    if args.fresh_startup is not None:
        if args.committed_startup.exists():
            fresh_startup = json.loads(args.fresh_startup.read_text())
            committed_startup = json.loads(args.committed_startup.read_text())
            failed |= check_speedups(
                fresh_startup, committed_startup, STARTUP_SCENARIOS,
                args.tolerance,
            )
            failed |= check_startup_time(fresh_startup, committed_startup)
        else:
            print("startup baseline absent; skipping startup gates")

    if args.fresh_gateway is not None:
        failed |= check_gateway(json.loads(args.fresh_gateway.read_text()))
    elif args.committed_gateway.exists():
        failed |= check_gateway(json.loads(args.committed_gateway.read_text()))

    if args.fresh_multistream is not None:
        failed |= check_multistream(
            json.loads(args.fresh_multistream.read_text())
        )
    elif args.committed_multistream.exists():
        failed |= check_multistream(
            json.loads(args.committed_multistream.read_text())
        )

    if check_heartbeat_overhead(fresh, committed, args.hb_ceiling):
        print("FAIL: heartbeat overhead exceeds ceiling", file=sys.stderr)
        failed = True
    if check_obs_overhead(fresh, committed):
        print("FAIL: observability overhead exceeds ceiling", file=sys.stderr)
        failed = True
    if check_recovery_latency(fresh, committed):
        print("FAIL: fault recovery exceeds the 5 s ceiling", file=sys.stderr)
        failed = True
    if check_checkpoint_overhead(fresh, committed):
        print("FAIL: checkpoint overhead exceeds ceiling", file=sys.stderr)
        failed = True
    if failed:
        print("FAIL: benchmark speedup regressed >30% vs committed baseline",
              file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
