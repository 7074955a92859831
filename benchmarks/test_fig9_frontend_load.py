"""Figure 9 (a–d) — fraction of offered load serviced by the front-end.

Four panels (1, 8, 16, 32 metrics), daemons 4–256, curves "Flat",
"4-way", "8-way", "16-way Fanout"; offered load is 5·D·M samples/s.
Paper shape: the flat configuration degrades quickly as daemons ×
metrics grow (≈ 60 % at 64 daemons × 32 metrics; < 5 % at 256 × 32),
while every MRNet fan-out processes the entire offered load at every
tested configuration (§4.2.2).
"""

import time

import pytest

from repro.core import Network
from repro.filters import TFILTER_SUM
from repro.gateway import BackendResponder, Gateway, Overloaded, Query
from repro.sim.frontend_load import frontend_load_fraction, offered_rate
from repro.topology import balanced_tree, balanced_tree_for

DAEMONS = [4, 16, 64, 128, 256]
METRICS = [1, 8, 16, 32]
FANOUTS = [4, 8, 16]

WAIT = 60.0
SERVICED_FLOOR_2X = 0.30


def run_sweep():
    panels = {}
    for m in METRICS:
        rows = []
        for d in DAEMONS:
            row = [d, frontend_load_fraction(d, m)]
            for f in FANOUTS:
                row.append(
                    frontend_load_fraction(d, m, balanced_tree_for(f, d))
                )
            row.append(offered_rate(d, m))
            rows.append(tuple(row))
        panels[m] = rows
    return panels


@pytest.mark.benchmark(group="fig9")
def test_fig9_fraction_of_offered_load(benchmark, report):
    panels = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    for m, rows in panels.items():
        report(
            f"fig9_{m}metrics",
            f"Figure 9 ({m} metric{'s' if m > 1 else ''}): fraction of "
            "offered load serviced by the front-end",
            ["daemons", "flat", "4-way", "8-way", "16-way", "offered/s"],
            rows,
        )
    flat = {m: {r[0]: r[1] for r in rows} for m, rows in panels.items()}
    # Paper anchors: ≈60% at 64×32; <5% at 256×32.
    assert 0.5 < flat[32][64] < 0.7
    assert flat[32][256] < 0.05
    # With few metrics the flat front-end keeps up everywhere tested.
    assert all(flat[1][d] == 1.0 for d in DAEMONS)
    # Degradation is monotone in both daemons and metrics.
    for m in METRICS:
        vals = [flat[m][d] for d in DAEMONS]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
    for d in DAEMONS:
        vals = [flat[m][d] for m in METRICS]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
    # Every MRNet fan-out holds the full offered load at every config.
    for m, rows in panels.items():
        for row in rows:
            assert row[2] == row[3] == row[4] == 1.0


def sum_query(value: int) -> Query:
    return Query("%d", (value,), transform=TFILTER_SUM)


def build_tree(fanout: int, depth: int):
    """A colocated tree with echo daemons behind every leaf."""
    net = Network(balanced_tree(fanout, depth), colocate=True)
    responder = BackendResponder(net.backends)
    return net, responder


def calibrate_capacity(net, window_s: float) -> float:
    """Waves/second the tree services for distinct (uncoalescable)
    queries — the saturation point the offered-load sweep is scaled
    against."""
    gw = Gateway(net, cache_ttl=0.0)
    try:
        session = gw.session("calibrate")
        # Warm-up: stream opened, routes learned.
        session.submit(sum_query(0)).result(timeout=WAIT)
        waves = 0
        seq = 1
        start = time.perf_counter()
        while time.perf_counter() - start < window_s:
            session.submit(sum_query(seq)).result(timeout=WAIT)
            waves += 1
            seq += 1
        elapsed = time.perf_counter() - start
        return waves / elapsed
    finally:
        gw.close()


def bench_offered_load(
    net, capacity: float, multiplier: float, duration_s: float
) -> dict:
    """Offer ``multiplier × capacity`` distinct queries/s for
    *duration_s*; count serviced vs. typed sheds, time each shed
    decision, and watch the pending queue stay bounded."""
    max_pending = 64
    gw = Gateway(
        net,
        rate=capacity,
        burst=max(8.0, capacity / 4),
        max_pending=max_pending,
        cache_ttl=0.0,
    )
    try:
        sessions = [gw.session(f"client-{i}") for i in range(32)]
        interval = 1.0 / (capacity * multiplier)
        offered = 0
        admitted = []
        sheds = {"rate": 0, "queue": 0, "backpressure": 0}
        shed_timings = []
        max_pending_seen = 0
        seq = 0
        start = time.perf_counter()
        next_at = start
        while True:
            now = time.perf_counter()
            if now - start >= duration_s:
                break
            if now < next_at:
                time.sleep(min(next_at - now, interval))
                continue
            next_at += interval
            session = sessions[seq % len(sessions)]
            seq += 1
            offered += 1
            t0 = time.perf_counter()
            try:
                admitted.append(session.submit(sum_query(seq)))
            except Overloaded as exc:
                shed_timings.append(time.perf_counter() - t0)
                sheds[exc.reason] += 1
                assert exc.retry_after >= 0.0
            max_pending_seen = max(max_pending_seen, gw.stats()["pending"])
        # Drain: everything admitted must complete (no tree stall).
        for ticket in admitted:
            ticket.result(timeout=WAIT)
        serviced = len(admitted)
        assert serviced + sum(sheds.values()) == offered
        assert max_pending_seen <= max_pending, "unbounded queue growth"
        shed_mean_ms = (
            sum(shed_timings) / len(shed_timings) * 1e3 if shed_timings else 0.0
        )
        return {
            "offered": offered,
            "serviced": serviced,
            "shed": sheds,
            "serviced_fraction": round(serviced / max(offered, 1), 4),
            "shed_mean_ms": round(shed_mean_ms, 4),
        }
    finally:
        gw.close()


@pytest.mark.benchmark(group="fig9")
def test_fig9_live_gateway_offered_load(benchmark, report):
    """Figure 9's question asked of the LIVE gateway, not the simulator:
    what fraction of offered load does the front-end service as demand
    outgrows capacity?  A colocated tree with echo daemons is
    calibrated to its wave capacity C, then offered 0.5×, 1× and 2× C
    through the admission-controlled gateway.  The simulator's flat
    front-end silently falls behind; the gateway instead shreds the
    overload into *typed* ``Overloaded`` rejections while servicing at
    least the gated floor — bounded queue, no tree stall.
    """
    net, responder = build_tree(2, 2)
    try:
        capacity = calibrate_capacity(net, window_s=0.6)
        rows = []

        def sweep():
            for multiplier in (0.5, 1.0, 2.0):
                row = bench_offered_load(
                    net, capacity, multiplier, duration_s=0.8
                )
                rows.append(
                    (
                        f"{multiplier:g}x",
                        row["offered"],
                        row["serviced"],
                        sum(row["shed"].values()),
                        row["serviced_fraction"],
                        row["shed_mean_ms"],
                    )
                )
            return rows

        benchmark.pedantic(sweep, rounds=1, iterations=1)
    finally:
        responder.stop()
        net.shutdown()

    report(
        "fig9_live_gateway",
        f"Figure 9 (live gateway): serviced fraction vs offered load "
        f"(capacity {capacity:.0f} waves/s, 4 daemons)",
        ["offered", "queries", "serviced", "shed", "fraction", "shed-ms"],
        rows,
    )
    by_mult = {r[0]: r for r in rows}
    # Below saturation the gateway services everything it is offered.
    assert by_mult["0.5x"][4] >= 0.95
    # At 2x the overload is shed as typed rejections, never queued
    # unboundedly — and the serviced fraction holds the gated floor.
    assert by_mult["2x"][3] > 0, "2x offered load produced no sheds"
    assert by_mult["2x"][4] >= SERVICED_FLOOR_2X
