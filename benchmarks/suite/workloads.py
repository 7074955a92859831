"""The seven workloads of the live-overlay benchmark.

Each ``run_<name>(seed, seconds, traced)`` builds its tree(s), drives
the load for *seconds*, checks every output and returns a
:class:`Result`.  One driver thread throughout (``gateway_open`` adds
the ``BackendResponder`` thread); back-ends are the in-process
``net.backends`` handles.  See README.md for why each workload exists.
"""

from __future__ import annotations

import os
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from harness import (
    OUT_DIR, Checker, Spans, eventloop_per_op, fig3_per_op, median,
    median_setup, now, percentile, stall_frac, stats_delta, windowed_rate,
)
from repro import TFILTER_SUM, Network
from repro.faultinject import FaultInjector
from repro.gateway import BackendResponder, Gateway, Overloaded, Query
from repro.topology import balanced_tree

#: No single library call in a healthy run comes near this; a call that
#: does is a failed operation and ends the run.
OP_TIMEOUT = 10.0

#: The full-length counts below are sized for this many seconds; shorter
#: runs (the traced quarter, ``--smoke``) scale warm-up down with it.
FULL_SECONDS = 10.0


@dataclass
class Result:
    e2e: Dict[str, float]
    layer: Dict[str, float]
    checker: Checker
    info: Dict[str, object] = field(default_factory=dict)
    #: Validity limits the run broke: it still counts, but it measured
    #: the load generator as much as the program.
    flags: List[str] = field(default_factory=list)


@dataclass
class Tree:
    net: Network
    stream: object
    bes: list
    setup_s: float = 0.0
    build_s: float = 0.0
    new_stream_ms: float = 0.0
    handles: Optional[list] = None  # back-end stream handles (stream_process)


def _scaled(count: int, seconds: float) -> int:
    return max(2, int(count * min(1.0, seconds / FULL_SECONDS)))


def _call(spans: Optional[Spans], name: str, op: int, fn, *args, **kwargs):
    """Run one driver call, recording a span around it when tracing."""
    if spans is None:
        return fn(*args, **kwargs)
    t0 = now()
    out = fn(*args, **kwargs)
    spans.add(name, t0, now(), "wave", op)
    return out


def open_tree(fanout, depth, first_wave, chk, stream_kwargs=None, **net_kwargs) -> Tree:
    """``Network(...)`` → SUM stream → first verified wave, timed."""
    t0 = now()
    net = Network(balanced_tree(fanout, depth), **net_kwargs)
    try:
        t1 = now()
        stream = net.new_stream(
            net.get_broadcast_communicator(), transform=TFILTER_SUM,
            **(stream_kwargs or {}),
        )
        t2 = now()
        tree = Tree(net, stream, [net.backends[r] for r in sorted(net.backends)])
        first_wave(tree, 0, chk, None)
        tree.setup_s = now() - t0
        tree.build_s = t1 - t0
        tree.new_stream_ms = (t2 - t1) * 1e3
    except BaseException:
        net.shutdown()
        raise
    return tree


def close_tree(tree: Tree) -> float:
    t0 = now()
    tree.net.shutdown()
    return now() - t0


# -- closed-loop waves --------------------------------------------------------
#
# A wave function drives one complete operation with exactly one wave
# outstanding and returns (t_start, t_down, t_end): FE send, last BE
# recv returned, FE recv returned.


def make_rtt_wave(values: List[int]) -> Callable:
    def wave(tree, i, chk, spans):
        v = values[i % len(values)]
        stream, bes = tree.stream, tree.bes
        t0 = now()
        _call(spans, "fe.send", i, stream.send, "%d", v)
        got = [_call(spans, "be.recv", i, be.recv, timeout=OP_TIMEOUT) for be in bes]
        t_down = now()
        for be, (packet, bstream) in zip(bes, got):
            _call(spans, "be.send", i, bstream.send, "%d", packet.unpack()[0] + be.rank)
        total = _call(spans, "fe.recv", i, stream.recv, timeout=OP_TIMEOUT).unpack()[0]
        t_end = now()
        want = len(bes) * v + sum(be.rank for be in bes)
        chk.expect(total == want, f"rtt wave {i}: sum {total} != {want}")
        return t0, t_down, t_end

    return wave


BULK_BYTES = 4 << 20


def make_bulk_wave(payload: np.ndarray) -> Callable:
    def wave(tree, i, chk, spans):
        stream, bes = tree.stream, tree.bes
        t0 = now()
        _call(spans, "fe.send", i, stream.send, "%d", i)
        got = [_call(spans, "be.recv", i, be.recv, timeout=OP_TIMEOUT) for be in bes]
        t_down = now()
        for _be, (_packet, bstream) in zip(bes, got):
            _call(spans, "be.send", i, bstream.send, "%alf", payload)
        packet = _call(spans, "fe.recv", i, stream.recv, timeout=3 * OP_TIMEOUT)
        t_end = now()
        # Small integers: the float64 sum of 8 copies is exact.
        chk.expect(
            np.array_equal(packet.array(0), payload * len(bes)),
            f"bulk wave {i}: reduced array differs from {len(bes)} x payload",
        )
        return t0, t_down, t_end

    return wave


MCAST_BURST = 32
MCAST_BLOB = 1024


def make_mcast_wave(blobs: List[str]) -> Callable:
    def wave(tree, i, chk, spans):
        stream, bes = tree.stream, tree.bes
        base = i * MCAST_BURST
        t0 = now()
        for k in range(MCAST_BURST):
            _call(spans, "fe.send", i, stream.send, "%d %s", base + k, blobs[k])
        handles = []
        for be in bes:
            good = 0
            for k in range(MCAST_BURST):
                packet, bstream = _call(spans, "be.recv", i, be.recv, timeout=OP_TIMEOUT)
                seq, blob = packet.unpack()
                good += seq == base + k and blob == blobs[k]
            chk.expect(
                good == MCAST_BURST,
                f"mcast wave {i}: back-end {be.rank} verified {good}/{MCAST_BURST}",
            )
            handles.append((bstream, good))
        t_down = now()
        for bstream, good in handles:
            _call(spans, "be.send", i, bstream.send, "%d", good)
        total = _call(spans, "fe.recv", i, stream.recv, timeout=OP_TIMEOUT).unpack()[0]
        t_end = now()
        want = len(bes) * MCAST_BURST
        chk.expect(total == want, f"mcast wave {i}: count {total} != {want}")
        return t0, t_down, t_end

    return wave


def _drive(tree, wave, chk, spans, seconds, start_index):
    """Closed loop for *seconds*; returns (latencies, downs, end stamps, next index)."""
    lat, down, stamps = [], [], []
    i = start_index
    deadline = now() + seconds
    while True:
        t0, t_down, t_end = wave(tree, i, chk, spans)
        lat.append(t_end - t0)
        down.append(t_down - t0)
        stamps.append(t_end)
        i += 1
        if t_end >= deadline:
            return lat, down, stamps, i


def run_closed_loop(
    name: str,
    shape: tuple,
    wave: Callable,
    seconds: float,
    traced: bool,
    warmup: int,
    tail_p: float,
    payload_bytes: int,
    setups: int,
    stream_kwargs: Optional[dict] = None,
    stalls: bool = True,
    **net_kwargs,
) -> Result:
    chk = Checker()
    tree, setup_s, setup_all = median_setup(
        lambda: open_tree(*shape, wave, chk, stream_kwargs, **net_kwargs),
        close_tree, setups,
    )
    layer: Dict[str, float] = {}
    info: Dict[str, object] = {"setup_samples": setup_all, "tail_percentile": tail_p}
    try:
        net = tree.net
        for index in range(1, 1 + _scaled(warmup, seconds)):
            wave(tree, index, chk, None)
        index += 1
        if not traced:
            t_start = now()
            lat, down, stamps, index = _drive(tree, wave, chk, None, seconds, index)
            t_stop = now()
            untraced = lat
        else:
            # Alternate untraced and traced blocks on the same tree: the
            # ratio of their medians is the tracing overhead, and only
            # the traced blocks feed the per-layer numbers.
            spans = Spans()
            blocks = 2
            block_s = seconds / (2 * blocks)
            plain: List[float] = []
            lat, down, stamps = [], [], []
            fig3 = {}
            t0 = now()
            before = net.stats()
            layer["obs.stats_gather_ms"] = (now() - t0) * 1e3
            for _ in range(blocks):
                p_lat, _d, _s, index = _drive(tree, wave, chk, None, block_s, index)
                plain += p_lat
                net.start_trace()
                t_lat, t_down, t_stamps, index = _drive(tree, wave, chk, spans, block_s, index)
                net.stop_trace()
                for key, value in fig3_per_op(net.trace_chrome_json(), 1).items():
                    fig3[key] = fig3.get(key, 0.0) + value
                lat += t_lat
                down += t_down
                stamps += t_stamps
            delta = stats_delta(before, net.stats())
            n_all = len(plain) + len(lat)
            layer.update(eventloop_per_op(delta, n_all))
            layer.update({k: v / len(lat) for k, v in fig3.items()})
            layer["obs.trace_overhead_ratio"] = median(lat) / median(plain)
            layer["core.stream.send_us"] = spans.mean_us("fe.send")
            layer["core.stream.recv_wait_ms"] = spans.mean_us("fe.recv") / 1e3
            layer["core.backend.recv_us"] = spans.mean_us("be.recv")
            layer["core.backend.send_us"] = spans.mean_us("be.send")
            spans.write_chrome(OUT_DIR / f"{name}.spans.json")
            t_start, t_stop = stamps[0] - lat[0], stamps[-1]
            untraced = plain
    finally:
        shutdown_s = close_tree(tree)
    wave_p50 = median(lat)
    e2e = {
        "setup_s": setup_s,
        "latency_p50_ms": wave_p50 * 1e3,
        "throughput_per_s": windowed_rate(stamps, lat, t_start, t_stop),
    }
    layer.update({
        "workload.down_p50_ms": median(down) * 1e3,
        "workload.payload_mb_per_s": payload_bytes / wave_p50 / 1e6,
        "workload.latency_tail_ms": percentile(untraced, tail_p) * 1e3,
        "core.network.build_s": tree.build_s,
        "core.network.new_stream_ms": tree.new_stream_ms,
        "core.network.shutdown_s": shutdown_s,
    })
    if stalls:
        layer["transport.eventloop.stall_frac"] = stall_frac(untraced)
    info["samples"] = len(lat)
    info["wave_p50_s"] = wave_p50
    return Result(e2e, layer, chk, info)


def _values(seed: int, n: int = 4096) -> List[int]:
    rng = random.Random(seed)
    return [rng.randrange(1, 1_000_000) for _ in range(n)]


def run_rtt_colocated(seed, seconds, traced) -> Result:
    return run_closed_loop(
        "rtt_colocated", (4, 3), make_rtt_wave(_values(seed)), seconds, traced,
        warmup=200, tail_p=99, payload_bytes=64 * 4, setups=25, colocate=True,
    )


def run_rtt_tcp(seed, seconds, traced) -> Result:
    return run_closed_loop(
        "rtt_tcp", (4, 3), make_rtt_wave(_values(seed)), seconds, traced,
        warmup=100, tail_p=95, payload_bytes=64 * 4, setups=15, transport="tcp",
    )


def run_bulk_tcp(seed, seconds, traced) -> Result:
    rng = np.random.default_rng(seed)
    payload = rng.integers(0, 1 << 20, size=BULK_BYTES // 8).astype(np.float64)
    payload.setflags(write=False)
    return run_closed_loop(
        "bulk_tcp", (2, 3), make_bulk_wave(payload), seconds, traced,
        warmup=5, tail_p=90, payload_bytes=8 * BULK_BYTES, setups=3,
        # Every healthy wave here is over the 40 ms that marks a stall.
        stream_kwargs={"chunk_bytes": 1 << 20}, stalls=False, transport="tcp",
    )


def run_mcast_colocated(seed, seconds, traced) -> Result:
    rng = random.Random(seed)
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
    blobs = ["".join(rng.choices(alphabet, k=MCAST_BLOB)) for _ in range(MCAST_BURST)]
    return run_closed_loop(
        "mcast_colocated", (4, 3), make_mcast_wave(blobs), seconds, traced,
        warmup=50, tail_p=95, payload_bytes=64 * MCAST_BURST * MCAST_BLOB,
        setups=15, colocate=True,
    )


def run_local_runtime(seed: int, trees: int = 5, waves: int = 12) -> Dict[str, float]:
    """``rtt_colocated``'s loop on the default ``transport="local"``.

    Un-gated: the default runtime is bimodal from one fresh tree to the
    next (stalls are whole multiples of the 50 ms loop idle cap), so it
    cannot repeat within any bound yet.  Per-tree medians are listed.
    """
    wave = make_rtt_wave(_values(seed))
    chk = Checker()
    per_tree, all_lat = [], []
    for _ in range(trees):
        tree = open_tree(4, 3, wave, chk)
        try:
            lat = []
            for i in range(1, waves + 1):
                t0, _d, t1 = wave(tree, i, chk, None)
                lat.append(t1 - t0)
        finally:
            close_tree(tree)
        per_tree.append(median(lat) * 1e3)
        all_lat += lat
    if chk.failed:
        raise RuntimeError(f"transport='local' probe failed: {chk.notes}")
    return {
        "runtime.local.rtt_p50_ms": median(all_lat) * 1e3,
        "runtime.local.stall_frac": stall_frac(all_lat),
        "per_tree_p50_ms": per_tree,
    }


def run_unpinned_tcp(seed: int, cpus: frozenset, budget: float = 1.5) -> Dict[str, float]:
    """``rtt_tcp``'s loop on a fresh tree with the one-CPU pin lifted.

    Un-gated evidence for the pin: threads inherit the affinity of the
    thread that starts them, so a tree built while the driver may run
    on *cpus* has its node threads spread over them and pays cross-CPU
    wake-ups on every hop.
    """
    wave = make_rtt_wave(_values(seed))
    chk = Checker()
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        tree = open_tree(4, 3, wave, chk, transport="tcp")
        try:
            lat, _down, _stamps, _i = _drive(tree, wave, chk, None, budget, 1)
        finally:
            close_tree(tree)
    finally:
        os.sched_setaffinity(0, pinned)
    if chk.failed:
        raise RuntimeError(f"unpinned tcp probe failed: {chk.notes}")
    return {"runtime.unpinned.rtt_tcp_p50_ms": median(lat) * 1e3}


# -- stream_process: pipelined upstream throughput ----------------------------

STREAM_GROUP = 8  # waves each back-end queues before one flush()
STREAM_WINDOW = 64  # waves the driver keeps in flight
DRIVER_BUSY_LIMIT = 0.5  # share of the timed section not blocked in stream.recv
SPAN_EVERY = 8


def run_stream_process(seed, seconds, traced) -> Result:
    chk = Checker()
    values = _values(seed)

    def first_wave(tree, i, chk, spans):
        # One downstream packet announces the stream to the back-ends.
        tree.stream.send("%d", 0)
        tree.handles = [be.recv(timeout=OP_TIMEOUT)[1] for be in tree.bes]
        for be, bstream in zip(tree.bes, tree.handles):
            bstream.send("%d", be.rank)
        total = tree.stream.recv(timeout=OP_TIMEOUT).unpack()[0]
        chk.expect(total == sum(be.rank for be in tree.bes), f"first wave sum {total}")

    tree, setup_s, setup_all = median_setup(
        lambda: open_tree(4, 2, first_wave, chk, transport="process"),
        close_tree, 5,
    )
    layer: Dict[str, float] = {}
    spans = Spans() if traced else None
    try:
        net, stream, bes, handles = tree.net, tree.stream, tree.bes, tree.handles
        rank_sum = sum(be.rank for be in bes)
        n_be = len(bes)
        sent = got = 0
        sent_at: List[float] = []
        lat: List[float] = []
        stamps: List[float] = []
        blocked = 0.0
        warm_s = 2.0 * min(1.0, seconds / FULL_SECONDS)
        t_begin = now()
        t_start = t_begin + warm_s
        t_stop = t_start + seconds
        before = None
        got_at_start = 0
        while True:
            t = now()
            if before is None and t >= t_start:
                if traced:
                    t0 = now()
                    before = net.stats()
                    layer["obs.stats_gather_ms"] = (now() - t0) * 1e3
                else:
                    before = {}
                t_start = now()
                t_stop = t_start + seconds
                got_at_start = got
                blocked = 0.0
            if t >= t_stop and got == sent:
                break
            while sent - got <= STREAM_WINDOW - STREAM_GROUP and now() < t_stop:
                group = [values[k % len(values)] for k in range(sent, sent + STREAM_GROUP)]
                # Spans around 1 group of waves in SPAN_EVERY, and no wrapper
                # around the other calls: 17 spans a wave made the driver, not
                # the tree, the busiest stage (busy 0.6; the wrapper alone 0.07).
                plain = spans is None or (sent // STREAM_GROUP) % SPAN_EVERY
                for be, bstream in zip(bes, handles):
                    rank = be.rank
                    if plain:
                        for v in group:
                            bstream.send("%d", v + rank, flush=False)
                        be.flush()
                        continue
                    for k, v in enumerate(group, sent):
                        _call(spans, "be.send", k, bstream.send, "%d", v + rank, flush=False)
                    _call(spans, "be.flush", sent, be.flush)
                stamp = now()
                sent_at.extend([stamp] * STREAM_GROUP)
                sent += STREAM_GROUP
            if got == sent:
                continue
            t0 = now()
            total = stream.recv(timeout=OP_TIMEOUT).unpack()[0]
            t1 = now()
            if spans is not None and not (got // STREAM_GROUP) % SPAN_EVERY:
                spans.add("fe.recv", t0, t1, "wave", got)
            blocked += t1 - t0
            want = n_be * values[got % len(values)] + rank_sum
            if total == want:
                chk.ok()
            else:
                chk.fail(f"stream wave {got}: sum {total} != {want}")
            if t0 >= t_start:
                lat.append(t1 - sent_at[got])
                stamps.append(t1)
            got += 1
        t_end = now()
        if traced:
            delta = stats_delta(before, net.stats())
            layer.update(eventloop_per_op(delta, got - got_at_start))
            layer["core.backend.send_us"] = spans.mean_us("be.send")
            layer["core.stream.recv_wait_ms"] = spans.mean_us("fe.recv") / 1e3
            spans.write_chrome(OUT_DIR / "stream_process.spans.json")
    finally:
        shutdown_s = close_tree(tree)
    # Windows end at t_stop: after it the pipeline only drains.
    waves_per_s = windowed_rate(stamps, None, t_start, t_stop)
    busy = 1.0 - blocked / (t_end - t_start)
    e2e = {
        "setup_s": setup_s,
        "latency_p50_ms": median(lat) * 1e3,
        "throughput_per_s": waves_per_s,
    }
    layer.update({
        "harness.driver_busy_frac": busy,
        "workload.payload_mb_per_s": waves_per_s * n_be * 4 / 1e6,
        "workload.latency_tail_ms": percentile(lat, 99) * 1e3,
        "core.network.build_s": tree.build_s,
        "core.network.new_stream_ms": tree.new_stream_ms,
        "core.network.shutdown_s": shutdown_s,
    })
    info = {"samples": len(lat), "setup_samples": setup_all, "tail_percentile": 99,
            "waves_per_s": waves_per_s, "driver_busy_frac": round(busy, 3)}
    flags = []
    if busy > DRIVER_BUSY_LIMIT:
        flags.append(f"generator-bound: the driver was busy {busy:.2f} of the time "
                     f"(limit {DRIVER_BUSY_LIMIT})")
    return Result(e2e, layer, chk, info, flags)


# -- gateway_open: open-loop serving ------------------------------------------

GATEWAY_RATES = (100, 300, 600, 800, 1200)
#: Share of the run each rate gets.  The gated latency is read at 800
#: qps (see run_gateway_open), so that rate gets the most samples.
GATEWAY_SHARE = {100: 0.15, 300: 0.15, 600: 0.15, 800: 0.35, 1200: 0.2}
GATEWAY_GATED_RATE = 800
GATEWAY_LIMIT_MS = 50.0  # on the p95 of a rate
LATE_LIMIT_MS = 5.0  # on the p99 of how late the generator sent a query
GATEWAY_SESSIONS = 32
MIN_QUERIES = 8  # per rate, however short the run (--smoke, traced quarter)
HOT_SHARE = 0.30
HOT_PERIOD = 0.050


@dataclass
class Serving:
    net: Network
    responder: BackendResponder
    gateway: Gateway
    sessions: list
    setup_s: float = 0.0


def _sum_query(value: int) -> Query:
    return Query("%d", (value,), transform=TFILTER_SUM)


def open_serving(chk: Checker) -> Serving:
    t0 = now()
    net = Network(balanced_tree(4, 2), colocate=True)
    responder = gateway = None
    try:
        responder = BackendResponder(net.backends)
        gateway = Gateway(net, max_pending=256, cache_ttl=0)
        sessions = [gateway.session() for _ in range(GATEWAY_SESSIONS)]
        result = sessions[0].submit(_sum_query(7)).result(timeout=OP_TIMEOUT)
        chk.expect(result == (7 * 16,), f"gateway first query returned {result}")
        serving = Serving(net, responder, gateway, sessions)
        serving.setup_s = now() - t0
        return serving
    except BaseException:
        _close_serving_parts(gateway, responder, net)
        raise


def _close_serving_parts(gateway, responder, net) -> None:
    try:
        if gateway is not None:
            gateway.close()
    finally:
        try:
            if responder is not None:
                responder.stop()
        finally:
            net.shutdown()


def close_serving(s: Serving) -> None:
    _close_serving_parts(s.gateway, s.responder, s.net)


def _offer(serving, rate, duration, rng, chk, spans, op_base):
    """Offer Poisson arrivals at *rate* for *duration*; verify every ticket.

    Latency runs from the instant a query was *due*, so time the
    generator or the gateway spent stalled counts against later queries.
    """
    due, t = [], 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= duration and len(due) >= MIN_QUERIES:
            break
        due.append(t)
    unique = 0
    offered = []  # (due_abs, value, ticket or None)
    late = []
    sessions = serving.sessions
    cpu0 = time.thread_time()
    base = time.monotonic() + 0.02
    for i, offset in enumerate(due):
        due_abs = base + offset
        wait = due_abs - time.monotonic()
        if wait > 0:
            # Sleep, never spin: a generator spinning on the pinned CPU
            # holds the GIL against the gateway-driver, loop and
            # responder threads it is there to measure.  Latency runs
            # from the due time, so waking late is charged to the query.
            time.sleep(wait)
        late.append(time.monotonic() - due_abs)
        if rng.random() < HOT_SHARE:
            value = 1 + int(offset / HOT_PERIOD)  # shared by every hot query of this 50 ms
        else:
            unique += 1
            value = 100_000 + rate * 10_000 + unique
        try:
            ticket = _call(spans, "gw.submit", op_base + i,
                           sessions[i % len(sessions)].submit, _sum_query(value))
        except Overloaded:
            ticket = None
        offered.append((due_abs, value, ticket))
    generator_cpu = (time.thread_time() - cpu0) / (time.monotonic() - base)
    lat, shed, last_done = [], 0, base
    for i, (due_abs, value, ticket) in enumerate(offered):
        if ticket is None:
            shed += 1
            continue
        try:
            result = _call(spans, "ticket.wait", op_base + i, ticket.result, timeout=OP_TIMEOUT)
        except Exception as exc:  # typed gateway errors and timeouts alike fail the query
            chk.fail(f"query {value} at {rate} qps: {exc!r}")
            continue
        if chk.expect(result == (value * 16,), f"query {value}: {result} != {value * 16}"):
            lat.append(ticket.completed_at - due_abs)
            last_done = max(last_done, ticket.completed_at)
    for session in sessions:
        while session.poll() is not None:
            pass
    return {"offered": len(due), "shed": shed, "lat": lat, "late": late,
            "drain_s": last_done - base, "generator_cpu": generator_cpu}


def _rate_summary(run: dict) -> dict:
    lat = run["lat"]
    offered = run["offered"]
    good = sum(1 for x in lat if x * 1e3 <= GATEWAY_LIMIT_MS)
    quarter = max(1, len(lat) // 4)
    first, last = median(lat[:quarter]), median(lat[-quarter:])
    tail = percentile(lat, 95) * 1e3
    return {
        "p50_ms": median(lat) * 1e3,
        "tail_ms": tail,
        "good_frac": good / offered,
        "answered": len(lat),
        "delivered_per_s": len(lat) / run["drain_s"],
        "growing": last > 1.5 * first,
        "ok": tail <= GATEWAY_LIMIT_MS and not last > 1.5 * first,
        "late_p99_ms": percentile(run["late"], 99) * 1e3,
        "generator_cpu": run["generator_cpu"],
    }


def _bare_wave_p50_ms(serving: Serving, chk: Checker, budget: float = 1.5) -> float:
    """Closed-loop wave on the gateway's own tree, driver parked.

    The responder thread still answers the back-ends, so this is the
    wave the gateway pays per leader, without admission or queueing.
    """
    net = serving.net
    with serving.gateway.paused():
        stream = net.new_stream(net.get_broadcast_communicator(), transform=TFILTER_SUM)
        lat = []
        deadline = now() + budget
        i = 0
        while len(lat) < 10 or now() < deadline:
            i += 1
            t0 = now()
            stream.send("%d", i)
            total = stream.recv(timeout=OP_TIMEOUT).unpack()[0]
            lat.append(now() - t0)
            chk.expect(total == 16 * i, f"bare gateway-tree wave {i}: {total}")
        stream.close()
    return median(lat) * 1e3


def run_gateway_open(seed, seconds, traced) -> Result:
    chk = Checker()
    rng = random.Random(seed)
    serving, setup_s, setup_all = median_setup(lambda: open_serving(chk), close_serving, 15)
    layer: Dict[str, float] = {}
    spans = Spans() if traced else None
    per_rate = {}
    try:
        net, gateway = serving.net, serving.gateway
        # Warm the gateway's stream and the tree before the first rate.
        _offer(serving, 200, 0.5 * min(1.0, seconds / FULL_SECONDS), rng, chk, None, 0)
        gw_before = gateway.stats()
        if traced:
            t0 = now()
            before = net.stats()
            layer["obs.stats_gather_ms"] = (now() - t0) * 1e3
            net.start_trace()
        op_base = 0
        for rate in GATEWAY_RATES:
            run = _offer(serving, rate, seconds * GATEWAY_SHARE[rate], rng, chk, spans, op_base)
            op_base += run["offered"]
            per_rate[rate] = dict(_rate_summary(run), **run)
        gw_after = gateway.stats()
        if traced:
            net.stop_trace()
            waves = max(1, gw_after["waves"] - gw_before["waves"])
            layer.update(fig3_per_op(net.trace_chrome_json(), waves))
            layer.update(eventloop_per_op(stats_delta(before, net.stats()), waves))
            layer["gateway.submit_us"] = spans.mean_us("gw.submit")
            bare = _bare_wave_p50_ms(serving, chk)
            layer["gateway.bare_wave_p50_ms"] = bare
            layer["gateway.overhead_ms"] = per_rate[GATEWAY_RATES[0]]["p50_ms"] - bare
            layer["gateway.shed_us"] = _shed_cost_us(serving)
            spans.write_chrome(OUT_DIR / "gateway_open.spans.json")
    finally:
        t0 = now()
        close_serving(serving)
        shutdown_s = now() - t0
    queries = gw_after["queries"] - gw_before["queries"]
    waves = gw_after["waves"] - gw_before["waves"]
    lo, hi = per_rate[GATEWAY_RATES[0]], per_rate[GATEWAY_RATES[-1]]
    gated = per_rate[GATEWAY_GATED_RATE]
    pooled = [x for r in GATEWAY_RATES for x in per_rate[r]["lat"]]
    ok_rates = [r for r in GATEWAY_RATES if per_rate[r]["ok"]]
    # Latency at 100 and 300 qps flips between ~3 ms and ~60 ms from one
    # run to the next (a missed loop wake-up parks the tree on its 50 ms
    # idle cap, and once it starts it persists), so no bound can hold
    # there, and at 600 qps one run in four still escapes the slow mode.
    # At 800 qps, still under the ~1100/s the gateway delivers, every
    # calibration run was in it.  The 100 qps numbers the issue asked
    # for are reported un-gated, per layer.
    e2e = {
        "setup_s": setup_s,
        "latency_p50_ms": gated["p50_ms"],
        # Correct answers over the time the gateway took to deliver the
        # last of them: below the offered 1200/s once a backlog forms.
        "throughput_per_s": hi["delivered_per_s"],
    }
    # The generator is judged at the two rates the gated numbers come from.
    late = max(gated["late_p99_ms"], hi["late_p99_ms"])
    layer.update({
        "gateway.query_p50_ms": lo["p50_ms"],
        "gateway.query_tail_ms": lo["tail_ms"],
        "gateway.good_frac_hi": hi["good_frac"],
        "gateway.max_rate_ok_qps": float(max(ok_rates, default=0)),
        "gateway.coalesced_frac": (gw_after["coalesced"] - gw_before["coalesced"]) / max(1, queries),
        "gateway.waves_per_query": waves / max(1, queries),
        "harness.late_p99_ms": late,
        "harness.generator_cpu_frac": max(gated["generator_cpu"], hi["generator_cpu"]),
        "workload.latency_tail_ms": gated["tail_ms"],
        "transport.eventloop.stall_frac": stall_frac(pooled),
        "core.network.shutdown_s": shutdown_s,
    })
    for rate in GATEWAY_RATES:
        layer[f"gateway.r{rate}.tail_ms"] = per_rate[rate]["tail_ms"]
        layer[f"gateway.r{rate}.good_frac"] = per_rate[rate]["good_frac"]
        layer[f"gateway.r{rate}.late_p99_ms"] = per_rate[rate]["late_p99_ms"]
    info = {
        "samples": len(pooled), "setup_samples": setup_all, "tail_percentile": 95,
        "per_rate": {
            r: {k: round(v, 3) for k, v in s.items() if k not in ("lat", "late")}
            for r, s in per_rate.items()
        },
    }
    flags = []
    if late > LATE_LIMIT_MS:
        flags.append(f"late generator: p99 of queries sent {late:.1f} ms after they were due "
                     f"(limit {LATE_LIMIT_MS:g} ms) while the generator used "
                     f"{layer['harness.generator_cpu_frac']:.2f} of a CPU; "
                     "latency runs from the due time and includes it")
    return Result(e2e, layer, chk, info, flags)


def _shed_cost_us(serving: Serving) -> float:
    """Cost of one typed ``Overloaded`` rejection: fill the queue with
    the driver parked, then time submits that must be shed."""
    session = serving.gateway.session()
    tickets, costs = [], []
    with serving.gateway.paused():
        value = 900_000
        while True:
            value += 1
            t0 = now()
            try:
                tickets.append(session.submit(_sum_query(value)))
            except Overloaded:
                costs.append(now() - t0)
                if len(costs) >= 200:
                    break
    for ticket in tickets:
        ticket.result(timeout=OP_TIMEOUT)
    session.close()
    return statistics.fmean(costs) * 1e6


# -- recover_tcp: control-plane recovery --------------------------------------

RECOVER_WAVE_LIMIT = 1.0  # a wave slower than this is failed and re-driven
POLL_PAUSE = 0.0002


def _poll_wave(tree, i, spans, limit=RECOVER_WAVE_LIMIT):
    """One SUM wave driven with non-blocking polls; None if it timed out."""
    stream, bes = tree.stream, tree.bes
    t0 = now()
    _call(spans, "fe.send", i, stream.send, "%d", i)
    pending = list(bes)
    while True:
        still = []
        for be in pending:
            if be.shut_down:
                continue
            got = be.poll()
            if got is None:
                still.append(be)
            else:
                _call(spans, "be.send", i, got[1].send, "%d", 1)
        progressed = len(still) < len(pending)
        pending = still
        packet = stream.try_recv()
        if packet is not None:
            if spans is not None:
                spans.add("fe.recv", t0, now(), "wave", i)
            return packet.unpack()[0]
        if now() - t0 > limit:
            return None
        if not progressed:
            # Polling without a pause would hold the GIL against the
            # very node threads whose work the driver is waiting for.
            time.sleep(POLL_PAUSE)


def run_recover_tcp(seed, seconds, traced) -> Result:
    chk = Checker()
    rng = random.Random(seed)
    spans = Spans() if traced else None
    layer: Dict[str, float] = {}
    recov, degraded, shorts, adopted, setups = [], [], [], [], []
    healthy_lat: List[float] = []
    healthy_at: List[float] = []
    builds, new_streams, shutdowns = [], [], []
    fig3: Dict[str, float] = {}
    traced_waves = 0
    n_be = 16

    def first_wave(tree, i, chk, spans):
        total = _poll_wave(tree, i, spans)
        chk.expect(total == n_be, f"recover first wave sum {total}")

    t_start = now()
    deadline = t_start + seconds
    trial = 0
    while trial < 3 or now() < deadline:
        trial += 1
        tree = open_tree(4, 2, first_wave, chk, transport="tcp", policy="repair")
        try:
            net = tree.net
            setups.append(tree.setup_s)
            builds.append(tree.build_s)
            new_streams.append(tree.new_stream_ms)
            victim = rng.randrange(net.num_internal_nodes)
            offset = rng.uniform(0.02, 0.06)
            if traced:
                net.start_trace()
            i = 1
            t0 = now()
            while now() - t0 < offset:
                a = now()
                total = _poll_wave(tree, i, spans)
                healthy_at.append(now())
                healthy_lat.append(healthy_at[-1] - a)
                chk.expect(total == n_be, f"healthy wave {i} of trial {trial}: sum {total}")
                i += 1
            FaultInjector(net).kill_commnode(victim)
            t_kill = now()
            short = 0
            first_after = None
            while True:
                total = _poll_wave(tree, i, spans)
                i += 1
                t = now()
                if first_after is None:
                    first_after = t - t_kill
                if total == n_be:
                    chk.ok()
                    break
                if total is None:
                    chk.fail(f"trial {trial}: a wave took over {RECOVER_WAVE_LIMIT}s after the kill")
                elif 0 < total < n_be:
                    short += 1  # degraded: survivors only, not wrong
                    chk.ok()
                else:
                    chk.fail(f"trial {trial}: impossible sum {total} after the kill")
                if t - t_kill > 5.0:
                    chk.fail(f"trial {trial}: membership never recovered")
                    break
            recov.append(now() - t_kill)
            degraded.append(first_after)
            shorts.append(short)
            if traced:
                net.stop_trace()
                for key, value in fig3_per_op(net.trace_chrome_json(), 1).items():
                    fig3[key] = fig3.get(key, 0.0) + value
                traced_waves += i
                adopted.append(net.stats()["recovery"]["orphans_adopted"])
        finally:
            shutdowns.append(close_tree(tree))
    if traced:
        layer.update({k: v / max(1, traced_waves) for k, v in fig3.items()})
        layer["core.failure.orphans_adopted"] = statistics.fmean(adopted)
        layer["core.stream.send_us"] = spans.mean_us("fe.send")
        layer["core.backend.send_us"] = spans.mean_us("be.send")
        spans.write_chrome(OUT_DIR / "recover_tcp.spans.json")
    e2e = {
        "setup_s": median(setups),
        "latency_p50_ms": median(recov) * 1e3,
        # Healthy waves run back to back inside a trial, but trials also
        # build and tear down trees: count waves against their own time.
        "throughput_per_s": windowed_rate(healthy_at, healthy_lat, t_start, now()),
    }
    layer.update({
        "workload.latency_tail_ms": percentile(recov, 90) * 1e3,
        "core.failure.degraded_wave_ms": median(degraded) * 1e3,
        "core.failure.short_waves": statistics.fmean(shorts),
        "transport.eventloop.stall_frac": stall_frac(healthy_lat),
        "core.network.build_s": median(builds),
        "core.network.new_stream_ms": median(new_streams),
        "core.network.shutdown_s": median(shutdowns),
    })
    info = {"samples": len(recov), "tail_percentile": 90,
            "recovery_ms": [round(x * 1e3, 2) for x in recov]}
    return Result(e2e, layer, chk, info)


WORKLOADS: Dict[str, Callable[[int, float, bool], Result]] = {
    "rtt_colocated": run_rtt_colocated,
    "rtt_tcp": run_rtt_tcp,
    "stream_process": run_stream_process,
    "bulk_tcp": run_bulk_tcp,
    "mcast_colocated": run_mcast_colocated,
    "gateway_open": run_gateway_open,
    "recover_tcp": run_recover_tcp,
}
