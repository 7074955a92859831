"""Budgets: what `benchmarks/suite` does not time, held under fixed ceilings.

`BENCHMARK.json` + `benchmarks/suite` is the repository's benchmark.
This file keeps the few gates that have no workload there and whose
both sides are shipped code: a process tree with internal grandchildren
comes up in time, a 1000-leaf tree costs one thread, 5,000 streams are
created by one control wave, a death under 5,000 streams is one report,
and five features that must stay cheap
(idle streams, concurrent streams, heartbeats, deposits, tracing) are
timed against the same code with the feature off or small.

Run with ``python -m pytest benchmarks/test_budgets.py -q`` (outside
tier-1, about 30 s).  No flags, no modes, no stored baseline: every
budget is a constant beside the value measured on the 2-CPU development
VM, 2x to 5x above it because that VM runs at two speeds 25 % apart.
A ratio is the median over rounds that alternate its two arms, so both
share whatever speed the machine has at that moment.
"""

import gc
import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent / "suite"))
import harness  # noqa: E402  (read-only: clock, median, leak census)

harness.export_pythonpath()  # puts src on sys.path

from repro.core.batching import encode_batch  # noqa: E402
from repro.core.commnode import NodeCore  # noqa: E402
from repro.core.failure import DEGRADE, REPAIR  # noqa: E402
from repro.core.network import Network  # noqa: E402
from repro.core.packet import Packet  # noqa: E402
from repro.core.protocol import (  # noqa: E402
    TAG_RANKS_CHANGED,
    WAVE_REDUCE,
    make_endpoint_report,
    make_new_stream,
    make_new_streams,
)
from repro.filters.registry import (  # noqa: E402
    SFILTER_WAITFORALL,
    TFILTER_SUM,
    default_registry,
)
from repro.obs.tracing import TraceRecorder  # noqa: E402
from repro.topology import balanced_tree  # noqa: E402
from repro.transport.channel import Channel, Inbox  # noqa: E402

WAIT = 60.0


@pytest.fixture
def tree():
    """Build trees through this; each is shut down and must leak nothing."""
    nets = []

    def build(topology, **settings):
        nets.append(Network(topology, **settings))
        return nets[-1]

    yield build
    for net in nets:
        net.shutdown()
    assert harness.leaked_resources() == []


def sum_wave(net, stream=None):
    """One broadcast + SUM reduction over every back-end; the total."""
    stream = stream or net.new_stream(
        net.get_broadcast_communicator(), transform=TFILTER_SUM
    )
    stream.send("%d", 0)
    for rank in sorted(net.backends):
        _, bstream = net.backends[rank].recv(timeout=WAIT)
        bstream.send("%d", 1)
    return stream.recv_values(timeout=WAIT)[0]


def settle(net, condition):
    """Pump the front-end until *condition* holds."""
    deadline = harness.now() + WAIT
    while not condition():
        assert harness.now() < deadline, "tree did not settle"
        net._pump(0.001)


# -- absolute budgets ---------------------------------------------------------


def test_64_leaf_depth_3_process_tree_starts_in_time(tree):
    """Paper §2.5 / Figure 7a: the front-end forks its children and each
    comm-node process forks its own subtree before dialling its parent,
    so bring-up follows depth and no level starts an interpreter.  The
    only timed tree whose internal nodes have internal children."""
    times = []
    for _ in range(3):
        t0 = harness.now()
        net = tree(balanced_tree(4, 3), transport="process")
        times.append(harness.now() - t0)
        assert len(net.backends) == 64
        assert sum_wave(net) == 64
        net.shutdown()
        assert harness.leaked_resources() == []
    # Measured 0.13 s (0.12-0.14 over five batches); starting each root
    # child as a fresh interpreter instead read 0.92 s.
    assert harness.median(times) < 0.5


def test_1000_leaf_colocated_tree_costs_one_thread(tree):
    before = set(threading.enumerate())
    t0 = harness.now()
    net = tree(balanced_tree(10, 3), colocate=True)
    startup = harness.now() - t0
    fresh = [t.name for t in threading.enumerate() if t not in before]
    assert fresh == ["colocated-host"]  # 110 internal nodes, one loop
    assert sum_wave(net) == 1000
    assert startup < 0.3  # measured 0.07 s


def test_5000_streams_are_created_by_one_control_wave(tree):
    net = tree(balanced_tree(4, 3), colocate=True)
    comm = net.get_broadcast_communicator()
    t0 = harness.now()
    streams = net.new_streams([(comm, {"transform": TFILTER_SUM})] * 5000)
    last = streams[-1].stream_id
    settle(net, lambda: all(
        last in node.core._stream_specs or last in node.core.streams
        for node in net._commnodes
    ))
    assert harness.now() - t0 < 1.2  # measured 0.37 s
    assert sum_wave(net, streams[-1]) == 64


# -- the same code at two sizes -----------------------------------------------


def bare_core():
    """A stand-alone NodeCore over two children (ranks 0,1 and 2,3);
    returns it and the children's link ids."""
    inbox = Inbox()
    core = NodeCore(
        "budget-node", default_registry(), 4,
        parent=Channel(Inbox(), inbox).end_b, inbox=inbox,
    )
    links = []
    for ranks in ([0, 1], [2, 3]):
        child = Channel(inbox, Inbox())
        core.add_child(child.end_a)
        core.dispatch(child.link_id, make_endpoint_report(ranks))
        links.append(child.link_id)
    return core, links


def test_a_death_under_5000_specs_is_one_report():
    """Membership is a fact about the tree: a child's death under 5,000
    announced, untouched streams builds no manager and sends one
    report, whatever the number of streams."""
    times = []
    for _ in range(5):
        core, links = bare_core()
        core.handle_control_down(make_new_streams([[0, 1, 2, 3]], [
            (sid, 0, SFILTER_WAITFORALL, TFILTER_SUM, 0.0, 0, 0, WAVE_REDUCE)
            for sid in range(1, 5001)
        ]))
        core.flush()
        t0 = harness.now()
        core.handle_payload(links[1], None)
        times.append(harness.now() - t0)
        assert core.streams == {}
        (report,) = core._parent_buffer.drain()
        assert report.tag == TAG_RANKS_CHANGED
    # measured 0.13 ms; building a manager per spec read 490-680 ms
    assert harness.median(times) < 0.020


def idle_core(n_streams):
    """A stand-alone NodeCore holding *n_streams* open, idle streams."""
    core, _ = bare_core()
    for sid in range(1, n_streams + 1):
        core.handle_control_down(
            make_new_stream(sid, [0, 1, 2, 3], SFILTER_WAITFORALL, TFILTER_SUM)
        )
        core.stream_state(sid)  # a live manager, not an announced spec
    core.flush()
    assert len(core.streams) == n_streams
    return core


def interleaved_ratio(small, large, rounds):
    """Median over *rounds* of time(large) / time(small), back to back."""
    ratios = []
    gc.disable()
    try:
        for _ in range(rounds):
            t0 = harness.now()
            small()
            t1 = harness.now()
            large()
            ratios.append((harness.now() - t1) / (t1 - t0))
    finally:
        gc.enable()
    return harness.median(ratios)


def test_idle_tick_is_flat_from_64_to_5000_streams():
    """What the event loop pays per iteration per core must follow the
    streams with work pending, not the streams open."""

    def ticks(core):
        def run():
            for _ in range(2000):
                core.poll_streams()
                core.next_timeout_deadline()
        return run

    ratio = interleaved_ratio(ticks(idle_core(64)), ticks(idle_core(5000)), 15)
    assert ratio < 3.0  # measured 1.0x; a scan of every stream reads ~50x


def test_16_streams_cost_no_more_per_wave_than_one(tree):
    """Figure 9's 16-metric shape, live: every back-end of a 64-leaf
    tree contributes to 16 SUM streams per round."""
    net = tree(balanced_tree(4, 3), colocate=True)
    comm = net.get_broadcast_communicator()
    one = net.new_streams([(comm, {"transform": TFILTER_SUM})])
    many = net.new_streams([(comm, {"transform": TFILTER_SUM})] * 16)
    backends = [net.backends[r] for r in sorted(net.backends)]
    want = {s.stream_id for s in one + many}

    def every_backend_knows():
        for be in backends:
            while be.poll():
                pass
        return all(want <= set(be.stream_ids) for be in backends)

    settle(net, every_backend_knows)

    def waves(streams):
        def run():
            for be in backends:
                for stream in streams:
                    be.get_stream(stream.stream_id).send("%d", 1)
                be.flush()
            for stream in streams:
                assert stream.recv_values(timeout=WAIT) == (64,)
        return run

    for run in (waves(one), waves(many)):
        run()  # first wave materialises the lazily created managers
    per_stream = interleaved_ratio(waves(one), waves(many), 10) / 16
    assert per_stream < 1.25  # measured 0.58x


# -- a feature on against the feature off -------------------------------------


def burst_wave_seconds(tree, chunk_bytes=None, **settings):
    """Seconds for 20 burst fan-in SUM waves on a fresh 16-leaf TCP tree.

    With *chunk_bytes* every contribution is a 4 KiB array sent as four
    fragments, two per burst instead of eight, so every released wave
    moves a watermark."""
    net = tree(balanced_tree(4, 2), transport="tcp", **settings)
    stream = net.new_stream(
        net.get_broadcast_communicator(), transform=TFILTER_SUM,
        chunk_bytes=chunk_bytes,
    )
    backends = [net.backends[r] for r in sorted(net.backends)]
    if chunk_bytes:
        fmt, value, total, burst = "%alf", (1.0,) * 512, ((16.0,) * 512,), 2
    else:
        fmt, value, total, burst = "%d", 1, (16,), 8

    def wave():
        stream.send("%d", 0)
        for be in backends:
            _, bstream = be.recv(timeout=WAIT)
            for _ in range(burst):
                bstream.send(fmt, value)
        for _ in range(burst):
            assert stream.recv_values(timeout=WAIT) == total

    wave()  # warm-up
    t0 = harness.now()
    for _ in range(20):
        wave()
    elapsed = harness.now() - t0
    net.shutdown()
    return elapsed


CHUNKED = {"chunk_bytes": 1024}


@pytest.mark.parametrize("off, on, ceiling", [
    ({}, {"heartbeat_interval": 0.05}, 1.10),  # measured 1.03x
    # Repair ships a watermark deposit behind every released chunked
    # wave, degrade none (measured 1.01x).
    ({**CHUNKED, "policy": DEGRADE}, {**CHUNKED, "policy": REPAIR}, 1.15),
], ids=["heartbeats", "deposits"])
def test_liveness_and_checkpoints_are_nearly_free(tree, off, on, ceiling):
    """One tree lives at a time: the probes of a tree that stayed up
    beside the other would load both arms alike.  Twenty waves
    (~100 ms) span several probe periods."""
    ratios = []
    for _ in range(11):
        base = burst_wave_seconds(tree, **off)
        ratios.append(burst_wave_seconds(tree, **on) / base)
    assert harness.median(ratios) < ceiling


class NullEnd:
    """A parent link that swallows what the relay sends."""

    link_id = 1
    closed = False

    def send(self, payload):
        pass


def test_tracing_is_cheap_on_the_relay_path():
    """Paper §4.2.1's "negligible overhead" relay, instrumented: a real
    NodeCore forwards 256-packet messages for a stream it holds no state
    on, with and without a TraceRecorder."""
    payload = encode_batch([
        Packet(50, i, "%d %lf %s", (i, i * 0.5, f"metric-{i}"), origin_rank=i)
        for i in range(256)
    ])
    rounds = 100

    def relay(traced):
        core = NodeCore(
            "budget-relay", default_registry(), expected_ranks=0,
            parent=NullEnd(), inbox=Inbox(),
        )
        if traced:
            core.tracer = TraceRecorder("budget-relay", clock=core.clock)

        def run():
            for _ in range(rounds):
                core.handle_payload(2, payload)
                core.flush()
        return run

    off, on = relay(False), relay(True)
    off()
    on()
    assert interleaved_ratio(off, on, 15) < 1.15  # measured 1.03x

    def seconds(run):
        t0 = harness.now()
        run()
        return harness.now() - t0

    us_per_packet = harness.median(seconds(off) for _ in range(5)) / (rounds * 256) * 1e6
    assert us_per_packet < 4.0  # measured 1.3 us
