"""Ablation A2 — packet batching (§2.3 design choice).

"Data packets are batched into packet buffers ... to allow for fewer
larger messages to be sent over busy connections, reducing overall
communication costs."

Two measurements:

1. **Live runtime**: drive a burst of packets through a real comm-node
   tree and read the nodes' message counters — batching should ship
   the burst in far fewer transport messages than packets forwarded.
2. **Cost model**: with a per-message cost ``2o + L`` and per-byte cost
   ``G``, compare shipping N packets individually vs. in batches of
   B — the classic fixed-cost amortization that motivates the design.
"""

import pytest

from repro.core import Network
from repro.core.batching import encode_batch
from repro.core.packet import Packet
from repro.filters import SFILTER_DONTWAIT, TFILTER_NULL
from repro.sim.logp import BLUE_PACIFIC_LOGP, message_cost
from repro.topology import balanced_tree

BURST = 200


def live_batching_counts():
    """Packets forwarded vs transport messages sent at internal nodes."""
    net = Network(balanced_tree(2, 2))
    try:
        comm = net.get_broadcast_communicator()
        stream = net.new_stream(comm, transform=TFILTER_NULL, sync=SFILTER_DONTWAIT)
        for i in range(BURST):
            stream.send("%d %s", i, "x" * 32)
        # Drain everything at the back-ends: each sees the full burst.
        received = 0
        for rank in sorted(net.backends):
            be = net.backends[rank]
            for _ in range(BURST):
                got = be.recv(timeout=10)
                assert got is not None
                received += 1
        packets = sum(n.core.metrics.counters()["packets_down"].value for n in net._commnodes)
        messages = sum(n.core.metrics.counters()["messages_sent"].value for n in net._commnodes)
        return packets, messages, received
    finally:
        net.shutdown()


def model_costs():
    """Simulated cost of N packets sent singly vs in batches."""
    p = BLUE_PACIFIC_LOGP
    pkt = Packet(1, 0, "%d %s", (1, "x" * 32))
    nbytes = pkt.nbytes
    rows = []
    for batch_size in (1, 4, 16, 64):
        n_messages = -(-BURST // batch_size)
        batch_bytes = len(
            encode_batch([pkt] * batch_size)
        )
        cost = n_messages * message_cost(p, batch_bytes)
        rows.append((batch_size, n_messages, batch_bytes, cost * 1e3))
    return rows, nbytes


@pytest.mark.benchmark(group="ablation-batching")
def test_ablation_packet_batching(benchmark, report):
    (packets, messages, received), (rows, _) = benchmark.pedantic(
        lambda: (live_batching_counts(), model_costs()), rounds=1, iterations=1
    )
    table = [(b, n, sz, cost) for b, n, sz, cost in rows]
    table.append(("live", f"{messages} msgs", f"{packets} pkts",
                  packets / max(messages, 1)))
    report(
        "ablation_batching",
        f"Ablation A2: batching {BURST} packets (model costs in ms; last "
        "row: live comm-node counters, value = packets per message)",
        ["batch", "messages", "bytes/batch", "cost-or-ratio"],
        table,
    )
    # Live: all packets delivered; batching shipped multiple packets per
    # transport message on average.
    assert received == BURST * 4
    assert packets >= BURST  # every node forwarded the whole burst
    assert messages < packets, "batching must coalesce the burst"
    # Model: total cost strictly decreases with batch size (per-message
    # overhead amortized; per-byte cost identical).
    costs = [r[3] for r in rows]
    assert costs == sorted(costs, reverse=True)
    assert costs[0] / costs[-1] > 2.0
