"""Replay history lives only where a repair can replay it.

Outside ``policy="repair"`` no link is ever re-homed, so a sender keeps
none of the fragments it sent.  Under no policy does a receiver send a
window-control packet back: the retired wave ACK and NACK tags (-12,
-13) never appear.  The waves here, 16 KiB arrays in 4 KiB fragments,
fit under both history bounds, so any history a sender kept would
still be there when the run ends.  Every holder is read: each comm
node's ``history_bytes{stream}`` gauge (gathered over the wire, so
forked process nodes count too), the front-end's manager and every
back-end's stream.  Every packet with a retired tag that a node queues
toward a child or a back-end takes in is seen.  The ``repair`` runs
are the control: the same reads find history there.
"""

import numpy as np
import pytest

from repro.core import DEGRADE, FAIL_FAST, REPAIR, Network
from repro.core.backend import BackEnd
from repro.core.commnode import NodeCore
from repro.filters import TFILTER_SUM
from repro.topology import balanced_tree

WAVE_TIMEOUT = 10.0
N_ELEMS = 2048  # 16 KiB of float64
CHUNK_BYTES = 4096  # four fragments per contribution
WAVES = 6  # all six stay in history under repair
WINDOW_TAGS = (-12, -13)  # the retired wave ACK and NACK


@pytest.fixture
def window_control(monkeypatch):
    """Tags of every retired ACK/NACK queued down by a node of this
    process or taken in by a back-end (all back-ends live in this
    process)."""
    seen = []
    queue_down = NodeCore._queue_down
    handle_control = BackEnd._handle_control

    def spy_queue_down(core, link_id, packet):
        if packet.tag in WINDOW_TAGS:
            seen.append(packet.tag)
        queue_down(core, link_id, packet)

    def spy_handle_control(backend, packet):
        if packet.tag in WINDOW_TAGS:
            seen.append(packet.tag)
        handle_control(backend, packet)

    monkeypatch.setattr(NodeCore, "_queue_down", spy_queue_down)
    monkeypatch.setattr(BackEnd, "_handle_control", spy_handle_control)
    return seen


def run_chunked_waves(net):
    """WAVES chunked SUM waves over every back-end; returns the stream."""
    st = net.new_stream(
        net.get_broadcast_communicator(),
        transform=TFILTER_SUM,
        chunk_bytes=CHUNK_BYTES,
    )
    payload = np.arange(N_ELEMS, dtype=np.float64)
    for wave in range(WAVES):
        st.send("%d", wave)
        for rank in sorted(net.backends):
            _packet, bstream = net.backends[rank].recv(timeout=WAVE_TIMEOUT)
            bstream.send("%alf", payload + wave)
        (total,) = st.recv(timeout=WAVE_TIMEOUT).values
        assert np.array_equal(total, 4 * (payload + wave))
    return st


def history_bytes(net, stream_id):
    """History bytes for *stream_id*, by holder."""
    held = {
        f"back-end {rank}": be.get_stream(stream_id)._window._bytes
        for rank, be in net.backends.items()
    }
    held["front-end"] = net._core.streams[stream_id]._out._bytes
    key = f'history_bytes{{stream="{stream_id}"}}'
    for node, series in net.stats().items():
        if key in series and not node.startswith("0:"):
            held[f"comm node {node}"] = series[key]
    return held


@pytest.mark.parametrize("mode", ["colocated", "tcp", "process"])
@pytest.mark.parametrize("policy", [DEGRADE, FAIL_FAST, REPAIR])
def test_history_and_window_control_only_under_repair(
    shutdown_nets, window_control, mode, policy
):
    kwargs = {"colocate": True} if mode == "colocated" else {"transport": mode}
    net = Network(balanced_tree(2, 2), policy=policy, **kwargs)
    shutdown_nets.append(net)
    st = run_chunked_waves(net)

    held = history_bytes(net, st.stream_id)
    if policy == REPAIR:
        # Every sender with a parent keeps history; the front-end has none.
        assert held.pop("front-end") == 0
        assert all(held.values()), held
        # Nothing prunes history inside its bounds: every wave is held.
        for be in net.backends.values():
            assert len(be.get_stream(st.stream_id)._window._history) == WAVES
        assert window_control == []
    else:
        # Both halves in one assert, so a failure shows both.
        assert (held, window_control) == (dict.fromkeys(held, 0), [])
    comm_nodes = [h for h in held if h.startswith("comm node")]
    assert len(comm_nodes) == 2, held  # both managers were read
