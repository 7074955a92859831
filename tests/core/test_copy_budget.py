"""A copy budget for the byte path that cannot silently regress.

Each hop should write a payload byte in user space once on the way in
(never: the kernel's copy lands in the frame's own buffer), once in the
reduction and once on the way out.  Wall-clock is too noisy to pin
that down; peak traced memory is deterministic: every transient copy
of a 1 MiB payload shows up as 1 MiB of extra peak.  The bounds sit
between the one-copy path (≈ 1.0 × payload) and a second copy (≥ 2 ×).
"""

import selectors
import socket
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from repro.core.packet import Packet
from repro.core.stream_manager import StreamManager
from repro.filters.registry import SFILTER_WAITFORALL, TFILTER_SUM, default_registry
from repro.transport.eventloop import EventLoop

MIB = 1 << 20


@pytest.fixture
def traced():
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


def peak_above_baseline(fn) -> int:
    """Peak traced bytes while *fn* runs, over what was live before it."""
    baseline, _ = tracemalloc.get_traced_memory()
    tracemalloc.reset_peak()
    keep = fn()
    _, peak = tracemalloc.get_traced_memory()
    del keep
    return peak - baseline


def test_encode_writes_an_ndarray_field_once(traced):
    values = np.arange(MIB // 8, dtype=np.float64)
    packet = Packet.trusted(7, 100, "%alf", (values,), 3)
    peak = peak_above_baseline(packet.encoded_view)
    assert packet.nbytes > MIB
    assert peak <= 1.25 * packet.nbytes


def test_sum_of_wire_inputs_allocates_only_its_output(traced):
    wires = [
        Packet(7, 100, "%alf", (np.full(MIB // 8, float(r)),), r).to_bytes()
        for r in (1, 2)
    ]
    manager = StreamManager.create(
        7, [1, 2], [11, 12], default_registry(), SFILTER_WAITFORALL, TFILTER_SUM
    )
    inputs = [Packet.lazy_from_wire(w) for w in wires]

    def wave():
        assert manager.push_upstream(11, inputs[0]) == []
        (out,) = manager.push_upstream(12, inputs[1])
        return out

    peak = peak_above_baseline(wave)
    assert peak <= 1.5 * MIB


def test_selector_link_receives_a_big_frame_in_place(traced):
    class Sink:
        frame = None

        def handle_payload(self, link_id, frame):
            self.frame = frame  # by reference: the reader's buffer itself

    payload = bytes(3 * MIB)
    ours, theirs = socket.socketpair()
    loop = EventLoop()
    sink = Sink()
    link = loop.add_socket(theirs, core=sink)
    # Held here so the writer freeing it cannot mask the reader's peak.
    message = struct.pack(">I", len(payload)) + payload
    writer = threading.Thread(target=ours.sendall, args=(message,))
    sel = selectors.DefaultSelector()
    sel.register(theirs, selectors.EVENT_READ)

    def receive():
        writer.start()
        while sink.frame is None:
            assert sel.select(10), "frame never arrived"
            link.on_events(selectors.EVENT_READ)
        return sink.frame

    try:
        peak = peak_above_baseline(receive)
        assert bytes(sink.frame) == payload
        assert peak <= 1.25 * len(payload)
    finally:
        writer.join(timeout=10)
        sel.close()
        ours.close()
        link.close()
        loop.close()
