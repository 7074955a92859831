"""Frame-boundary torture for the one TCP reader.

``SelectorLink._read`` reads every socket: a loop-owned link's on its
loop's thread (non-blocking), a passive end's
(``PassiveSelectorLink``) on its own reader thread (blocking).  Its
receive rule: a frame complete in what one ``recv`` returned is sliced
out, any other gets an exact-size buffer that the remainder is received
into.  Driven either way it must deliver the same frames — FIFO,
byte-identical — however the stream is cut: inside a 4-byte header, one
byte at a time, across MiB-sized bodies; and it must report EOF only
after every complete frame, and refuse a length over ``_MAX_FRAME``.

The writer runs in lock-step with the reader (it waits until the
receiving socket has nothing unread before the next fragment), so every
cut the seed picks is a cut the reader actually sees.
"""

import array
import fcntl
import queue
import random
import select
import selectors
import socket
import struct
import termios
import threading
import time

import pytest

from repro.transport.channel import Inbox
from repro.transport.eventloop import _MAX_FRAME, EventLoop
from repro.transport.tcp import _passive_end

_LEN = struct.Struct(">I")
TIMEOUT = 20.0
KINDS = ["SelectorLink", "PassiveSelectorLink"]


class _Sink:
    """Stands in for the NodeCore a loop link delivers to; queues what
    an :class:`Inbox` would: ``(link_id, payload-or-None)``."""

    def __init__(self):
        self.got = queue.Queue()

    def handle_payload(self, link_id, frame):
        self.got.put((link_id, frame))


class Receiver:
    """One reader of *kind* on ``sock``."""

    def __init__(self, kind: str, sock: socket.socket):
        self.sock = sock
        self._pump = None
        if kind == "SelectorLink":
            sink = _Sink()
            self._got = sink.got
            self._loop = EventLoop()
            self.link = self._loop.add_socket(sock, core=sink)
            self._pump = threading.Thread(target=self._drive, name="test-pump")
            self._pump.start()
        else:
            self._got = Inbox()
            self.link = _passive_end(sock, None, self._got)
        assert type(self.link).__name__ == kind

    def _drive(self):
        """What ``EventLoop.run`` does for one link: select, on_events."""
        link = self.link
        while not link.closed:
            if select.select([self.sock], [], [], 0.05)[0]:
                link.on_events(selectors.EVENT_READ)

    def collect(self):
        """Block until EOF; returns the frames delivered before it."""
        deadline = time.monotonic() + TIMEOUT
        frames = []
        while True:
            _, payload = self._got.get(timeout=max(deadline - time.monotonic(), 0.01))
            if payload is None:
                return frames
            frames.append(bytes(payload))

    def close(self):
        self.link.close()
        if self._pump is not None:
            self._pump.join(timeout=5)
            assert not self._pump.is_alive()
            self._loop.close()


def _unread(sock: socket.socket) -> int:
    buf = array.array("i", [0])
    try:
        fcntl.ioctl(sock, termios.FIONREAD, buf)
    except (OSError, ValueError):
        return 0  # the reader closed it
    return buf[0]


def write_lockstep(writer: socket.socket, reader_sock: socket.socket, fragments):
    deadline = time.monotonic() + TIMEOUT
    for fragment in fragments:
        writer.sendall(fragment)
        while _unread(reader_sock):
            assert time.monotonic() < deadline, "reader stopped draining"
            time.sleep(0)


def framed(payloads) -> bytes:
    return b"".join(_LEN.pack(len(p)) + p for p in payloads)


def seeded_case(seed: int):
    """(payloads, fragments): the mix of frame sizes and where to cut."""
    rng = random.Random(seed)
    sizes = [0, 1, 64 << 10, 3 << 20] + rng.choices(
        [0, 1, 1, 7, 300, 64 << 10], k=36
    ) + [3 << 20, 0, 1]
    rng.shuffle(sizes)
    payloads = [rng.randbytes(n) for n in sizes]
    stream = framed(payloads)
    cuts = set()
    offset = 0
    for i, payload in enumerate(payloads):
        # Every split inside a 4-byte header, many times over.
        cuts.add(offset + 1 + i % 3)
        if len(payload) > 1:
            for _ in range(3):
                cuts.add(offset + _LEN.size + rng.randrange(1, len(payload)))
        offset += _LEN.size + len(payload)
    # One-byte-at-a-time runs: the first frames, and a seeded stretch.
    run_start = rng.randrange(len(stream) - 64)
    cuts.update(range(run_start, run_start + 64))
    cuts.update(range(0, 24))
    points = sorted(c for c in cuts if 0 < c < len(stream))
    fragments = [
        stream[a:b] for a, b in zip([0] + points, points + [len(stream)])
    ]
    return payloads, fragments


@pytest.fixture
def pair():
    ours, theirs = socket.socketpair()
    made = []

    def make(kind):
        made.append(Receiver(kind, theirs))
        return ours, made[-1]

    yield make
    ours.close()
    for receiver in made:
        receiver.close()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", [1, 2])
def test_seeded_fragments_arrive_fifo_and_byte_identical(pair, kind, seed):
    ours, receiver = pair(kind)
    payloads, fragments = seeded_case(seed)
    assert max(map(len, payloads)) == 3 << 20 and b"" in payloads
    write_lockstep(ours, receiver.sock, fragments)
    ours.close()
    got = receiver.collect()
    assert [len(f) for f in got] == [len(p) for p in payloads]
    assert got == payloads
    assert receiver.link.closed


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize(
    "tail",
    [_LEN.pack(100)[:2], _LEN.pack(100) + b"0123456789",
     _LEN.pack(3 << 20) + bytes(1 << 20)],
    ids=["in-header", "in-small-frame", "in-big-frame"],
)
def test_eof_mid_frame_follows_every_complete_frame(pair, kind, tail):
    ours, receiver = pair(kind)
    complete = [b"a", b"", bytes(range(256)) * 1024, b"z"]
    write_lockstep(ours, receiver.sock, [framed(complete), tail])
    ours.close()
    assert receiver.collect() == complete
    assert receiver.link.closed


@pytest.mark.parametrize("kind", KINDS)
def test_length_over_max_frame_closes_the_link(pair, kind):
    ours, receiver = pair(kind)
    write_lockstep(
        ours, receiver.sock, [framed([b"ok"]), _LEN.pack(_MAX_FRAME + 1)]
    )
    assert receiver.collect() == [b"ok"]
    assert receiver.link.closed
