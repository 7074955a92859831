"""Tests for the TCP transport (loopback sockets)."""

import os
import pathlib
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.core.batching import decode_batch, encode_batch
from repro.core.commnode import NodeCore
from repro.core.packet import Packet
from repro.filters.registry import default_registry
from repro.transport.channel import Inbox
from repro.transport.eventloop import EventLoop
from repro.transport.shm import shm_available
from repro.transport.tcp import TcpListener, tcp_connect_retry, tcp_dial, tcp_pair

_LEN = struct.Struct(">I")


class TestTcpPair:
    def test_roundtrip(self):
        a, b = Inbox(), Inbox()
        end_a, end_b = tcp_pair(a, b)
        try:
            end_a.send(b"hello")
            link, payload = b.get(timeout=2)
            assert payload == b"hello"
            assert link == end_b.link_id
            end_b.send(b"world")
            assert a.get(timeout=2)[1] == b"world"
        finally:
            end_a.close()
            end_b.close()

    def test_framing_of_many_messages(self):
        a, b = Inbox(), Inbox()
        end_a, end_b = tcp_pair(a, b)
        try:
            msgs = [bytes([i]) * (i + 1) for i in range(30)]
            for m in msgs:
                end_a.send(m)
            got = [b.get(timeout=2)[1] for _ in range(30)]
            assert got == msgs
        finally:
            end_a.close()
            end_b.close()

    def test_close_delivers_eof(self):
        a, b = Inbox(), Inbox()
        end_a, end_b = tcp_pair(a, b)
        end_a.close()
        # Peer's reader observes EOF and delivers the None sentinel.
        link, payload = b.get(timeout=2)
        assert payload is None
        end_b.close()

    def test_send_after_close_raises(self):
        a, b = Inbox(), Inbox()
        end_a, end_b = tcp_pair(a, b)
        end_a.close()
        with pytest.raises(ConnectionError):
            end_a.send(b"x")
        end_b.close()

    def test_rejects_non_bytes(self):
        a, b = Inbox(), Inbox()
        end_a, end_b = tcp_pair(a, b)
        try:
            with pytest.raises(TypeError):
                end_a.send(123)  # type: ignore[arg-type]
        finally:
            end_a.close()
            end_b.close()

    def test_packet_batches_survive_sockets(self):
        """The full codec path over a real socket."""
        a, b = Inbox(), Inbox()
        end_a, end_b = tcp_pair(a, b)
        try:
            packets = [
                Packet(1, i, "%d %s %alf", (i, f"be{i}", (i * 0.5, i * 2.0)))
                for i in range(10)
            ]
            end_a.send(encode_batch(packets))
            _, payload = b.get(timeout=2)
            assert decode_batch(payload) == packets
        finally:
            end_a.close()
            end_b.close()


class TestListener:
    def test_accept_and_exchange(self):
        server_inbox, client_inbox = Inbox(), Inbox()
        listener = TcpListener(server_inbox)
        try:
            client_end = tcp_connect_retry(
                listener.address, client_inbox, attempts=1, timeout=2
            )
            server_end = listener.accept(timeout=2)
            # Ids are per-process local names and need not agree across
            # the socket (they must be unique per receiving process).
            assert server_end.link_id != 0
            client_end.send(b"ping")
            assert server_inbox.get(timeout=2)[1] == b"ping"
            server_end.send(b"pong")
            assert client_inbox.get(timeout=2)[1] == b"pong"
            client_end.close()
            server_end.close()
        finally:
            listener.close()

    def test_multiple_clients_one_inbox(self):
        server_inbox = Inbox()
        listener = TcpListener(server_inbox)
        try:
            clients = []
            server_ends = []
            for i in range(3):
                c = tcp_connect_retry(
                    listener.address, Inbox(), attempts=1, timeout=2
                )
                clients.append(c)
                server_ends.append(listener.accept(timeout=2))
            for i, c in enumerate(clients):
                c.send(bytes([i]))
            got = [server_inbox.get(timeout=2) for _ in range(3)]
            assert {payload for _, payload in got} == {b"\x00", b"\x01", b"\x02"}
            # Each connection got its own local id at the server.
            server_ids = {e.link_id for e in server_ends}
            assert len(server_ids) == 3
            assert {lid for lid, _ in got} == server_ids
            for e in clients + server_ends:
                e.close()
        finally:
            listener.close()

    def test_dial_looks_up_no_name(self):
        """Listeners bind IPv4 literals, so a dial connects without a
        name lookup: a fresh interpreter (like a freshly forked comm
        node) loads no IDNA codec for it."""
        script = (
            "import sys\n"
            "from repro.transport.channel import Inbox\n"
            "from repro.transport.tcp import TcpListener, tcp_dial\n"
            "listener = TcpListener(Inbox())\n"
            "sock, _rings = tcp_dial(listener.address, attempts=1, timeout=2)\n"
            "sock.close()\n"
            "print(sorted({'encodings.idna', 'stringprep', 'unicodedata'}"
            " & set(sys.modules)))\n"
        )
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=60, check=True,
        )
        assert out.stdout.strip() == "[]"


def nodelay(sock):
    return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


def dial_in_thread(address, **kwargs):
    """``tcp_dial`` on a helper thread (an shm offer waits for the
    acceptor's verdict); returns ``join() -> (socket, rings)``."""
    result = {}
    t = threading.Thread(
        target=lambda: result.update(out=tcp_dial(address, attempts=1, **kwargs))
    )
    t.start()

    def join():
        t.join(timeout=10)
        assert not t.is_alive()
        return result["out"]

    return join


def close_rings(*pairs):
    for pair in pairs:
        for ring in pair or ():
            ring.close()
            ring.unlink()


class TestNagleOffAtBirth:
    """Every way a TCP link is born leaves both of its ends Nagle-off."""

    def test_dial_and_accept_socket_plain_hello(self):
        listener = TcpListener(Inbox())
        try:
            dialed, rings = tcp_dial(listener.address, attempts=1)
            accepted, pair = listener.accept_socket(timeout=10)
            try:
                assert rings is None and pair is None
                assert nodelay(dialed) and nodelay(accepted)
            finally:
                dialed.close()
                accepted.close()
        finally:
            listener.close()

    @pytest.mark.skipif(not shm_available(), reason="POSIX shared memory unavailable")
    @pytest.mark.parametrize("allow_shm", [True, False], ids=["shm-accepted", "shm-refused"])
    def test_dial_and_accept_socket_shm_offer(self, allow_shm):
        listener = TcpListener(Inbox())
        try:
            join = dial_in_thread(listener.address, shm=True)
            accepted, pair = listener.accept_socket(timeout=10, allow_shm=allow_shm)
            dialed, rings = join()
            try:
                assert (pair is not None, rings is not None) == (allow_shm, allow_shm)
                # The handshake socket stays on as the rings' doorbell.
                assert nodelay(dialed) and nodelay(accepted)
            finally:
                close_rings(pair, rings)
                dialed.close()
                accepted.close()
        finally:
            listener.close()

    def test_listener_accept_and_connect_retry(self):
        listener = TcpListener(Inbox())
        try:
            client = tcp_connect_retry(listener.address, Inbox(), attempts=1, timeout=2)
            server = listener.accept(timeout=2)
            try:
                assert nodelay(client._sock) and nodelay(server._sock)
            finally:
                client.close()
                server.close()
        finally:
            listener.close()

    def test_event_loop_acceptor(self):
        listener = TcpListener(Inbox())
        loop = EventLoop()
        core = NodeCore("acceptor", default_registry(), 1)
        loop.bind(core)
        loop.add_acceptor(listener, remaining=1, core=core)
        t = threading.Thread(target=loop.run, daemon=True)
        t.start()
        dialed = None
        try:
            dialed, _ = tcp_dial(listener.address, attempts=1)
            deadline = time.monotonic() + 10
            while not core.children:
                assert time.monotonic() < deadline, "acceptor never admitted the link"
                time.sleep(0.002)
            (link,) = core.children.values()
            assert nodelay(dialed) and nodelay(link.selectable)
        finally:
            core.shutting_down = True
            loop.wake()
            t.join(timeout=5)
            if dialed is not None:
                dialed.close()
            listener.close()
        assert not t.is_alive()


def recv_exact(sock, n):
    data = b""
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        if not chunk:
            raise ConnectionError("peer closed")
        data += chunk
    return data


class TestNoDelayedAckStall:
    def test_two_small_frames_then_echo_is_not_held_back(self):
        """Two back-to-back small frames, then wait for a 1-byte echo.

        With Nagle on, the second frame waits for the ACK of the first,
        which the peer delays (it has nothing to send until both have
        arrived): about 40 ms a round on Linux loopback.
        """
        rounds, frame = 40, _LEN.pack(8) + b"x" * 8
        listener = TcpListener(Inbox())
        try:
            dialed, _ = tcp_dial(listener.address, attempts=1)
            accepted, _ = listener.accept_socket(timeout=10)

            def echo():
                for _ in range(rounds):
                    recv_exact(accepted, 2 * len(frame))
                    accepted.sendall(b"\x01")

            echoer = threading.Thread(target=echo, daemon=True)
            echoer.start()
            times = []
            try:
                for _ in range(rounds):
                    t0 = time.perf_counter()
                    dialed.sendall(frame)
                    dialed.sendall(frame)
                    assert recv_exact(dialed, 1) == b"\x01"
                    times.append(time.perf_counter() - t0)
            finally:
                dialed.close()  # an echoer still waiting sees EOF
                echoer.join(timeout=10)
                accepted.close()
            assert not echoer.is_alive()
            assert statistics.median(times) < 0.010, times
        finally:
            listener.close()
