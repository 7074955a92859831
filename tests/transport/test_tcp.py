"""Tests for the TCP transport (loopback sockets)."""

import pytest

from repro.core.batching import decode_batch, encode_batch
from repro.core.packet import Packet
from repro.transport.channel import Inbox
from repro.transport.tcp import TcpListener, tcp_connect_retry, tcp_pair


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
