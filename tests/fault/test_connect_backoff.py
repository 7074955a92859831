"""Connect retries: capped exponential backoff + InstantiationError."""

import socket

import pytest

from repro.core.failure import InstantiationError, backoff_delays
from repro.transport.channel import Inbox
from repro.transport.tcp import tcp_connect_retry, tcp_dial


def dead_address():
    """An address guaranteed to refuse connections right now."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    addr = probe.getsockname()
    probe.close()
    return addr


class TestBackoffDelays:
    def test_deterministic_by_default(self):
        assert backoff_delays(5) == backoff_delays(5)

    def test_capped_exponential_with_jitter_bounds(self):
        delays = backoff_delays(8, base=0.1, cap=2.0, jitter=0.5)
        assert len(delays) == 7  # attempts - 1 sleeps
        for k, d in enumerate(delays):
            nominal = min(0.1 * 2**k, 2.0)
            assert 0.5 * nominal <= d <= 1.5 * nominal
        # The cap keeps late retries bounded regardless of exponent.
        assert max(delays) <= 1.5 * 2.0

    def test_single_attempt_means_no_sleeps(self):
        assert backoff_delays(1) == []


class TestConnectRetry:
    def test_unreachable_address_named_in_error(self):
        addr = dead_address()
        slept = []
        with pytest.raises(InstantiationError) as exc:
            tcp_dial(addr, attempts=3, timeout=0.2, sleep=slept.append)
        err = exc.value
        assert err.address == addr
        assert err.attempts == 3
        assert f"{addr[0]}:{addr[1]}" in str(err)
        assert "3 connect attempt" in str(err)
        assert len(slept) == 2  # attempts - 1 backoff sleeps

    def test_channel_variant_propagates_error(self):
        with pytest.raises(InstantiationError):
            tcp_connect_retry(
                dead_address(),
                Inbox(),
                attempts=2,
                timeout=0.2,
                sleep=lambda _d: None,
            )

    def test_attempts_must_be_positive(self):
        with pytest.raises(ValueError):
            tcp_dial(dead_address(), attempts=0)

    def test_succeeds_once_listener_appears(self):
        """The retry loop converges when the peer shows up late —
        the launch-race case the backoff exists for."""
        from repro.transport.tcp import TcpListener

        inbox = Inbox()
        listener = TcpListener(inbox)
        try:
            sock, rings = tcp_dial(listener.address, attempts=2)
            assert rings is None
            sock.close()
        finally:
            listener.close()
