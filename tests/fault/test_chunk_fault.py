"""Mid-wave faults on chunked (pipelined) streams.

A back-end that dies after shipping only a prefix of its fragment
sequence must not poison the stream: its parent discards the partial
wave (counted in ``chunk_waves_aborted``), bumps the membership epoch,
and the next wave completes over the survivors.

The crash-consistency half (:class:`TestMidChunkCommNodeDeath`): kill
an *internal* node while a child is mid-``TAG_CHUNK`` sequence.  Under
``repair`` the orphans re-home and replay their un-ACKed fragment
histories, the adopter's watermarks — seeded from the deposit the
dead node shipped behind its last released wave — drop what it had
already forwarded, and the wave completes **byte identical** to the
fault-free run — on the tcp, process, and colocated runtimes alike.
Under ``degrade`` the wave shrinks to exactly the survivors' sum.
"""

import time

import pytest

from repro.core import DEGRADE, REPAIR, Network
from repro.core.packet import Packet
from repro.faultinject import FaultInjector
from repro.filters import TFILTER_SUM
from repro.topology import balanced_tree

from .conftest import drive_wave, wait_until

WAVE_TIMEOUT = 10.0
CHUNK_BYTES = 2048
N_ELEMS = 1024  # 8 KiB of float64 → 4 fragments per contribution


def chunk_aborts(net, stream_id):
    """Total aborted-wave count across every comm node's manager."""
    total = 0
    for node in net._commnodes:
        mgr = node.core.streams.get(stream_id)
        if mgr is not None and mgr._c_chunk_aborts is not None:
            total += mgr._c_chunk_aborts.value
    return total


def chunks_received(net, stream_id):
    """Fragments every comm node's manager has taken in so far."""
    total = 0
    for node in net._commnodes:
        mgr = node.core.streams.get(stream_id)
        if mgr is not None and mgr._h_chunk_bytes is not None:
            total += mgr._h_chunk_bytes.count
    return total


def max_epoch(net, stream_id):
    epochs = [0]
    for node in net._commnodes:
        mgr = node.core.streams.get(stream_id)
        if mgr is not None:
            epochs.append(mgr.membership_epoch)
    return max(epochs)


class TestMidWaveBackendDeath:
    def test_partial_fragments_discarded_and_stream_recovers(self, shutdown_nets):
        net = Network(balanced_tree(2, 2), transport="tcp")
        shutdown_nets.append(net)
        inj = FaultInjector(net)
        st = net.new_stream(
            net.get_broadcast_communicator(),
            transform=TFILTER_SUM,
            chunk_bytes=CHUNK_BYTES,
        )

        # Wave 1: a complete chunked wave over all four back-ends.
        payload = tuple(float(i % 97) for i in range(N_ELEMS))
        st.send("%d", 0)
        for rank in sorted(net.backends):
            packet, bstream = net.backends[rank].recv(timeout=WAVE_TIMEOUT)
            bstream.send("%alf", payload)
        result = st.recv(timeout=WAVE_TIMEOUT)
        assert result.values == (tuple(v * 4 for v in payload),)

        # Wave 2: rank 0 ships only half its fragment sequence, then
        # dies.  Survivors contribute in full.
        st.send("%d", 0)
        victims = {}
        for rank in sorted(net.backends):
            packet, bstream = net.backends[rank].recv(timeout=WAVE_TIMEOUT)
            if rank == 0:
                victims[rank] = bstream
                whole = Packet(
                    st.stream_id, packet.tag, "%alf", (payload,), origin_rank=0
                )
                frags = bstream._window.split(whole, CHUNK_BYTES)
                assert frags is not None and len(frags) == 4
                for frag in frags[:2]:
                    bstream.send_packet(frag)
            else:
                bstream.send("%alf", payload)
        # The fault under test strikes *mid-wave*: rank 0's parent must
        # have taken in the half sequence (and its sibling's fragments)
        # before the EOF, or it just runs a clean three-survivor wave.
        assert wait_until(
            lambda: chunks_received(net, st.stream_id) == 16 + 14,
            timeout=WAVE_TIMEOUT,
        ), "sent fragments never arrived"
        inj.kill_backend(0)

        # Rank 0's parent notices the dead link mid-wave: the partial
        # wave is aborted and the membership epoch bumps.
        assert wait_until(
            lambda: chunk_aborts(net, st.stream_id) >= 1,
            net=net,
            timeout=WAVE_TIMEOUT,
            poll=False,
        ), "partial chunked wave never aborted"
        assert max_epoch(net, st.stream_id) >= 1
        assert inj.log == [("kill_backend", 0)]

        # The truncated wave must never surface at the front-end.
        deadline = time.monotonic() + 0.5
        while time.monotonic() < deadline:
            assert st.try_recv() is None
            time.sleep(0.02)

        # Wave 3 completes over the three survivors.
        result = drive_wave(net, st, WAVE_TIMEOUT, value=5)
        assert result.values == (15,)
        assert not net.unexpected_packets()

    def test_unchunked_stream_unaffected_by_chunk_plumbing(self, shutdown_nets):
        """Control: the same fault on an unchunked stream still recovers
        via the classic path (no abort counters exist to bump)."""
        net = Network(balanced_tree(2, 2), transport="tcp")
        shutdown_nets.append(net)
        inj = FaultInjector(net)
        st = net.new_stream(
            net.get_broadcast_communicator(), transform=TFILTER_SUM
        )
        assert drive_wave(net, st, WAVE_TIMEOUT, value=1).values == (4,)
        inj.kill_backend(0)
        assert wait_until(
            lambda: net.backends[0].shut_down, net=net, timeout=WAVE_TIMEOUT
        )
        assert drive_wave(net, st, WAVE_TIMEOUT, value=1).values == (3,)
        mgr = net._core.streams.get(st.stream_id)
        assert mgr is not None and mgr._c_chunk_aborts is None


class TestMidChunkCommNodeDeath:
    """Kill an internal node mid-``TAG_CHUNK`` sequence.

    The acceptance scenario for crash-consistent waves: rank 0 has
    shipped half its fragments when its parent comm node dies.  Under
    ``repair`` the reassembled wave must be byte-identical to the
    fault-free run — no back-end contribution lost (the orphans replay
    un-ACKed history and finish the sequence on the new edge) and none
    duplicated (the adopter's watermark, seeded from the dead node's
    deposit, drops the replayed waves it already aggregated).  Under
    ``degrade`` the wave must shrink to exactly the survivors' sum.
    """

    PAYLOAD = tuple(float(i % 97) for i in range(N_ELEMS))

    def _chunked_stream(self, net):
        return net.new_stream(
            net.get_broadcast_communicator(),
            transform=TFILTER_SUM,
            chunk_bytes=CHUNK_BYTES,
        )

    def _begin_wave(self, net, st):
        """Broadcast one wave; every rank receives it before anyone
        replies.  Returns ``(reply_streams, broadcast_tag)``."""
        st.send("%d", 0)
        handles = {}
        tag = None
        for rank in sorted(net.backends):
            packet, bstream = net.backends[rank].recv(timeout=WAVE_TIMEOUT)
            handles[rank] = bstream
            tag = packet.tag
        return handles, tag

    def _send_half_sequence(self, bstream, tag, stream_id):
        """Rank 0 ships exactly the first half of its fragment wave.

        Fragments are pre-split and recorded by hand (the send window
        normally fills in ``_send_maybe_chunked``) so the kill lands
        deterministically *inside* one ``TAG_CHUNK`` sequence.
        """
        whole = Packet(stream_id, tag, "%alf", (self.PAYLOAD,), origin_rank=0)
        frags = bstream._window.split(whole, CHUNK_BYTES)
        assert frags is not None and len(frags) == 4
        for frag in frags[:2]:
            bstream.send_packet(frag)
            bstream._window.record(frag)
        return frags

    def _complete_wave(self, net, st, scale):
        """One fault-free wave of ``scale * PAYLOAD`` from every rank.

        Every wave carries its own payload, so a replayed wave taken
        twice (or lined up with the next one) shows in the sum."""
        payload = tuple(v * scale for v in self.PAYLOAD)
        handles, _tag = self._begin_wave(net, st)
        for bstream in handles.values():
            bstream.send("%alf", payload)
        assert st.recv(timeout=WAVE_TIMEOUT).values == (
            tuple(v * 4 for v in payload),
        )

    def _repair_mid_sequence(self, net, st, mode):
        """Kill rank 0's parent while rank 0 is mid-fragment-sequence,
        let the orphans re-home, finish the wave at ``1 * PAYLOAD``."""
        # The doomed node's deposit rode in the same message as its
        # last output fragment, so it is here as soon as the wave is:
        # watermarks for ranks 0 AND 1 make the replay duplicate-free.
        marks = [
            doc["watermarks"]
            for (_link, sid), doc in net._core._checkpoints.items()
            if sid == st.stream_id
        ]
        assert any(m.get("0", -1) >= 0 and m.get("1", -1) >= 0 for m in marks)

        handles, tag = self._begin_wave(net, st)
        frags = self._send_half_sequence(handles[0], tag, st.stream_id)
        inj = FaultInjector(net)
        if mode == "process":
            inj.kill_process(0)
        else:
            inj.kill_commnode(0)

        # The orphans notice the EOF on their next poll, re-home onto a
        # live ancestor, and replay their un-ACKed fragment histories.
        def repaired():
            for rank in (0, 1):
                try:
                    net.backends[rank].poll()
                except Exception:
                    pass
            return all(net.backends[r].reconnects >= 1 for r in (0, 1))

        assert wait_until(
            repaired, net=net, timeout=WAVE_TIMEOUT, poll=False
        ), "orphaned back-ends never re-homed onto a live ancestor"

        # Rank 0 finishes its sequence on the new edge: the replayed
        # prefix plus this tail form one contiguous fragment wave.
        for frag in frags[2:]:
            handles[0].send_packet(frag)
            handles[0]._window.record(frag)
        for rank in (1, 2, 3):
            handles[rank].send("%alf", self.PAYLOAD)

        result = st.recv(timeout=WAVE_TIMEOUT)
        # Byte-identical: every contribution exactly once.  A lost
        # fragment would stall or shrink the wave; an undeduplicated
        # replay would overshoot the fault-free sum.
        assert result.values == (tuple(v * 4 for v in self.PAYLOAD),)
        with pytest.raises(TimeoutError):
            st.recv(timeout=0.3)  # no replayed wave surfaces later
        assert net._core.streams[st.stream_id].pending == 0
        for node in net._commnodes:
            mgr = node.core.streams.get(st.stream_id)
            if node.is_alive() and mgr is not None:
                assert mgr.pending == 0, node.core.name
        assert sum(be.reconnects for be in net.backends.values()) == 2
        assert not net.unexpected_packets()

    @staticmethod
    def _repair_net(shutdown_nets, mode):
        kwargs = {"colocate": True} if mode == "colocated" else {"transport": mode}
        net = Network(balanced_tree(2, 2), policy=REPAIR, **kwargs)
        shutdown_nets.append(net)
        return net

    @pytest.mark.parametrize("mode", ["tcp", "process", "colocated"])
    def test_repair_wave_byte_identical_to_fault_free_run(
        self, shutdown_nets, mode
    ):
        net = self._repair_net(shutdown_nets, mode)
        st = self._chunked_stream(net)
        self._complete_wave(net, st, 10)
        self._repair_mid_sequence(net, st, mode)
        # Replay actually happened: wave 1 (deduped at the adopter) and
        # the wave-2 prefix both retransmitted.
        assert net.backends[0].chunks_retransmitted >= 2

    @pytest.mark.parametrize("mode", ["tcp", "process", "colocated"])
    def test_repair_after_two_back_to_back_waves(self, shutdown_nets, mode):
        """A deposit older than the last completed wave would let that
        wave's replay through a second time: deposits ride behind
        every released wave, so the adopter's watermark covers both."""
        net = self._repair_net(shutdown_nets, mode)
        st = self._chunked_stream(net)
        self._complete_wave(net, st, 10)
        self._complete_wave(net, st, 100)
        self._repair_mid_sequence(net, st, mode)

    def test_degrade_wave_shrinks_to_survivor_sum(self, shutdown_nets):
        net = Network(balanced_tree(2, 2), transport="tcp", policy=DEGRADE)
        shutdown_nets.append(net)
        st = self._chunked_stream(net)

        handles, tag = self._begin_wave(net, st)
        for bstream in handles.values():
            bstream.send("%alf", self.PAYLOAD)
        assert st.recv(timeout=WAVE_TIMEOUT).values == (
            tuple(v * 4 for v in self.PAYLOAD),
        )

        # Wave 2: rank 0 mid-sequence, then its parent dies.  No
        # repair: the wave completes over the surviving subtree only.
        handles, tag = self._begin_wave(net, st)
        self._send_half_sequence(handles[0], tag, st.stream_id)
        FaultInjector(net).kill_commnode(0)
        for rank in (2, 3):
            handles[rank].send("%alf", self.PAYLOAD)

        result = st.recv(timeout=WAVE_TIMEOUT)
        # Correctly shrunken: exactly the survivors' sum, byte for byte
        # — the severed half-sequence never corrupts the aggregate.
        assert result.values == (tuple(v * 2 for v in self.PAYLOAD),)
        lost = set()
        for event in net.recovery_events():
            lost.update(event.lost)
        assert lost == {0, 1}
        assert not net.unexpected_packets()
