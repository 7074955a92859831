"""Integration tests: internal processes as real OS processes.

``transport="process"`` runs one ``mrnet_commnode`` OS process per
internal tree node (the paper's actual architecture), each a fork of
the front-end or of its own parent, and connects everything over TCP.
Trees are kept small.
"""

import os
import textwrap

import pytest

from repro.core import Network, NetworkError
from repro.filters import TFILTER_CONCAT, TFILTER_MAX, TFILTER_SUM
from repro.topology import balanced_tree, flat_topology

RECV_TIMEOUT = 20.0


class TestProcessTransport:
    def test_reduction_through_real_processes(self):
        net = Network(balanced_tree(2, 2), transport="process")
        try:
            assert len(net._procs) == 2  # one OS process per internal node
            assert all(p.poll() is None for p in net._procs)  # alive
            comm = net.get_broadcast_communicator()
            stream = net.new_stream(comm, transform=TFILTER_SUM)
            stream.send("%d", 0)
            for rank in sorted(net.backends):
                _, bstream = net.backends[rank].recv(timeout=RECV_TIMEOUT)
                bstream.send("%d", rank + 1)
            assert stream.recv_values(timeout=RECV_TIMEOUT) == (10,)
        finally:
            net.shutdown()
        # Shutdown cascaded: every commnode process exited.
        assert all(p.poll() is not None for p in net._procs)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
    def test_forked_comm_node_keeps_no_inherited_pipe(self):
        """A pipe the front-end holds open (a test runner's saved stdout)
        is not held by any comm node, so its reader sees EOF once the
        front-end's process closes it, whatever the tree is doing.  The
        front-end's shm resource tracker is not shared either: a node
        whose links are shm starts its own."""
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
        read_fd, write_fd = os.pipe()
        pipes = {
            os.readlink(f"/proc/self/fd/{fd}")
            for fd in (read_fd, resource_tracker.getfd())
        }
        net = Network(balanced_tree(2, 2, hosts=["h0"]), transport="process")
        try:
            for proc in net._procs:
                fds = f"/proc/{proc.pid}/fd"
                held = {os.readlink(f"{fds}/{fd}") for fd in os.listdir(fds)}
                assert not pipes & held, held
            stream = net.new_stream(net.get_broadcast_communicator(), transform=TFILTER_SUM)
            stream.send("%d", 0)
            for rank in sorted(net.backends):
                _, bstream = net.backends[rank].recv(timeout=RECV_TIMEOUT)
                bstream.send("%d", rank + 1)
            assert stream.recv_values(timeout=RECV_TIMEOUT) == (10,)
        finally:
            net.shutdown()
            os.close(read_fd)
            os.close(write_fd)

    def test_flat_topology_spawns_no_processes(self):
        net = Network(flat_topology(3), transport="process")
        try:
            assert net._procs == []
            comm = net.get_broadcast_communicator()
            stream = net.new_stream(comm, transform=TFILTER_CONCAT)
            stream.send("%d", 0)
            for rank in sorted(net.backends):
                _, bstream = net.backends[rank].recv(timeout=RECV_TIMEOUT)
                bstream.send("%ud", rank)
            assert stream.recv_values(timeout=RECV_TIMEOUT) == ((0, 1, 2),)
        finally:
            net.shutdown()

    def test_custom_filter_loaded_in_every_process(self, tmp_path):
        """filter_specs ship like shared objects: path + name, loaded
        in the same order everywhere, so ids agree network-wide."""
        mod = tmp_path / "squares.py"
        mod.write_text(
            textwrap.dedent(
                """
                def sum_of_squares(packets, state):
                    total = sum(p.values[0] ** 2 for p in packets)
                    return [packets[0].replace(values=(total,))]
                """
            )
        )
        net = Network(
            balanced_tree(2, 2),
            transport="process",
            filter_specs=[(str(mod), "sum_of_squares")],
        )
        try:
            (fid,) = net.filter_ids
            comm = net.get_broadcast_communicator()
            stream = net.new_stream(comm, transform=fid)
            stream.send("%d", 0)
            for rank in sorted(net.backends):
                _, bstream = net.backends[rank].recv(timeout=RECV_TIMEOUT)
                bstream.send("%d", rank + 1)
            # (1²+2²)² + (3²+4²)² at the front-end level.
            expected = (1 + 4) ** 2 + (9 + 16) ** 2
            assert stream.recv_values(timeout=RECV_TIMEOUT) == (expected,)
        finally:
            net.shutdown()

    def test_multiple_streams_across_processes(self):
        net = Network(balanced_tree(2, 2), transport="process")
        try:
            comm = net.get_broadcast_communicator()
            s_sum = net.new_stream(comm, transform=TFILTER_SUM)
            s_max = net.new_stream(comm, transform=TFILTER_MAX)
            s_sum.send("%d", 0, tag=201)
            s_max.send("%d", 0, tag=202)
            for rank in sorted(net.backends):
                be = net.backends[rank]
                for _ in range(2):
                    packet, stream = be.recv(timeout=RECV_TIMEOUT)
                    stream.send("%d", rank if packet.tag == 201 else 100 + rank)
            assert s_sum.recv_values(timeout=RECV_TIMEOUT) == (6,)
            assert s_max.recv_values(timeout=RECV_TIMEOUT) == (103,)
        finally:
            net.shutdown()


class TestCommnodeProgram:
    def test_filter_spec_parsing(self):
        from repro.mrnet_commnode import parse_filter_spec

        assert parse_filter_spec("/p/m.py:f") == ("/p/m.py", "f", None)
        assert parse_filter_spec("/p/m.py:f:%d") == ("/p/m.py", "f", "%d")
        with pytest.raises(ValueError):
            parse_filter_spec("just-a-path")
        with pytest.raises(ValueError):
            parse_filter_spec("a:b:c:d")

    def test_cli_rejects_bad_parent(self, capsys):
        from repro.mrnet_commnode import main

        with pytest.raises(SystemExit):
            main(["--parent", "nocolon", "--subtree", '{"l": "n:0", "c": []}'])
        assert "malformed address" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["--parent", "127.0.0.1:1", "--subtree", "{not json"])

    def test_unknown_transport_still_rejected(self):
        with pytest.raises(NetworkError):
            Network(flat_topology(2), transport="smoke-signals")
