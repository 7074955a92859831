"""Forked comm-node processes next to a front-end with threads of its own.

Every comm-node process is an ``os.fork()`` of the front-end (or of its
fork).  The front-end may run other networks' threads while it forks:
a fork copies whatever those threads hold — locks, sockets — into the
child.  These tests pin that a child touches none of it: it builds and
runs while another thread holds a process-wide lock, and it keeps no
socket of another network open.
"""

import os
import socket
import threading
import time

import pytest

from repro.core import Network
from repro.faultinject import FaultInjector
from repro.filters import TFILTER_SUM
from repro.topology import balanced_tree
from repro.transport import shm
from repro.transport.shm import shm_available

RECV_TIMEOUT = 10.0

# Each root child shares host hA or hB with its own internal children
# (shm uplinks between two forked processes); the front-end and the
# back-ends are on hosts of their own, so the front-end never maps a
# segment itself.
SHM_BELOW_ROOT = ["fe", "hA", "hB", "hA", "hA", "hB", "hB"] + [
    f"be{i}" for i in range(8)
]


def run_wave(net):
    stream = net.new_stream(net.get_broadcast_communicator(), transform=TFILTER_SUM)
    stream.send("%d", 0)
    for rank in sorted(net.backends):
        _, bstream = net.backends[rank].recv(timeout=RECV_TIMEOUT)
        bstream.send("%d", rank + 1)
    return stream.recv_values(timeout=RECV_TIMEOUT)


def socket_inodes(pid="self"):
    """``socket:[inode]`` names of every socket fd *pid* holds."""
    fds = f"/proc/{pid}/fd"
    names = set()
    for fd in os.listdir(fds):
        try:
            link = os.readlink(f"{fds}/{fd}")
        except OSError:
            continue  # closed between the two calls
        if link.startswith("socket:"):
            names.add(link)
    return names


def process_tree(pids):
    """*pids* and every descendant of theirs (Linux ``/proc``)."""
    out, todo = [], list(pids)
    while todo:
        pid = todo.pop()
        out.append(pid)
        try:
            with open(f"/proc/{pid}/task/{pid}/children") as kids:
                todo += [int(k) for k in kids.read().split()]
        except OSError:
            pass
    return out


@pytest.mark.skipif(not shm_available(), reason="POSIX shared memory unavailable")
def test_process_tree_builds_while_other_threads_hold_process_globals():
    """A fork while another thread holds the shm census lock, and while
    a tcp network's loop and reader threads run, still builds a tree
    whose forked processes map shm rings and run a wave."""
    held, release = threading.Event(), threading.Event()

    def hold_shm_lock():
        with shm._live_lock:
            held.set()
            release.wait(30)

    holder = threading.Thread(target=hold_shm_lock, name="shm-lock-holder")
    with Network(balanced_tree(2, 2), transport="tcp") as tcp_net:
        holder.start()
        try:
            assert held.wait(5)
            with Network(
                balanced_tree(2, 3, hosts=SHM_BELOW_ROOT), transport="process"
            ) as net:
                shm_links = sum(
                    node.get('links{kind="shm"}', 0) for node in net.stats().values()
                )
                assert shm_links == 8  # both ends of four forked-to-forked uplinks
                assert run_wave(net) == (36,)
                assert run_wave(tcp_net) == (10,)
        finally:
            release.set()
            holder.join()


def test_children_keep_no_socket_of_another_network():
    """Network B's processes hold none of network A's sockets, so while
    B is up A still sees the EOF of a node it loses, and shuts down in
    its usual time."""
    a = Network(balanced_tree(2, 2), transport="tcp")
    try:
        assert run_wave(a) == (10,)
        a_sockets = socket_inodes()
        with Network(balanced_tree(2, 3), transport="process") as b:
            pids = process_tree(p.pid for p in b._procs)
            assert len(pids) == 6
            for pid in pids:
                assert not socket_inodes(pid) & a_sockets, pid
            FaultInjector(a).kill_commnode(0)
            deadline = time.monotonic() + 5.0
            while not any(e.lost for e in a.recovery_events()):
                assert time.monotonic() < deadline, "no EOF from the killed node"
                a._pump(0.02)
            t0 = time.monotonic()
            a.shutdown()
            assert time.monotonic() - t0 < 1.0
            assert run_wave(b) == (36,)
    finally:
        a.shutdown()


def test_closed_listener_refuses_while_a_later_network_runs():
    """A process network's listener, once shut down, refuses new
    connections even though a network forked after it is still up."""
    a = Network(balanced_tree(2, 2), transport="process")
    addr = a._listener.address
    with Network(balanced_tree(2, 2), transport="process") as b:
        a.shutdown()
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(addr, timeout=2).close()
        assert run_wave(b) == (10,)


def test_child_stdio_is_the_log_and_dev_null():
    """A forked child writes stderr to the log the front-end quotes on
    a start-up death, and stdout nowhere."""
    with Network(balanced_tree(2, 2), transport="process") as net:
        for proc in net._procs:
            fds = f"/proc/{proc.pid}/fd"
            assert os.path.samestat(
                os.stat(f"{fds}/2"), os.fstat(proc.stderr_log.fileno())
            )
            assert os.readlink(f"{fds}/1") == os.devnull
