"""End-to-end tests for the colocated runtime (tentpole acceptance).

``Network(colocate=True)`` hosts every internal process of a local
tree on ONE shared selector loop: a single ``colocated-host`` thread,
comm-to-comm edges on in-process deque links.  These tests pin the
acceptance bars:

* thread census per mode — solo eventloop (1 thread/node), colocated
  (1 thread TOTAL, i.e. well under the <= 2/node bar);
* wave correctness, and byte-identity of what the front-end receives
  across all five placements, including chunked (pipelined) waves;
* observability — ``links{kind="inproc"}`` and ``loop_cores_hosted``
  in ``stats()``.
"""

import functools
import os
import threading
import time

import numpy as np
import pytest

from repro.core import Network
from repro.core.network import NetworkError
from repro.filters import TFILTER_CONCAT, TFILTER_SUM
from repro.topology import balanced_tree

from .test_network_recursive import PLACEMENTS, TWO_HOSTS

RECV_TIMEOUT = 10.0
CHUNK_BYTES = 4096
N_ELEMS = 4096  # 32 KiB float64 per rank, forces several chunks


def run_wave(net, stream, fmt="%d", payload=lambda rank: 2):
    stream.send("%d", 0)
    for rank in sorted(net.backends):
        packet, s = net.backends[rank].recv(timeout=RECV_TIMEOUT)
        s.send(fmt, payload(rank))
    return stream.recv(timeout=RECV_TIMEOUT)


def rank_array(rank, n=N_ELEMS):
    base = np.arange(n, dtype=np.float64)
    return tuple(((base * (rank + 1)) % 257 - 128.0).tolist())


def new_threads(before):
    return [t for t in threading.enumerate() if t not in before]


@functools.lru_cache(maxsize=None)
def front_end_bytes(placement):
    """``to_bytes()`` of three waves' results under one placement."""
    with Network(balanced_tree(2, 3, hosts=TWO_HOSTS), **PLACEMENTS[placement]) as net:
        comm = net.get_broadcast_communicator()
        waves = {
            "scalar_sum": (dict(transform=TFILTER_SUM), "%d", lambda r: r + 1),
            "concat": (dict(transform=TFILTER_CONCAT), "%s", lambda r: f"r{r}"),
            "chunked_sum": (
                dict(transform=TFILTER_SUM, chunk_bytes=CHUNK_BYTES),
                "%alf",
                rank_array,
            ),
        }
        return {
            name: run_wave(net, net.new_stream(comm, **opts), fmt, payload).to_bytes()
            for name, (opts, fmt, payload) in waves.items()
        }


class TestThreadCensus:
    """Tentpole acceptance: steady-state thread census per comm node."""

    def test_colocated_tree_costs_one_thread(self):
        before = set(threading.enumerate())
        net = Network(balanced_tree(4, 3), colocate=True)
        try:
            fresh = new_threads(before)
            n_internal = len(net._commnodes)
            assert n_internal == 4 + 16  # depth-3 fanout-4 internals
            # ONE host thread for the whole tree: census 1/21 per node.
            assert [t.name for t in fresh] == ["colocated-host"]
            assert len(fresh) / n_internal <= 2
            result = run_wave(
                net,
                net.new_stream(
                    net.get_broadcast_communicator(), transform=TFILTER_SUM
                ),
            )
            assert result.values == (2 * len(net.backends),)
        finally:
            net.shutdown()
        deadline = time.monotonic() + 5.0
        while new_threads(before) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not new_threads(before), "colocated host thread leaked"

    def test_solo_eventloop_one_thread_per_node(self):
        before = set(threading.enumerate())
        net = Network(balanced_tree(2, 2))
        try:
            fresh = new_threads(before)
            assert len(fresh) == len(net._commnodes) == 2
            assert all(t.name.startswith("commnode-") for t in fresh)
            assert len(fresh) / len(net._commnodes) <= 2
        finally:
            net.shutdown()


class TestColocationValidation:
    def test_rejects_tcp(self):
        with pytest.raises(NetworkError, match="colocate"):
            Network(balanced_tree(2, 2), colocate=True, transport="tcp")


class TestColocatedObservability:
    def test_inproc_links_and_loop_gauges_in_stats(self):
        net = Network(balanced_tree(2, 3), colocate=True)
        try:
            stats = net.stats()
            nodes = [
                v for k, v in stats.items()
                if isinstance(v, dict) and "links{kind=\"inproc\"}" in v
            ]
            assert nodes, "no per-node link census in stats"
            # Depth-3: each depth-1 node parents 2 depth-2 nodes over
            # inproc; each depth-2 node holds its inproc parent end.
            assert sum(n["links{kind=\"inproc\"}"] for n in nodes) >= 8
            # The loop-level gauges appear on every HOSTED core's
            # snapshot (the passive front-end has no loop).
            on_loop = [n for n in nodes if "loop_cores_hosted" in n]
            assert on_loop
            hosted = {n["loop_cores_hosted"] for n in on_loop}
            assert hosted == {len(net._commnodes)}
        finally:
            net.shutdown()


class TestColocatedCorrectness:
    def test_sum_wave_matches_expectation(self):
        net = Network(balanced_tree(4, 3), colocate=True)
        try:
            stream = net.new_stream(
                net.get_broadcast_communicator(), transform=TFILTER_SUM
            )
            for round_no in range(3):
                result = run_wave(
                    net, stream, payload=lambda rank: rank + round_no
                )
                ranks = sorted(net.backends)
                assert result.values == (
                    sum(r + round_no for r in ranks),
                )
        finally:
            net.shutdown()

    @pytest.mark.parametrize("placement", [p for p in PLACEMENTS if p != "tcp"])
    def test_chunked_wave_byte_identical_to_tcp(self, placement):
        """Where the nodes run and what the edges are made of must not
        show in the data: the packets the front-end receives — a scalar
        SUM, a concatenation, a chunked (pipelined) array SUM — are
        byte-identical to the same waves over thread-hosted TCP."""
        assert front_end_bytes(placement) == front_end_bytes("tcp")

    def test_concat_preserves_rank_order(self):
        net = Network(balanced_tree(2, 3), colocate=True)
        try:
            stream = net.new_stream(
                net.get_broadcast_communicator(), transform=TFILTER_CONCAT
            )
            result = run_wave(
                net, stream, fmt="%s", payload=lambda r: f"r{r}"
            )
            assert result.values == (
                tuple(f"r{r}" for r in sorted(net.backends)),
            )
        finally:
            net.shutdown()


class TestProcessColocation:
    def test_same_host_subtrees_share_processes(self):
        """transport='process' + colocate packs same-host internal
        subtree members into one OS process each (2 instead of 6)."""
        hosts = ["fe", "hA", "hB", "hA", "hA", "hB", "hB"] + [
            f"be{i}" for i in range(8)
        ]
        net = Network(
            balanced_tree(2, 3, hosts=hosts),
            transport="process",
            colocate=True,
        )
        try:
            assert len(net._procs) == 2  # one per co-location group
            stream = net.new_stream(
                net.get_broadcast_communicator(), transform=TFILTER_SUM
            )
            assert run_wave(net, stream).values == (2 * len(net.backends),)
        finally:
            net.shutdown()

    def test_forks_happen_before_any_loop_or_worker_thread(
        self, tmp_path, monkeypatch
    ):
        """``os.fork()`` in a process with live threads copies locks
        nobody will release.  The front-end forks before this network
        starts any thread, and a group that hosts nodes AND forks
        off-host children forks first, while it is single-threaded —
        the event loop's thread starts afterwards."""
        census = tmp_path / "fork_census"
        fork = os.fork

        def counting_fork():
            # Forked children inherit the patch: every process appends.
            with open(census, "a") as f:
                f.write(f"{threading.active_count()}\n")
            return fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        with Network(
            balanced_tree(2, 3, hosts=TWO_HOSTS),
            transport="process",
            colocate=True,
        ) as net:
            assert len(net._procs) == 2
            stream = net.new_stream(
                net.get_broadcast_communicator(), transform=TFILTER_SUM
            )
            assert run_wave(net, stream).values == (2 * len(net.backends),)
        # The front-end forks its two root children; each of them hosts
        # its same-host internal child and forks the other one.
        assert census.read_text().split() == ["1"] * 4

