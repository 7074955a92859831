"""Integration tests: parallel recursive instantiation (paper §2.5,
Figure 5), and the placement plan against the running tree.

``Network(transport="process")`` launches only the root's direct
internal children, each of which builds its own subtree concurrently,
and internal listener addresses travel up the data plane as
``TAG_ADDR_REPORT`` packets.  What every edge is made of comes from
:func:`repro.topology.plan_placement`; trees whose topology expresses
co-location (a shared host list) upgrade intra-host links to
shared-memory rings.
"""

import inspect
import os
import textwrap
import threading
import time

import pytest

from repro.core import Network, NetworkError
from repro.filters import TFILTER_CONCAT, TFILTER_SUM
from repro.topology import (
    LINK_KINDS,
    balanced_tree,
    flat_topology,
    link_transports,
    plan_placement,
)

RECV_TIMEOUT = 30.0


def run_reduction(net, expected_sum):
    comm = net.get_broadcast_communicator()
    stream = net.new_stream(comm, transform=TFILTER_SUM)
    stream.send("%d", 0)
    for rank in sorted(net.backends):
        _, bstream = net.backends[rank].recv(timeout=RECV_TIMEOUT)
        bstream.send("%d", rank + 1)
    assert stream.recv_values(timeout=RECV_TIMEOUT) == (expected_sum,)


class TestRecursiveInstantiation:
    def test_depth_three_tree_forks_grandchildren(self):
        # 2-ary depth-3: 6 internal nodes but only 2 direct Popen
        # children — the other 4 are forked by the subtree owners.
        net = Network(balanced_tree(2, 3), transport="process")
        try:
            assert len(net._procs) == 2
            assert len(net._core.addr_reports) == 6
            run_reduction(net, 36)  # 1+2+...+8
        finally:
            net.shutdown()
        assert all(p.poll() is not None for p in net._procs)

    def test_obs_ranks_match_sequential_numbering(self):
        # Identities number the internal nodes breadth-first (the
        # generator allocates hosts in the same order), whichever
        # process forked them: depth 3 tells that from preorder.
        net = Network(balanced_tree(2, 3), transport="process")
        try:
            stats = net.stats()
            keys = {k for k in stats if ":" in k and not k.startswith("0:")}
            assert keys == {f"{i}:node{i:04d}:0" for i in range(1, 7)}
        finally:
            net.shutdown()

    def test_popen_spawn_round_trips_flags(self, tmp_path):
        """Heartbeat and filter flags must survive the recursive spawn:
        the root's children are fresh interpreters that know only
        their argv, and the grandchildren they fork inherit from it."""
        mod = tmp_path / "doubler.py"
        mod.write_text(
            textwrap.dedent(
                """
                def double_sum(packets, state):
                    total = sum(p.values[0] for p in packets) * 2
                    return [packets[0].replace(values=(total,))]
                """
            )
        )
        net = Network(
            balanced_tree(2, 3),
            transport="process",
            filter_specs=[(str(mod), "double_sum")],
            heartbeat_interval=0.2,
        )
        try:
            (fid,) = net.filter_ids
            comm = net.get_broadcast_communicator()
            stream = net.new_stream(comm, transform=fid)
            stream.send("%d", 0)
            for rank in sorted(net.backends):
                _, bstream = net.backends[rank].recv(timeout=RECV_TIMEOUT)
                bstream.send("%d", rank + 1)
            # Depth-3 doubling cascade: leaves pair-sum doubled at
            # each of the three internal/front-end filter levels...
            # level1: 2*(a+b); level2: 2*(l+r); fe applies the filter
            # too.  1..8 pairwise: (1+2),(3+4),(5+6),(7+8) -> *2 =
            # 6,14,22,30; level2: (6+14)*2=40, (22+30)*2=104; fe:
            # (40+104)*2 = 288.
            assert stream.recv_values(timeout=RECV_TIMEOUT) == (288,)
        finally:
            net.shutdown()

    def test_concurrent_attach_backend_threads(self):
        """Mode 2 from many threads at once: a process-management
        system attaching all its tool daemons concurrently."""
        net = Network(
            balanced_tree(2, 2),
            transport="process",
            auto_backends=False,
        )
        try:
            errors = []

            def attach(rank):
                try:
                    net.attach_backend(rank)
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [
                threading.Thread(target=attach, args=(rank,))
                for rank in sorted(net._slots)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=RECV_TIMEOUT)
            assert not errors
            assert sorted(net.backends) == [0, 1, 2, 3]
            net.wait_for_ready(RECV_TIMEOUT)
            run_reduction(net, 10)
        finally:
            net.shutdown()

    def test_double_attach_raises_even_concurrently(self):
        net = Network(
            flat_topology(2), transport="process", auto_backends=False
        )
        try:
            net.attach_backend(0)
            with pytest.raises(NetworkError):
                net.attach_backend(0)
            net.attach_backend(1)
            net.wait_for_ready(RECV_TIMEOUT)
        finally:
            net.shutdown()

    def test_invalid_mode_arguments_raise(self):
        # The placement knobs are transport and colocate, nothing else.
        assert list(inspect.signature(Network.__init__).parameters)[1:] == [
            "topology", "registry", "auto_backends", "startup_timeout",
            "clock", "transport", "filter_specs", "policy",
            "heartbeat_interval", "heartbeat_miss_threshold",
            "checkpoint_interval", "colocate",
        ]
        topo = balanced_tree(2, 2)
        with pytest.raises(NetworkError):
            Network(topo, transport="rsh")
        with pytest.raises(NetworkError):
            Network(topo, policy="hope")


def filter_module(tmp_path, body):
    """A custom filter module whose *body* runs only in comm-node
    processes (the front-end loads the same file into its registry)."""
    mod = tmp_path / "child_only.py"
    mod.write_text(
        textwrap.dedent(
            f"""
            import os
            import sys

            IN_CHILD = os.getpid() != {os.getpid()}
            """
        )
        + textwrap.dedent(body)
    )
    return str(mod)


class TestChildStderr:
    """A spawned comm node's stderr is a file its forks share: writing
    to it never blocks, and start-up errors still quote it."""

    def test_chatty_child_never_wedges(self, tmp_path):
        # 100 KiB per wave and process: more than a pipe buffer holds.
        mod = filter_module(
            tmp_path,
            """
            def chatty_sum(packets, state):
                if IN_CHILD:
                    sys.stderr.write("x" * (100 << 10) + "\\n")
                    sys.stderr.flush()
                return [packets[0].replace(values=(sum(p.values[0] for p in packets),))]
            """,
        )
        with Network(
            balanced_tree(2, 2), transport="process", filter_specs=[(mod, "chatty_sum")]
        ) as net:
            (fid,) = net.filter_ids
            comm = net.get_broadcast_communicator()
            stream = net.new_stream(comm, transform=fid)
            for wave in range(3):
                stream.send("%d", wave)
                for rank in sorted(net.backends):
                    _, bstream = net.backends[rank].recv(timeout=RECV_TIMEOUT)
                    bstream.send("%d", rank + 1)
                assert stream.recv_values(timeout=RECV_TIMEOUT) == (10,)
            for proc in net._procs:
                assert os.fstat(proc.stderr_log.fileno()).st_size > 64 << 10

    def test_startup_death_quotes_the_last_stderr_line(self, tmp_path):
        mod = filter_module(
            tmp_path,
            """
            if IN_CHILD:
                sys.stderr.write("traceback noise\\nchild-only filter refused to load\\n")
                sys.stderr.flush()
                os._exit(3)

            def identity(packets, state):
                return packets
            """,
        )
        with pytest.raises(NetworkError) as err:
            Network(
                balanced_tree(2, 2),
                transport="process",
                filter_specs=[(mod, "identity")],
                startup_timeout=3.0,
            )
        assert "exit=3" in str(err.value)
        assert "child-only filter refused to load" in str(err.value)


# fe and its first child share host hA, the second child sits on hB;
# each child keeps one internal child on its own host and one on the
# other, and the first leaf is on hA like its parent: process trees
# over this topology have tcp, shm and (colocated) inproc edges.
TWO_HOSTS = ["hA", "hA", "hB", "hA", "hB", "hB", "hA", "hA"] + [
    f"be{i}" for i in range(7)
]

PLACEMENTS = {
    "local": dict(),
    "colocated": dict(colocate=True),
    "tcp": dict(transport="tcp"),
    "process": dict(transport="process"),
    "process-colocated": dict(transport="process", colocate=True),
}


class TestPlanMatchesRuntime:
    @pytest.mark.parametrize(
        "placement, hosts",
        [(name, None) for name in PLACEMENTS]
        + [("process", TWO_HOSTS), ("process-colocated", TWO_HOSTS)],
        ids=lambda v: v if isinstance(v, str) else "two-hosts" if v else "own-hosts",
    )
    def test_running_tree_reports_the_planned_link_kinds(self, placement, hosts):
        """Every process's ``links{kind=...}`` census (its uplink plus
        its child edges) equals the plan's, kind by kind."""
        topo = balanced_tree(2, 3, hosts=hosts)
        kwargs = PLACEMENTS[placement]
        plan = plan_placement(
            topo, kwargs.get("transport", "local"), kwargs.get("colocate", False)
        )
        planned = {}
        for node in topo.nodes():
            if node.is_leaf:
                continue
            kinds = [plan.kind_of[c.key] for c in node.children]
            if node is not topo.root:
                kinds.append(plan.kind_of[node.key])
            name = "front-end" if node is topo.root else node.label
            planned[name] = {k: kinds.count(k) for k in LINK_KINDS}
        if hosts:
            assert {"tcp", "shm"} <= set(plan.kind_of.values())
            assert ("inproc" in plan.kind_of.values()) == ("colocate" in kwargs)

        with Network(topo, **kwargs) as net:
            run_reduction(net, 36)
            stats = net.stats(timeout=10.0)
        reported = {
            key.split(":", 1)[1]: {
                k: proc[f'links{{kind="{k}"}}'] for k in LINK_KINDS
            }
            for key, proc in stats.items()
            if key not in ("recovery", "meta")
        }
        assert reported == planned


class TestShmNetwork:
    def test_co_located_tree_runs_on_shm(self):
        from repro.transport.shm import live_segments

        # One host for everything: every link in the plan is shm, and
        # every segment is gone once the tree is.
        topo = balanced_tree(2, 2, hosts=["h0"])
        assert set(link_transports(topo).values()) == {"shm"}
        net = Network(topo, transport="process")
        try:
            run_reduction(net, 10)
            assert net.stats()["0:front-end"]['links{kind="shm"}'] == 2
        finally:
            net.shutdown()
        deadline = time.monotonic() + 5
        while live_segments() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert live_segments() == []

    def test_distinct_hosts_stay_on_tcp(self):
        # Default generators give every process its own host: nothing
        # is planned onto shared memory.
        plan = link_transports(balanced_tree(2, 2))
        assert set(plan.values()) == {"tcp"}

    def test_segment_failure_falls_back_to_tcp(self, monkeypatch):
        """If rings cannot be created the link silently stays TCP —
        degradation, never an error (the negotiation contract)."""
        from repro.transport import shm as shm_mod

        def broken_create(cls, capacity=shm_mod.DEFAULT_CAPACITY):
            raise OSError("no /dev/shm")

        monkeypatch.setattr(
            shm_mod.ShmRing, "create", classmethod(broken_create)
        )
        # Flat co-located topology: the back-ends (this process) are
        # the connectors whose offers now fail.
        net = Network(flat_topology(3, hosts=["h0"]), transport="process")
        try:
            assert all(slot.shm for slot in net._slots.values())
            stats = net.stats()
            fe = stats["0:front-end"]
            assert fe['links{kind="shm"}'] == 0
            assert fe['links{kind="tcp"}'] == 3
            comm = net.get_broadcast_communicator()
            stream = net.new_stream(comm, transform=TFILTER_CONCAT)
            stream.send("%d", 0)
            for rank in sorted(net.backends):
                _, bstream = net.backends[rank].recv(timeout=RECV_TIMEOUT)
                bstream.send("%ud", rank)
            assert stream.recv_values(timeout=RECV_TIMEOUT) == ((0, 1, 2),)
        finally:
            net.shutdown()

    def test_local_transport_plan_is_channel(self):
        plan = link_transports(balanced_tree(2, 2), transport="local")
        assert set(plan.values()) == {"channel"}
