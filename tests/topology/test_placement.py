"""The placement plan: node -> host group, edge -> link kind."""

import pytest

from repro.topology import (
    TopologyError,
    balanced_tree,
    link_transports,
    parse_config,
    plan_placement,
)

# fe -> a (host h1) -> b (h2) -> c (h2): b sits off its parent's host,
# c on b's.
CHAIN = parse_config(
    "fe:0 => h1:0 ; h1:0 => h2:0 be:0 ; h2:0 => h2:1 be:1 ; h2:1 => be:2 be:3 ;"
)


class TestPlanPlacement:
    def test_thread_hosted_groups(self):
        topo = balanced_tree(2, 3)
        solo = plan_placement(topo, "local")
        assert sorted(solo.group_of.values()) == list(range(6))
        assert set(solo.kind_of.values()) == {"channel"}
        shared = plan_placement(topo, "local", colocate=True)
        assert set(shared.group_of.values()) == {0}
        assert set(plan_placement(topo, "tcp").kind_of.values()) == {"tcp"}

    def test_passive_ends_never_share_a_loop(self):
        # The front-end and the back-ends are pumped by the tool, so
        # even one shared loop leaves their edges on mailboxes.
        topo = balanced_tree(2, 3)
        plan = plan_placement(topo, "local", colocate=True)
        for child in topo.root.children + topo.leaves():
            assert plan.kind_of[child.key] == "channel"
        assert list(plan.kind_of.values()).count("inproc") == 4

    def test_process_groups_follow_same_host_chains(self):
        plan = plan_placement(CHAIN, "process", colocate=True)
        # b was forked off-host, so it roots a new group — which c,
        # on b's host, joins.
        assert plan.group_of == {("h1", 0): 0, ("h2", 0): 1, ("h2", 1): 1}
        assert plan.kind_of[("h2", 0)] == "tcp"
        assert plan.kind_of[("h2", 1)] == "inproc"

    def test_same_host_processes_offer_shm(self):
        kinds = link_transports(CHAIN, "process")
        assert kinds[("h2:0", "h2:1")] == "shm"
        assert set(kinds.values()) == {"shm", "tcp"}

    def test_unknown_transport(self):
        with pytest.raises(TopologyError):
            plan_placement(CHAIN, "rsh")
