"""An untrusted peer on a live tree: one malformed packet, one lost link.

Back-end 0 sends ``TAG_JOIN`` in the wrong format.  Its parent must
close exactly that link and keep running: the loop threads stay up,
and the next wave completes over the three survivors with a
``RanksChanged`` naming rank 0 as lost.  One case per thread runtime.
"""

import pytest

from repro.core import DEGRADE, Network
from repro.faultinject import FaultInjector
from repro.filters import TFILTER_SUM
from repro.topology import balanced_tree

from .conftest import drive_wave, wait_until

WAVE_TIMEOUT = 10.0

RUNTIMES = {
    "colocated": {"colocate": True},
    "tcp": {"transport": "tcp"},
    "local": {},
}


@pytest.mark.parametrize("runtime", sorted(RUNTIMES))
def test_malformed_join_costs_the_sender_its_link(runtime, shutdown_nets):
    net = Network(balanced_tree(2, 2), policy=DEGRADE, **RUNTIMES[runtime])
    shutdown_nets.append(net)
    stream = net.new_stream(net.get_broadcast_communicator(), transform=TFILTER_SUM)
    assert drive_wave(net, stream, WAVE_TIMEOUT).values == (4,)
    parent = next(n for n in net._commnodes if 0 in n.core.reported_ranks)

    inj = FaultInjector(net)
    inj.send_malformed(0)
    assert inj.log == [("send_malformed", 0)]
    assert wait_until(
        lambda: any(0 in e.lost for e in net.recovery_events()),
        net=net,
        timeout=5.0,
    )
    assert all(n.is_alive() for n in net._commnodes)
    rejected = parent.core.metrics.counters()
    assert sum(c.value for k, c in rejected.items() if k.startswith("frames_rejected")) == 1
    assert net.backends[0].shut_down

    assert drive_wave(net, stream, WAVE_TIMEOUT).values == (3,)
    (event,) = [e for e in net.recovery_events() if e.lost]
    assert event.lost == (0,)
