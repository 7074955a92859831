"""Start-up latency and co-located link throughput (paper §2.5, Fig 7a).

Three scenarios:

1. **startup_64leaf_depth3** — full ``Network()`` instantiation of a
   64-leaf, depth-3 (fan-out 4) process tree, in absolute seconds:
   each comm node forks its own subtree, listener addresses travel up
   the data plane, and back-end attaches run concurrently.  The
   paper's Figure 7a point: start-up should scale with tree *depth*,
   not node count — no ``BENCHMARK.json`` workload has internal
   grandchildren, so this scenario is what holds the fork-before-dial
   order of ``mrnet_commnode``.  (The sequential curve of Figure 7a
   is reproduced by ``repro.sim.instantiation``.)

2. **shm_relay_hop** — packets/s through one co-located link carrying
   relay-hop shaped traffic (8-packet batches of ``%ad`` arrays, the
   adaptive-flush frame size an internal process actually forwards).
   Baseline: loopback TCP.  New: the shared-memory ring transport
   negotiated on the same listener.

3. **colocated_1000node** — a 1000-leaf, depth-3 (fan-out 10) tree
   hosted entirely in one process by ``Network(colocate=True)``: all
   110 internal nodes share ONE selector-loop thread with comm-to-comm
   edges on in-process deque links.  The gated "speedup" is the
   steady-state thread-census reduction (threads the solo runtime
   would spend — one per internal node — over threads the colocated
   host actually spends), a structural ratio that cannot flake;
   ``colocated_startup_s`` and a live SUM wave are recorded as
   evidence the tree instantiates in single-digit seconds and works.

Writes ``BENCH_startup.json`` (repo root by default) with all
numbers; ``--smoke`` runs a fast sanity pass for CI (smaller tree,
fewer frames).  ``check_regression.py`` gates scenario 1 with a
ceiling of 1.5 × the committed ``recursive_s`` for the same mode and
scenarios 2 and 3 by their speedup ratios.

Usage::

   PYTHONPATH=src python benchmarks/bench_startup.py [--smoke] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.batching import encode_batch  # noqa: E402
from repro.core.network import Network  # noqa: E402
from repro.core.packet import Packet  # noqa: E402
from repro.topology.generators import balanced_tree  # noqa: E402
from repro.transport.channel import Inbox  # noqa: E402
from repro.transport.shm import live_segments  # noqa: E402
from repro.transport.tcp import TcpListener, tcp_connect_retry  # noqa: E402


# -- scenario 1: instantiation latency --------------------------------------


def time_startup(topology) -> float:
    """Seconds for one full ``Network()`` bring-up (ready included)."""
    t0 = time.monotonic()
    net = Network(topology, transport="process")
    elapsed = time.monotonic() - t0
    net.shutdown()
    return elapsed


def bench_startup(fanout: int, depth: int, rounds: int) -> dict:
    best = min(time_startup(balanced_tree(fanout, depth)) for _ in range(rounds))
    return {
        "fanout": fanout,
        "depth": depth,
        "backends": fanout**depth,
        "internal_nodes": sum(fanout**d for d in range(1, depth)),
        "rounds": rounds,
        "recursive_s": round(best, 4),
    }


# -- scenario 2: co-located link throughput ---------------------------------


def relay_frame(packets_per_message: int, elements: int) -> bytes:
    """One relay-hop wire frame: a batch of array-bearing packets."""
    values = tuple(range(elements))
    packets = [
        Packet(5, 200 + i, "%ad", (values,))
        for i in range(packets_per_message)
    ]
    return bytes(encode_batch(packets))


def measure_link_pps(shm: bool, frame: bytes, n_frames: int, ppm: int) -> float:
    """Packets/s across one link: a sender thread blasts *n_frames*
    while the main thread drains the receiving inbox."""
    inbox = Inbox()
    listener = TcpListener(inbox)
    peer_inbox = Inbox()
    result = {}

    def connect():
        result["end"] = tcp_connect_retry(
            listener.address, peer_inbox, shm=shm
        )

    t = threading.Thread(target=connect)
    t.start()
    server_end = listener.accept(timeout=10)
    t.join()
    client = result["end"]
    if shm:
        assert client.transport_kind == "shm", "upgrade was refused"

    t0 = time.monotonic()
    sender = threading.Thread(
        target=lambda: [client.send(frame) for _ in range(n_frames)]
    )
    sender.start()
    got = 0
    while got < n_frames:
        _, payload = inbox.get(timeout=30)
        assert payload is not None, "link died mid-benchmark"
        got += 1
    elapsed = time.monotonic() - t0
    sender.join()
    client.close()
    server_end.close()
    listener.close()
    # Let reader threads release their ring mappings before the next
    # measurement (and before interpreter exit: the resource tracker
    # warns about segments still mapped at shutdown).
    deadline = time.monotonic() + 5
    while live_segments() and time.monotonic() < deadline:
        time.sleep(0.01)
    return n_frames * ppm / elapsed


def bench_shm_relay(
    n_frames: int, repeats: int, packets_per_message: int = 8,
    elements: int = 2048,
) -> dict:
    frame = relay_frame(packets_per_message, elements)
    tcp_pps = shm_pps = 0.0
    for _ in range(repeats):
        tcp_pps = max(
            tcp_pps, measure_link_pps(False, frame, n_frames, packets_per_message)
        )
        shm_pps = max(
            shm_pps, measure_link_pps(True, frame, n_frames, packets_per_message)
        )
    return {
        "packets_per_message": packets_per_message,
        "elements": elements,
        "frame_bytes": len(frame),
        "frames": n_frames,
        "repeats": repeats,
        "tcp_pps": round(tcp_pps),
        "shm_pps": round(shm_pps),
        "speedup": round(shm_pps / tcp_pps, 2),
    }


# -- scenario 3: colocated thread census ------------------------------------


def bench_colocated(fanout: int, depth: int) -> dict:
    """Whole tree in one process on one shared event-loop thread."""
    from repro.filters import TFILTER_SUM

    before = set(threading.enumerate())
    t0 = time.monotonic()
    net = Network(balanced_tree(fanout, depth), colocate=True)
    startup_s = time.monotonic() - t0
    host_threads = len(
        [t for t in threading.enumerate() if t not in before]
    )
    n_internal = len(net._commnodes)
    try:
        stream = net.new_stream(
            net.get_broadcast_communicator(), transform=TFILTER_SUM
        )
        t0 = time.monotonic()
        stream.send("%d", 0)
        for rank in sorted(net.backends):
            _, s = net.backends[rank].recv(timeout=30)
            s.send("%d", 1)
        result = stream.recv(timeout=30)
        wave_s = time.monotonic() - t0
        assert result.values == (len(net.backends),), "wave corrupted"
    finally:
        net.shutdown()
    return {
        "fanout": fanout,
        "depth": depth,
        "backends": fanout**depth,
        "internal_nodes": n_internal,
        "colocated_startup_s": round(startup_s, 4),
        "sum_wave_s": round(wave_s, 4),
        "colocated_threads": host_threads,
        # The solo event-loop runtime spends one thread per internal
        # node; the gated ratio is that census over what the colocated
        # host actually spends.  Structural, so it never flakes.
        "solo_threads": n_internal,
        "speedup": round(n_internal / host_threads, 2),
    }


# -- driver -----------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument(
        "--out", type=Path, default=REPO_ROOT / "BENCH_startup.json"
    )
    args = parser.parse_args(argv)

    if args.smoke:
        # Depth 3 even in smoke: only internal grandchildren exercise
        # the fork-before-dial order.
        startup = bench_startup(fanout=2, depth=3, rounds=1)
        relay = bench_shm_relay(n_frames=1000, repeats=2)
        colocated = bench_colocated(fanout=4, depth=3)
    else:
        startup = bench_startup(fanout=4, depth=3, rounds=3)
        relay = bench_shm_relay(n_frames=2000, repeats=3)
        colocated = bench_colocated(fanout=10, depth=3)

    doc = {
        "benchmark": "bench_startup",
        "description": (
            "Process-tree instantiation latency (parallel recursive, "
            "Fig 7a), co-located link throughput (loopback "
            "TCP vs shared-memory rings), and the colocated single-loop "
            "runtime's thread census on a 1000-leaf tree"
        ),
        "mode": "smoke" if args.smoke else "full",
        "python": platform.python_version(),
        "results": {
            "startup_64leaf_depth3": startup,
            "shm_relay_hop": relay,
            "colocated_1000node": colocated,
        },
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps(doc["results"], indent=2))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
