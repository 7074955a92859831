"""LogGP fit from the live micro-calls, and model-vs-measured residuals.

ROADMAP item 1 asks for the simulator's LogP/LogGP parameters to be
fitted from live measurements and compared against live trees.  The
fit uses only per-layer numbers the traced run already produced:

* ``g`` — how long a node is occupied per inbound message:
  ``core.commnode.hop_us`` (4 child frames in, one reduced frame out)
  divided by the fan-out;
* ``2o + L`` — half a 64-byte echo through the link kind the workload's
  tree uses (``transport.<kind>.pingpong_us``); ``o`` is taken as the
  smaller of ``g`` and a quarter of the echo, ``L`` is what is left;
* ``G`` — seconds per byte from ``transport.<kind>.mb_per_s``.

A residual far from 1 is a bug report against the model or the runtime
(on the colocated runtime every node shares one thread, which LogP's
one-processor-per-node assumption does not describe).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.sim.logp import (
    LogGPParams, broadcast_latency, pipelined_throughput, reduction_latency,
)
from repro.topology import balanced_tree

FANOUT = 4

#: workload -> (tree shape, link kind, bytes per hop down, bytes per hop up)
SHAPES = {
    "rtt_colocated": ((4, 3), "inproc", 4, 4),
    "rtt_tcp": ((4, 3), "tcp", 4, 4),
    "stream_process": ((4, 2), "tcp", 0, 4),
    "bulk_tcp": ((2, 3), "tcp", 4, 4 << 20),
    "mcast_colocated": ((4, 3), "inproc", 32 << 10, 4),
}


def fit(layer: Dict[str, float], kind: str) -> LogGPParams:
    echo = layer[f"transport.{kind}.pingpong_us"] * 1e-6
    g = layer["core.commnode.hop_us"] * 1e-6 / FANOUT
    o = min(g, echo / 4)
    return LogGPParams(
        L=max(echo / 2 - 2 * o, 0.0),
        o=o,
        g=g,
        G=1.0 / (layer[f"transport.{kind}.mb_per_s"] * 1e6),
    )


def residual(workload: str, layer: Dict[str, float], measured: float) -> Dict[str, float]:
    """Fitted parameters and model ÷ measured for *workload*.

    *measured* is the closed-loop wave median in seconds, or waves per
    second for ``stream_process``.  Workloads the simulator has no
    shape for (the gateway's queue, recovery) report zeros.
    """
    shape: Optional[tuple] = SHAPES.get(workload)
    if shape is None:
        return {name: 0.0 for name in (
            "sim.logp.o_us", "sim.logp.L_us", "sim.logp.g_us",
            "sim.logp.G_ns_per_byte", "sim.logp.residual",
        )}
    (fanout, depth), kind, down_bytes, up_bytes = shape
    params = fit(layer, kind)
    spec = balanced_tree(fanout, depth)
    if workload == "stream_process":
        model = pipelined_throughput(spec, params)
    else:
        model = broadcast_latency(spec, params, down_bytes) + reduction_latency(
            spec, params, up_bytes
        )
    return {
        "sim.logp.o_us": params.o * 1e6,
        "sim.logp.L_us": params.L * 1e6,
        "sim.logp.g_us": params.g * 1e6,
        "sim.logp.G_ns_per_byte": params.G * 1e9,
        "sim.logp.residual": model / measured,
    }
