"""Live-overlay observability: typed metrics, wave tracing, snapshots.

The paper evaluates MRNet by timing waves of packets through the tree
(Figures 6-9); this package gives the *live* data plane the same
visibility the simulator has had via
:class:`~repro.sim.trace.SimTrace`:

* :mod:`repro.obs.metrics` — a typed metrics registry (counters,
  gauges, fixed-bucket latency histograms) with per-stream and
  per-filter labels, replacing the ad-hoc ``dict`` counters that grew
  across the transport, core and failure layers.  Exports as plain
  JSON-able dicts and as Prometheus text.
* :mod:`repro.obs.tracing` — a low-overhead span recorder hooked into
  the event loop, packet buffers, stream managers and filters.  Spans
  cover the Figure 3 internal-process stages (``recv`` → ``demux`` →
  ``sync_wait`` → ``filter`` → ``rebatch`` → ``send``) and export as
  Chrome/Perfetto trace JSON exactly like ``SimTrace.to_chrome_trace``,
  so simulated and live runs are visually comparable.
* :mod:`repro.obs.snapshot` — the ``STATS_SNAPSHOT`` pull path: the
  front-end broadcasts a stats request down the control stream and
  internal nodes reply with their serialized registries, batched back
  up the tree through the same packet buffers that carry tool data.

See ``docs/observability.md`` for the metrics catalog, the tracing
quickstart and the wire protocol.
"""

from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    prometheus_text,
)
from .snapshot import (
    STATS_SCHEMA,
    dumps_snapshot,
    loads_snapshot,
)
from .tracing import (
    STAGES,
    TraceRecorder,
    to_chrome_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "prometheus_text",
    "TraceRecorder",
    "STAGES",
    "to_chrome_trace",
    "STATS_SCHEMA",
    "dumps_snapshot",
    "loads_snapshot",
]
