"""Typed metrics registry for the live data plane.

Three instrument kinds, mirroring the Prometheus data model:

* :class:`Counter` — a monotonically increasing count (packets
  relayed, waves aggregated, heartbeats missed).
* :class:`Gauge` — a value that goes up and down (streams currently
  open, bytes parked in a send queue).
* :class:`Histogram` — fixed-bucket distribution with a running sum
  and count (wave sync-wait latency, flush batch sizes).

Hot-path philosophy: an instrument is a tiny ``__slots__`` object and
a bump is one attribute add (``counter.value += 1``) — the same cost
as the ad-hoc ``dict`` counters it replaces; the relay hop that pays
it is held under a per-packet budget by
``benchmarks/test_budgets.py``.  All structure (names, help text,
labels, bucket layout) lives in the registry and is only walked at
snapshot time.

Labels are fixed at instrument creation (``registry.counter("waves",
stream="5", filter="sum")``); the rendered key uses the Prometheus
``name{k="v"}`` form so labelled series survive a JSON round trip
through the ``STATS_SNAPSHOT`` wire protocol unchanged.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Callable, Dict, List, Mapping, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "prometheus_text",
    "render_key",
    "parse_key",
]

# Upper bucket bounds in seconds: 10 µs .. 10 s, roughly logarithmic.
# Sized for the latencies this overlay actually sees: a local relay
# hop is ~10 µs, a TCP loopback wave ~1 ms, a repair ~50 ms.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1.0, 10.0,
)

# Upper bucket bounds for size-ish distributions (packets per flushed
# message): powers of two up to the FLUSH_MAX_PACKETS bound.
DEFAULT_SIZE_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 512)


def render_key(name: str, labels: Optional[Mapping[str, object]]) -> str:
    """Render ``name`` + labels as a Prometheus-style series key.

    ``render_key("waves", {"stream": 5})`` → ``'waves{stream="5"}'``.
    Unlabelled instruments render as the bare name.  Label values are
    stringified; label *names* must be identifiers.
    """
    if not labels:
        return name
    inner = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return f"{name}{{{inner}}}"


_KEY_RE = re.compile(r'^(?P<name>[A-Za-z_:][A-Za-z0-9_:]*)(?:\{(?P<labels>.*)\})?$')
_LABEL_RE = re.compile(r'(?P<k>[A-Za-z_][A-Za-z0-9_]*)="(?P<v>[^"]*)"')


def parse_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Invert :func:`render_key`: split a series key into name + labels."""
    m = _KEY_RE.match(key)
    if m is None:
        return key, {}
    labels = dict(
        (lm.group("k"), lm.group("v"))
        for lm in _LABEL_RE.finditer(m.group("labels") or "")
    )
    return m.group("name"), labels


class Counter:
    """A monotonically increasing integer metric.

    The hot path may bump :attr:`value` directly (``c.value += 1``);
    :meth:`inc` is the readable form for warm paths.
    """

    __slots__ = ("name", "help", "labels", "value")

    def __init__(self, name: str, help: str = "", labels: Optional[dict] = None):
        self.name = name
        self.help = help
        self.labels = dict(labels) if labels else None
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add *n* (default 1) to the counter."""
        self.value += n

    @property
    def key(self) -> str:
        """The rendered ``name{labels}`` series key."""
        return render_key(self.name, self.labels)

    def __repr__(self) -> str:
        return f"Counter({self.key}={self.value})"


class Gauge:
    """A point-in-time value that can go up and down.

    A gauge may be *callback-backed*: built with ``fn``, its value is
    computed on read (used for quantities derived from live structures
    — open streams, parked bytes — so the hot path never maintains
    them).
    """

    __slots__ = ("name", "help", "labels", "_value", "fn")

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: Optional[dict] = None,
        fn: Optional[Callable[[], float]] = None,
    ):
        self.name = name
        self.help = help
        self.labels = dict(labels) if labels else None
        self._value: float = 0
        self.fn = fn

    def set(self, value: float) -> None:
        """Set the gauge to *value*."""
        self._value = value

    def inc(self, n: float = 1) -> None:
        """Add *n* (default 1) to the gauge."""
        self._value += n

    def dec(self, n: float = 1) -> None:
        """Subtract *n* (default 1) from the gauge."""
        self._value -= n

    @property
    def value(self) -> float:
        """Current value (evaluates the callback, if one is bound)."""
        if self.fn is not None:
            try:
                return self.fn()
            except Exception:
                return self._value
        return self._value

    @property
    def key(self) -> str:
        """The rendered ``name{labels}`` series key."""
        return render_key(self.name, self.labels)

    def __repr__(self) -> str:
        return f"Gauge({self.key}={self.value})"


class Histogram:
    """A fixed-bucket distribution with running sum and count.

    ``buckets`` are *upper* bounds; an implicit ``+Inf`` bucket
    catches the rest.  Unlike Prometheus exposition the per-bucket
    counts here are **not** cumulative — they are raw occupancy, which
    keeps merging and JSON round-trips trivial; :func:`prometheus_text`
    re-cumulates on export.
    """

    __slots__ = ("name", "help", "labels", "buckets", "counts", "sum", "count")

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
        labels: Optional[dict] = None,
    ):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be sorted and non-empty")
        self.name = name
        self.help = help
        self.labels = dict(labels) if labels else None
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(buckets) + 1)  # +1 for the +Inf bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    @property
    def key(self) -> str:
        """The rendered ``name{labels}`` series key."""
        return render_key(self.name, self.labels)

    def to_dict(self) -> dict:
        """JSON-able dump: bucket bounds, raw counts, sum, count."""
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }

    def __repr__(self) -> str:
        return f"Histogram({self.key}, n={self.count}, sum={self.sum:.6f})"


class MetricsRegistry:
    """One process's typed instruments, keyed by name + labels.

    Instrument constructors are memoizing: asking twice for the same
    ``(name, labels)`` returns the same object, so callers pre-bind
    instruments once and bump attributes on the hot path.
    """

    def __init__(self, namespace: str = "mrnet"):
        self.namespace = namespace
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- construction ------------------------------------------------------

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        """Get or create the counter for ``name`` + *labels*."""
        key = render_key(name, labels)
        c = self._counters.get(key)
        if c is None:
            c = self._counters[key] = Counter(name, help, labels)
        return c

    def gauge(
        self, name: str, help: str = "", fn: Optional[Callable] = None, **labels
    ) -> Gauge:
        """Get or create the gauge for ``name`` + *labels*.

        ``fn`` binds a read-time callback (only applied on creation).
        """
        key = render_key(name, labels)
        g = self._gauges.get(key)
        if g is None:
            g = self._gauges[key] = Gauge(name, help, labels, fn=fn)
        return g

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
        **labels,
    ) -> Histogram:
        """Get or create the histogram for ``name`` + *labels*."""
        key = render_key(name, labels)
        h = self._histograms.get(key)
        if h is None:
            h = self._histograms[key] = Histogram(name, help, buckets, labels)
        return h

    # -- introspection -----------------------------------------------------

    def counters(self) -> Dict[str, Counter]:
        """Live ``series-key -> Counter`` mapping (not a copy)."""
        return self._counters

    def snapshot(self) -> dict:
        """JSON-able dump of every instrument.

        ``{"counters": {key: int}, "gauges": {key: float},
        "histograms": {key: {...}}}`` — the exact shape carried by
        ``STATS_SNAPSHOT`` replies and returned from
        ``Network.stats()``.
        """
        return {
            "counters": {k: c.value for k, c in self._counters.items()},
            "gauges": {k: g.value for k, g in self._gauges.items()},
            "histograms": {k: h.to_dict() for k, h in self._histograms.items()},
        }

    def help_catalog(self) -> Dict[str, Tuple[str, str]]:
        """``metric name -> (kind, help)`` for every registered metric."""
        out: Dict[str, Tuple[str, str]] = {}
        for c in self._counters.values():
            out.setdefault(c.name, ("counter", c.help))
        for g in self._gauges.values():
            out.setdefault(g.name, ("gauge", g.help))
        for h in self._histograms.values():
            out.setdefault(h.name, ("histogram", h.help))
        return out

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry({self.namespace}, "
            f"{len(self._counters)}c/{len(self._gauges)}g/"
            f"{len(self._histograms)}h)"
        )


def _prom_series(
    lines: List[str],
    namespace: str,
    kind: str,
    name: str,
    helps: Dict[str, str],
    emitted: set,
) -> str:
    """Emit ``# HELP``/``# TYPE`` headers once per metric; return the
    namespaced metric name."""
    full = f"{namespace}_{name}" if namespace else name
    if full not in emitted:
        emitted.add(full)
        help_text = helps.get(name, "")
        if help_text:
            lines.append(f"# HELP {full} {help_text}")
        lines.append(f"# TYPE {full} {kind}")
    return full


def _labels_text(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return f"{{{inner}}}"


def prometheus_text(
    processes: Mapping[str, Mapping],
    namespace: str = "mrnet",
    helps: Optional[Dict[str, str]] = None,
) -> str:
    """Render per-process snapshot dicts as Prometheus exposition text.

    *processes* maps a process key (``"0:front-end"``) to a snapshot in
    :meth:`MetricsRegistry.snapshot` shape; every series gains a
    ``process`` label.  Works equally on local snapshots and ones that
    travelled through the ``STATS_SNAPSHOT`` wire protocol, because the
    snapshot dict *is* the wire format.
    """
    helps = helps or {}
    lines: List[str] = []
    emitted: set = set()
    for proc, snap in processes.items():
        base = {"process": str(proc)}
        for key, value in snap.get("counters", {}).items():
            name, labels = parse_key(key)
            full = _prom_series(lines, namespace, "counter", name, helps, emitted)
            labels = {**labels, **base}
            lines.append(f"{full}{_labels_text(labels)} {value}")
        for key, value in snap.get("gauges", {}).items():
            name, labels = parse_key(key)
            full = _prom_series(lines, namespace, "gauge", name, helps, emitted)
            labels = {**labels, **base}
            lines.append(f"{full}{_labels_text(labels)} {value}")
        for key, hist in snap.get("histograms", {}).items():
            name, labels = parse_key(key)
            full = _prom_series(lines, namespace, "histogram", name, helps, emitted)
            labels = {**labels, **base}
            cumulative = 0
            bounds = list(hist["buckets"]) + ["+Inf"]
            for bound, count in zip(bounds, hist["counts"]):
                cumulative += count
                le = {**labels, "le": str(bound)}
                lines.append(f"{full}_bucket{_labels_text(le)} {cumulative}")
            lines.append(f"{full}_sum{_labels_text(labels)} {hist['sum']}")
            lines.append(f"{full}_count{_labels_text(labels)} {hist['count']}")
    return "\n".join(lines) + ("\n" if lines else "")
