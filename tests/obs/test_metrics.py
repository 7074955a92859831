"""Unit tests for the typed metrics layer (repro.obs.metrics)."""

import json

import pytest

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_key,
    prometheus_text,
    render_key,
)
from repro.obs.snapshot import STATS_SCHEMA, dumps_snapshot, loads_snapshot


class TestSeriesKeys:
    def test_plain_name_round_trips(self):
        assert render_key("packets_in", {}) == "packets_in"
        assert parse_key("packets_in") == ("packets_in", {})

    def test_labels_render_sorted_and_parse_back(self):
        key = render_key("waves_released", {"stream": 5, "filter": "sum"})
        assert key == 'waves_released{filter="sum",stream="5"}'
        assert parse_key(key) == (
            "waves_released",
            {"filter": "sum", "stream": "5"},
        )


class TestCounter:
    def test_inc_and_direct_value(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        c.value += 1
        assert c.value == 6

    def test_registry_memoizes_by_series(self):
        reg = MetricsRegistry()
        a = reg.counter("packets", stream=1)
        b = reg.counter("packets", stream=1)
        c = reg.counter("packets", stream=2)
        assert a is b
        assert a is not c


class TestGauge:
    def test_set_and_arithmetic(self):
        g = Gauge("depth")
        g.set(3)
        g.inc()
        g.dec(2)
        assert g.value == 2

    def test_callback_gauge_reads_live_state(self):
        items = [1, 2]
        g = Gauge("n", fn=lambda: len(items))
        assert g.value == 2
        items.append(3)
        assert g.value == 3

    def test_broken_callback_degrades_to_last_set(self):
        g = Gauge("n", fn=lambda: 1 / 0)
        assert g.value == 0.0


class TestHistogram:
    def test_observe_buckets_and_sum(self):
        h = Histogram("lat", buckets=(0.01, 0.1, 1.0))
        for v in (0.005, 0.05, 0.5, 5.0):
            h.observe(v)
        d = h.to_dict()
        # Raw per-bucket counts (non-cumulative), +Inf last.
        assert d["counts"] == [1, 1, 1, 1]
        assert d["count"] == 4
        assert d["sum"] == pytest.approx(5.555)

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("lat", buckets=(1.0, 0.1))

    def test_default_latency_buckets_are_sorted(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)


class TestSnapshotWire:
    def test_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("x", stream=9).inc(5)
        reg.histogram("lat").observe(0.01)
        doc = loads_snapshot(dumps_snapshot("3:leaf-1", 3, reg.snapshot()))
        assert doc["node"] == "3:leaf-1"
        assert doc["rank"] == 3
        assert doc["metrics"]["counters"]['x{stream="9"}'] == 5

    def test_bad_payloads_return_none(self):
        assert loads_snapshot("not json") is None
        assert loads_snapshot(json.dumps({"schema": "other/9"})) is None
        assert loads_snapshot(json.dumps({"schema": STATS_SCHEMA})) is None


class TestPrometheusText:
    def test_exposition_shape(self):
        reg = MetricsRegistry()
        reg.counter("packets_in", "Inbound packets").inc(2)
        reg.counter("waves", stream=1).inc()
        reg.histogram("lat", buckets=(0.1, 1.0)).observe(0.5)
        text = prometheus_text(
            {"0:front-end": reg.snapshot()},
            helps={"packets_in": "Inbound packets"},
        )
        assert "# HELP mrnet_packets_in Inbound packets" in text
        assert "# TYPE mrnet_packets_in counter" in text
        assert 'mrnet_packets_in{process="0:front-end"} 2' in text
        # Histogram buckets are cumulative with an +Inf terminator.
        assert 'le="0.1"' in text and 'le="+Inf"' in text
        assert "mrnet_lat_sum" in text and "mrnet_lat_count" in text

    def test_works_from_snapshot_dicts(self):
        """The exporter must accept wire snapshots, not live objects."""
        reg = MetricsRegistry()
        reg.counter("x").inc()
        snap = json.loads(json.dumps(reg.snapshot()))  # plain JSON data
        text = prometheus_text({"1:cn": snap})
        assert 'mrnet_x{process="1:cn"} 1' in text
