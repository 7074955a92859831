"""Tracing tests: TraceRecorder unit behaviour plus a live traced run.

The live test is the acceptance check: a 2-level tree run under
``start_trace()`` must produce a Perfetto-loadable Chrome trace containing
every Figure 3 stage (recv, demux, sync_wait, filter, rebatch, send).
"""

import json

import pytest

from repro.filters.registry import SFILTER_WAITFORALL, TFILTER_SUM
from repro.obs.tracing import STAGE_TRACKS, STAGES, TraceRecorder, to_chrome_trace


class FakeClock:
    def __init__(self, t=100.0):
        self.t = t

    def __call__(self):
        return self.t


class TestTraceRecorder:
    def test_span_start_end_records_with_clock(self):
        clk = FakeClock()
        rec = TraceRecorder("test", clock=clk)
        t0 = rec.span_start()
        clk.t += 0.5
        rec.span_end("recv", t0, stream_id=3, detail="n=8")
        assert rec.spans() == [("recv", 100.0, 100.5, 3, "n=8")]

    def test_one_shot_span_and_clear(self):
        rec = TraceRecorder("test", clock=FakeClock())
        rec.span("sync_wait", 1.0, 2.0, 5)
        assert len(rec) == 1
        rec.clear()
        assert rec.spans() == []

    def test_ring_is_bounded(self):
        rec = TraceRecorder("test", maxlen=4, clock=FakeClock())
        for i in range(10):
            rec.span("recv", i, i + 0.1)
        spans = rec.spans()
        assert len(spans) == 4
        assert spans[0][1] == 6  # oldest surviving span

    def test_every_stage_has_a_track(self):
        assert set(STAGE_TRACKS) == set(STAGES)


class TestChromeExport:
    def test_event_schema(self):
        clk = FakeClock(50.0)
        a = TraceRecorder("1:cn", clock=clk)
        clk.t = 51.0
        b = TraceRecorder("0:fe", clock=clk)
        a.span("recv", 50.2, 50.3, 0, "n=2")
        b.span("filter", 51.1, 51.4, 7)
        doc = json.loads(to_chrome_trace([a, b]))
        events = doc["traceEvents"]

        meta = [e for e in events if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta if e["name"] == "process_name"}
        assert names == {"1:cn", "0:fe"}
        # Named tracks (io, waves, pipeline) per process.
        tracks = [e for e in meta if e["name"] == "thread_name"]
        assert {e["args"]["name"] for e in tracks} == {"io", "waves", "pipeline"}

        complete = {e["name"]: e for e in events if e["ph"] == "X"}
        recv = complete["recv"]
        # ts is relative to the earliest epoch (a's, at t=50), in µs.
        assert recv["ts"] == pytest.approx((50.2 - 50.0) * 1e6)
        assert recv["dur"] == pytest.approx(0.1 * 1e6)
        assert recv["tid"] == 1 and recv["args"] == {"stream": 0, "detail": "n=2"}
        filt = complete["filter"]
        assert filt["tid"] == 2 and filt["args"] == {"stream": 7}
        # Distinct processes get distinct pids.
        assert recv["pid"] != filt["pid"]

    def test_zero_duration_span_stays_visible(self):
        rec = TraceRecorder("x", clock=FakeClock())
        rec.span("send", 1.0, 1.0)
        (event,) = [
            e
            for e in json.loads(to_chrome_trace([rec]))["traceEvents"]
            if e["ph"] == "X"
        ]
        assert event["dur"] > 0


TOPO = "fe:0 => cn:0 cn:1 ; cn:0 => be:0 be:1 ; cn:1 => be:2 be:3 ;"


@pytest.fixture
def traced_net():
    from repro.core.network import Network

    net = Network(TOPO, transport="local")
    net.start_trace()
    yield net
    net.shutdown()


def _run_sum_wave(net, value=7):
    comm = net.get_broadcast_communicator()
    st = net.new_stream(comm, transform=TFILTER_SUM, sync=SFILTER_WAITFORALL)
    st.send("%d", value)
    for be in net.backends.values():
        pkt, s = be.recv(timeout=5)
        s.send("%d", pkt.raw_values[0] * 2, tag=pkt.tag)
        be.flush()
    pkt = st.recv(timeout=5)
    return pkt.raw_values[0]


class TestLiveTrace:
    def test_all_figure3_stages_recorded(self, traced_net):
        assert _run_sum_wave(traced_net) == 4 * 7 * 2
        # pipeline_fill only fires on a chunked incremental wave.
        comm = traced_net.get_broadcast_communicator()
        st = traced_net.new_stream(comm, transform=TFILTER_SUM, chunk_bytes=1024)
        st.send("%d", 0)
        for be in traced_net.backends.values():
            pkt, s = be.recv(timeout=5)
            s.send("%alf", tuple(float(i) for i in range(1024)))
        st.recv(timeout=5)
        doc = json.loads(traced_net.trace_chrome_json())
        events = doc["traceEvents"]
        seen = {e["name"] for e in events if e["ph"] == "X"}
        missing = set(STAGES) - seen
        assert not missing, f"Figure 3 stages never traced: {sorted(missing)}"

        procs = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert "0:front-end" in procs
        assert len(procs) == 3  # front-end + two comm nodes

        for e in events:
            if e["ph"] != "X":
                continue
            assert e["ts"] >= 0 and e["dur"] > 0
            assert "stream" in e["args"]

    def test_sync_wait_and_filter_land_on_wave_track(self, traced_net):
        _run_sum_wave(traced_net)
        events = json.loads(traced_net.trace_chrome_json())["traceEvents"]
        by_name = {}
        for e in events:
            if e["ph"] == "X":
                by_name.setdefault(e["name"], []).append(e)
        assert all(e["tid"] == 2 for e in by_name["sync_wait"])
        assert all(e["tid"] == 2 for e in by_name["filter"])
        assert all(e["tid"] == 1 for e in by_name["recv"])
        # The comm nodes' filter spans carry the transform name.
        assert any(e["args"].get("detail") == "sum" for e in by_name["filter"])

    def test_stop_trace_freezes_recording(self, traced_net):
        _run_sum_wave(traced_net)
        traced_net.stop_trace()
        before = len(json.loads(traced_net.trace_chrome_json())["traceEvents"])
        _run_sum_wave(traced_net, value=3)
        after = len(json.loads(traced_net.trace_chrome_json())["traceEvents"])
        assert after == before

    def test_write_trace(self, traced_net, tmp_path):
        _run_sum_wave(traced_net)
        out = traced_net.write_trace(tmp_path / "trace.json")
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]


class TestTraceLifecycle:
    def test_trace_requires_thread_hosted_transport(self):
        from repro.core.network import Network, NetworkError

        net = Network(TOPO, transport="process")
        try:
            with pytest.raises(NetworkError):
                net.start_trace()
        finally:
            net.shutdown()

    def test_double_start_rejected(self):
        from repro.core.network import Network, NetworkError

        net = Network(TOPO, transport="local")
        try:
            net.start_trace()
            with pytest.raises(NetworkError):
                net.start_trace()
        finally:
            net.shutdown()

    def test_chrome_json_without_trace_rejected(self):
        from repro.core.network import Network, NetworkError

        net = Network(TOPO, transport="local")
        try:
            with pytest.raises(NetworkError):
                net.trace_chrome_json()
        finally:
            net.shutdown()
