"""Tests for clocks, metrics, hosts, network model, and transports."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet import (
    Endpoint,
    HostTimeline,
    LoopbackTransport,
    NetworkModel,
    RealClock,
    Recorder,
    SimHost,
    TransportError,
    VirtualClock,
)
from repro.simnet.transport import RecordingTransport


class TestClocks:
    def test_real_clock_monotone(self):
        clock = RealClock()
        a = clock.now()
        b = clock.now()
        assert b >= a

    def test_virtual_clock_advance(self):
        clock = VirtualClock(10.0)
        assert clock.now() == 10.0
        assert clock.advance(5.0) == 15.0
        assert clock.now() == 15.0

    def test_virtual_clock_rejects_negative(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1.0)

    def test_advance_to_never_goes_back(self):
        clock = VirtualClock(10.0)
        clock.advance_to(5.0)
        assert clock.now() == 10.0
        clock.advance_to(20.0)
        assert clock.now() == 20.0


class TestRecorder:
    def test_counters(self):
        rec = Recorder()
        rec.incr("x")
        rec.incr("x", 4)
        assert rec.count("x") == 5
        assert rec.count("missing") == 0

    def test_bytes_accounting(self):
        rec = Recorder()
        rec.record_bytes("sent", 100)
        rec.record_bytes("received", 40)
        assert rec.bytes_sent == 100
        assert rec.bytes_received == 40
        assert rec.bytes_total == 140

    def test_bad_direction_rejected(self):
        with pytest.raises(ValueError):
            Recorder().record_bytes("sideways", 1)

    def test_timer_with_virtual_clock(self):
        clock = VirtualClock()
        rec = Recorder(clock)
        with rec.time("op"):
            clock.advance(2.5)
        stats = rec.timer("op")
        assert stats.count == 1
        assert stats.mean == 2.5

    def test_timer_statistics(self):
        rec = Recorder()
        for v in (1.0, 2.0, 3.0):
            rec.add_sample("t", v)
        stats = rec.timer("t")
        assert stats.mean == 2.0
        assert stats.stdev == pytest.approx(1.0)
        assert stats.cov == pytest.approx(0.5)
        assert (stats.minimum, stats.maximum) == (1.0, 3.0)

    def test_reset(self):
        rec = Recorder()
        rec.incr("x")
        rec.add_sample("t", 1.0)
        rec.reset()
        assert rec.count("x") == 0
        assert rec.timer("t").count == 0

    def test_snapshot_shape(self):
        rec = Recorder()
        rec.incr("c", 2)
        rec.add_sample("t", 0.5)
        snap = rec.snapshot()
        assert snap["counters"] == {"c": 2}
        assert snap["timers"]["t"]["count"] == 1


class TestHostTimeline:
    def test_serialized_scheduling(self):
        timeline = HostTimeline()
        assert timeline.schedule(2.0) == (0.0, 2.0)
        assert timeline.schedule(3.0) == (2.0, 5.0)
        assert timeline.busy_until == 5.0

    def test_ready_at_respected(self):
        timeline = HostTimeline()
        assert timeline.schedule(1.0, ready_at=10.0) == (10.0, 11.0)
        # Next task can't start before previous completion.
        assert timeline.schedule(1.0, ready_at=0.0) == (11.0, 12.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            HostTimeline().schedule(-1.0)

    @given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_makespan_equals_sum_when_all_ready(self, durations):
        timeline = HostTimeline()
        for d in durations:
            timeline.schedule(d)
        assert timeline.busy_until == pytest.approx(sum(durations))


class TestSimHost:
    def test_reset(self):
        host = SimHost("h")
        host.charge(1.0)
        host.reset()
        assert host.timeline.busy_until == 0.0


class TestNetworkModel:
    def test_transfer_time_formula(self):
        net = NetworkModel(latency_s=0.001, bandwidth_bytes_per_s=1000.0)
        assert net.transfer_time(500) == pytest.approx(0.501)

    def test_loopback_latency(self):
        net = NetworkModel(loopback_latency_s=1e-5)
        assert net.transfer_time(10**9, same_host=True) == 1e-5

    def test_round_trip(self):
        net = NetworkModel(latency_s=0.001, bandwidth_bytes_per_s=1000.0)
        assert net.round_trip_time(100, 400) == pytest.approx(0.002 + 0.5)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            NetworkModel(latency_s=-1)
        with pytest.raises(ValueError):
            NetworkModel(bandwidth_bytes_per_s=0)
        with pytest.raises(ValueError):
            NetworkModel().transfer_time(-1)

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=100, deadline=None)
    def test_transfer_time_monotone_in_bytes(self, n):
        net = NetworkModel()
        assert net.transfer_time(n + 1) >= net.transfer_time(n)


class TestEndpoint:
    def test_parse_http(self):
        ep = Endpoint.parse("http://host:8080/services/x")
        assert ep.authority == "host:8080"
        assert ep.path == "services/x"

    def test_parse_ppg_scheme(self):
        assert Endpoint.parse("ppg://h:1/p").authority == "h:1"

    @pytest.mark.parametrize("bad", ["ftp://x/y", "http://", "no-scheme/path"])
    def test_bad_urls_rejected(self, bad):
        with pytest.raises(TransportError):
            Endpoint.parse(bad)

    def test_url_roundtrip(self):
        assert Endpoint.parse("http://h:1/a/b").url() == "http://h:1/a/b"


class TestLoopbackTransport:
    def test_routing_by_authority(self):
        transport = LoopbackTransport()
        transport.bind("a:1", lambda path, req: f"a:{path}".encode())
        transport.bind("b:1", lambda path, req: b"b")
        assert transport.send("http://a:1/x/y", b"") == b"a:x/y"
        assert transport.send("http://b:1/z", b"") == b"b"

    def test_unbound_authority_raises(self):
        with pytest.raises(TransportError):
            LoopbackTransport().send("http://ghost:1/x", b"")

    def test_double_bind_rejected(self):
        transport = LoopbackTransport()
        transport.bind("a:1", lambda p, r: b"")
        with pytest.raises(TransportError):
            transport.bind("a:1", lambda p, r: b"")

    def test_unbind(self):
        transport = LoopbackTransport()
        transport.bind("a:1", lambda p, r: b"")
        transport.unbind("a:1")
        assert transport.authorities() == []

    def test_byte_recording(self):
        rec = Recorder()
        transport = LoopbackTransport(rec)
        transport.bind("a:1", lambda p, r: b"12345")
        transport.send("http://a:1/x", b"123")
        assert rec.bytes_sent == 3
        assert rec.bytes_received == 5
        assert rec.count("transport.calls") == 1

    def test_recording_transport_logs(self):
        inner = LoopbackTransport()
        inner.bind("a:1", lambda p, r: b"resp")
        recording = RecordingTransport(inner)
        recording.send("http://a:1/x", b"req")
        assert recording.log == [("http://a:1/x", b"req", b"resp")]


class TestSharedMediumNetwork:
    def test_transfers_serialize(self):
        from repro.simnet.network import NetworkModel, SharedMediumNetwork

        bus = SharedMediumNetwork(NetworkModel(latency_s=0.0, bandwidth_bytes_per_s=1000.0))
        a = bus.schedule_transfer(500)          # 0.0 - 0.5
        b = bus.schedule_transfer(500)          # 0.5 - 1.0
        assert a == (0.0, 0.5)
        assert b == (0.5, 1.0)
        assert bus.transfers == 2

    def test_ready_at_respected(self):
        from repro.simnet.network import NetworkModel, SharedMediumNetwork

        bus = SharedMediumNetwork(NetworkModel(latency_s=0.0, bandwidth_bytes_per_s=1000.0))
        start, end = bus.schedule_transfer(100, ready_at=5.0)
        assert start == 5.0 and end == pytest.approx(5.1)

    def test_utilization_and_reset(self):
        from repro.simnet.network import NetworkModel, SharedMediumNetwork

        bus = SharedMediumNetwork(NetworkModel(latency_s=0.0, bandwidth_bytes_per_s=1000.0))
        bus.schedule_transfer(500, ready_at=0.5)
        assert bus.utilization(1.0) == pytest.approx(0.5)
        bus.reset()
        assert bus.busy_until == 0.0 and bus.transfers == 0
