"""Simulated network: delivery, observers, partitions, drops, stats."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.common.clock import SimClock
from repro.common.errors import DeliveryError, DeliveryTimeout
from repro.common.rng import DeterministicRNG
from repro.common.serialization import canonical_bytes
from repro.driver import trade_scenario
from repro.faults.plan import FaultPlan
from repro.network.messages import Exposure
from repro.network.simnet import LatencyModel, NetworkStats, Observer, SimNetwork


@pytest.fixture
def net():
    network = SimNetwork(rng=DeterministicRNG("net-test"))
    for name in ("A", "B", "C"):
        network.add_node(name)
    return network


class Recorder(Observer):
    """A tap that also keeps each envelope it sees, in delivery order."""

    def __init__(self) -> None:
        super().__init__("recorder")
        self.messages = []

    def observe(self, message):
        super().observe(message)
        self.messages.append(message)


def arrivals(net, name):
    """How many messages *name* has received (its observer counts each)."""
    return net.node(name).observer.messages_observed


class TestDelivery:
    def test_point_to_point(self, net):
        tap = net.add_tap(Recorder())
        sent = net.send("A", "B", "ping", {"x": 1})
        net.run()
        assert sent.size_bytes == len(canonical_bytes({"x": 1}))
        assert tap.messages == [sent]
        assert arrivals(net, "B") == 1

    def test_broadcast_excludes_sender(self, net):
        net.broadcast("A", "announce", "hello")
        net.run()
        assert arrivals(net, "B") == 1
        assert arrivals(net, "C") == 1
        assert arrivals(net, "A") == 0

    def test_broadcast_to_explicit_recipients(self, net):
        net.broadcast("A", "announce", "hello", recipients=["B"])
        net.run()
        assert arrivals(net, "B") == 1
        assert arrivals(net, "C") == 0

    def test_unknown_recipient_rejected(self, net):
        with pytest.raises(DeliveryError, match="unknown recipient"):
            net.send("A", "Z", "ping", {})

    def test_duplicate_node_rejected(self, net):
        with pytest.raises(DeliveryError, match="already exists"):
            net.add_node("A")

    def test_delivery_order_respects_latency(self):
        # A gap of 0 makes both messages due at the same time: send order
        # breaks the tie.
        for gap in (1.0, 0.0):
            net = SimNetwork(
                rng=DeterministicRNG("order"),
                latency=LatencyModel(base=0.01, jitter=0.0),
            )
            net.add_node("A")
            net.add_node("B")
            tap = net.add_tap(Recorder())
            net.send("A", "B", "first", 1)
            net.clock.advance(gap)
            net.send("A", "B", "second", 2)
            net.run()
            kinds = [m.kind for m in tap.messages]
            assert kinds == ["first", "second"]

    def test_clock_advances_with_deliveries(self, net):
        before = net.clock.now
        net.send("A", "B", "ping", {})
        net.run()
        assert net.clock.now > before

    def test_message_ids_are_per_network(self):
        def message_ids():
            net = SimNetwork(rng=DeterministicRNG("ids"))
            net.add_node("A")
            net.add_node("B")
            sent = [net.send("A", "B", "ping", {"n": n}) for n in range(3)]
            sent += net.broadcast("B", "announce", {})
            net.run()
            return [m.message_id for m in sent]

        first = message_ids()
        assert first == message_ids()
        assert first == sorted(set(first))


class TestObservers:
    def test_tap_sees_all_traffic(self, net):
        tap = net.add_tap(Observer("wiretap"))
        net.send("A", "B", "tx", {}, exposure=Exposure.of(identities={"A", "B"}))
        net.send("B", "C", "tx", {}, exposure=Exposure.of(data_keys={"price"}))
        net.run()
        assert tap.seen_identities == {"A", "B"}
        assert tap.seen_data_keys == {"price"}
        assert tap.messages_observed == 2

    def test_node_observer_sees_inbound_only(self, net):
        net.send("A", "B", "tx", {}, exposure=Exposure.of(identities={"A"}))
        net.run()
        assert net.node("B").observer.seen_identities == {"A"}
        assert net.node("C").observer.seen_identities == set()

    def test_empty_exposure_reveals_nothing(self, net):
        tap = net.add_tap(Observer("wiretap"))
        net.send("A", "B", "tx", {"secret": 1})
        net.run()
        assert tap.seen_identities == set()
        assert tap.seen_data_keys == set()

    def test_knowledge_snapshot(self, net):
        tap = net.add_tap(Observer("wiretap"))
        net.send("A", "B", "tx", {}, exposure=Exposure.of(code_ids={"cc"}))
        net.run()
        snapshot = tap.knowledge()
        assert snapshot["code_ids"] == ["cc"]
        assert snapshot["messages_observed"] == 1

    def test_exposure_merge(self):
        a = Exposure.of(identities={"x"})
        b = Exposure.of(data_keys={"k"})
        merged = a.merge(b)
        assert merged.identities == frozenset({"x"})
        assert merged.data_keys == frozenset({"k"})
        assert not merged.is_empty()
        assert Exposure().is_empty()


class TestFaults:
    def test_partition_blocks_send(self, net):
        net.partition("A", "B")
        with pytest.raises(DeliveryError, match="partition"):
            net.send("A", "B", "ping", {})

    def test_partition_is_symmetric(self, net):
        net.partition("A", "B")
        with pytest.raises(DeliveryError):
            net.send("B", "A", "ping", {})

    def test_partition_leaves_other_links(self, net):
        net.partition("A", "B")
        net.send("A", "C", "ping", {})
        net.run()
        assert arrivals(net, "C") == 1

    def test_heal_restores_link(self, net):
        net.partition("A", "B")
        net.heal("A", "B")
        net.send("A", "B", "ping", {})
        net.run()
        assert arrivals(net, "B") == 1

    def test_message_drops(self):
        net = SimNetwork(rng=DeterministicRNG("drops"), drop_probability=1.0)
        net.add_node("A")
        net.add_node("B")
        net.send("A", "B", "ping", {})
        net.run()
        assert arrivals(net, "B") == 0
        assert net.stats.messages_dropped == 1

    def test_partial_drop_rate(self):
        net = SimNetwork(rng=DeterministicRNG("drops2"), drop_probability=0.5)
        net.add_node("A")
        net.add_node("B")
        for __ in range(200):
            net.send("A", "B", "ping", {})
        net.run()
        delivered = arrivals(net, "B")
        assert 50 < delivered < 150  # loose bounds around 100


class TestPartitionTiming:
    """Regression: partitions must cut traffic already in flight."""

    def test_partition_after_send_drops_in_flight_message(self, net):
        net.send("A", "B", "ping", {})
        net.partition("A", "B")  # created while the message is in flight
        net.run()
        assert arrivals(net, "B") == 0
        assert net.stats.messages_dropped == 1
        assert net.stats.dropped_by_partition == 1
        assert net.stats.messages_delivered == 0

    def test_partition_drop_still_advances_clock(self, net):
        before = net.clock.now
        net.send("A", "B", "ping", {})
        net.partition("A", "B")
        assert net.step() is True  # the event is consumed, not delivered
        assert net.clock.now > before

    def test_heal_then_resend_delivers(self, net):
        net.send("A", "B", "ping", {})
        net.partition("A", "B")
        net.run()  # in-flight copy dies on the cut link
        net.heal("A", "B")
        net.send("A", "B", "ping", {})
        net.run()
        assert arrivals(net, "B") == 1

    def test_drop_vs_partition_stats_are_distinct(self):
        net = SimNetwork(rng=DeterministicRNG("attrib"), drop_probability=1.0)
        net.add_node("A")
        net.add_node("B")
        net.send("A", "B", "lost", {})  # probabilistic loss at send time
        net.drop_probability = 0.0
        net.send("A", "B", "cut", {})
        net.partition("A", "B")  # partition drop at delivery time
        net.run()
        assert net.stats.dropped_by_loss == 1
        assert net.stats.dropped_by_partition == 1
        assert net.stats.messages_dropped == 2

    def test_timed_partition_heals_by_window_end(self, net):
        net.fault_plan = FaultPlan().partition_between("A", "B", start=0.0, end=1.0)
        with pytest.raises(DeliveryError, match="partition"):
            net.send("A", "B", "ping", {})
        net.clock.advance_to(1.0)
        net.send("A", "B", "ping", {})
        net.run()
        assert arrivals(net, "B") == 1

    def test_message_sent_before_window_drops_inside_it(self, net):
        # Due time falls inside the partition window even though the send
        # happened before the window opened.
        net.latency = LatencyModel(base=0.5, jitter=0.0)
        net.fault_plan = FaultPlan().partition_between("A", "B", start=0.1, end=2.0)
        net.send("A", "B", "ping", {})  # sent at t=0, due at t=0.5
        net.run()
        assert arrivals(net, "B") == 0
        assert net.stats.dropped_by_partition == 1


class TestBroadcastAtomicity:
    """Regression: a bad target mid-list must not leave a partial broadcast."""

    def test_unknown_target_queues_nothing(self, net):
        with pytest.raises(DeliveryError, match="unknown recipient"):
            net.broadcast("A", "announce", "x", recipients=["B", "Z", "C"])
        net.run()
        assert arrivals(net, "B") == 0
        assert arrivals(net, "C") == 0
        assert net.stats.messages_sent == 0

    def test_partitioned_target_queues_nothing(self, net):
        net.partition("A", "C")
        with pytest.raises(DeliveryError, match="partition"):
            net.broadcast("A", "announce", "x")
        net.run()
        assert arrivals(net, "B") == 0
        assert net.stats.messages_sent == 0

    def test_crashed_target_queues_nothing(self, net):
        net.fault_plan = FaultPlan().crash_node("C", start=0.0, end=1.0)
        with pytest.raises(DeliveryError, match="down"):
            net.broadcast("A", "announce", "x")
        assert arrivals(net, "B") == 0


class TestPayloadSizing:
    """Regression: unsupported values must not crash send."""

    def test_nan_payload_does_not_crash(self, net):
        # canonical_bytes raises ValueError on NaN (allow_nan=False);
        # _payload_size must fall back to the opaque-envelope size.
        message = net.send("A", "B", "ping", {"rate": float("nan")})
        assert message.size_bytes == 256
        net.run()
        assert arrivals(net, "B") == 1

    def test_unserializable_object_falls_back(self, net):
        message = net.send("A", "B", "ping", object())
        assert message.size_bytes == 256


class TestResilientDelivery:
    def test_first_attempt_ack(self, net):
        receipt = net.send_with_retry("A", "B", "ping", {"x": 1})
        assert receipt.attempts == 1
        assert receipt.delivered_at is not None
        assert receipt.message.recipient == "B"
        assert arrivals(net, "B") == 1
        assert net.stats.retries == 0

    def test_retry_succeeds_after_partition_heals(self, net):
        # Link is cut for the first attempt's whole timeout window, then
        # heals; the second attempt must get through.
        net.fault_plan = FaultPlan().partition_between("A", "B", start=0.0, end=0.2)
        receipt = net.send_with_retry(
            "A", "B", "ping", {}, timeout=0.25, max_attempts=3
        )
        assert arrivals(net, "B") == 1
        assert receipt.attempts == 2
        assert net.stats.retries == 1

    def test_exhausted_attempts_raise_delivery_timeout(self, net):
        net.partition("A", "B")
        with pytest.raises(DeliveryTimeout, match="no acknowledgement"):
            net.send_with_retry("A", "B", "ping", {}, timeout=0.1, max_attempts=3)
        assert net.stats.retries == 2

    def test_silent_loss_surfaces_as_timeout(self):
        net = SimNetwork(rng=DeterministicRNG("lossy"), drop_probability=1.0)
        net.add_node("A")
        net.add_node("B")
        with pytest.raises(DeliveryTimeout):
            net.send_with_retry("A", "B", "ping", {}, timeout=0.1, max_attempts=2)

    def test_unknown_recipient_fails_fast(self, net):
        before = net.clock.now
        with pytest.raises(DeliveryError, match="unknown recipient"):
            net.send_with_retry("A", "Z", "ping", {})
        assert net.clock.now == before  # no timeout was burned

    def test_backoff_widens_attempt_windows(self, net):
        net.partition("A", "B")
        with pytest.raises(DeliveryTimeout):
            net.send_with_retry(
                "A", "B", "ping", {}, timeout=0.1, max_attempts=3, backoff=2.0
            )
        # 0.1 + 0.2 + 0.4 of simulated waiting.
        assert net.clock.now == pytest.approx(0.7)

    def test_retry_does_not_duplicate_delivery(self, net):
        receipt = net.send_with_retry("A", "B", "ping", {}, max_attempts=3)
        net.run()
        assert receipt.attempts == 1
        assert arrivals(net, "B") == 1


class TestFaultPlanThreading:
    def test_link_loss_drops_and_attributes(self):
        plan = FaultPlan().set_link_loss("A", "B", 1.0)
        net = SimNetwork(rng=DeterministicRNG("linkloss"), fault_plan=plan)
        net.add_node("A")
        net.add_node("B")
        net.add_node("C")
        net.send("A", "B", "ping", {})
        net.send("A", "C", "ping", {})  # unaffected link
        net.run()
        assert arrivals(net, "B") == 0
        assert arrivals(net, "C") == 1
        assert net.stats.dropped_by_loss == 1

    def test_latency_multiplier_slows_link(self):
        plan = FaultPlan().slow_link("A", "B", 10.0)
        net = SimNetwork(
            rng=DeterministicRNG("slow"),
            latency=LatencyModel(base=0.01, jitter=0.0),
            fault_plan=plan,
        )
        net.add_node("A")
        net.add_node("B")
        net.send("A", "B", "ping", {})
        net.run()
        assert net.clock.now == pytest.approx(0.1)

    def test_crash_window_refuses_sends(self, net):
        net.fault_plan = FaultPlan().crash_node("B", start=0.0, end=1.0)
        with pytest.raises(DeliveryError, match="down"):
            net.send("A", "B", "ping", {})
        with pytest.raises(DeliveryError, match="down"):
            net.send("B", "A", "ping", {})
        net.clock.advance_to(1.0)
        net.send("A", "B", "ping", {})  # recovered
        net.run()
        assert arrivals(net, "B") == 1

    def test_crash_at_delivery_time_drops_in_flight(self, net):
        net.latency = LatencyModel(base=0.5, jitter=0.0)
        net.fault_plan = FaultPlan().crash_node("B", start=0.1, end=2.0)
        net.send("A", "B", "ping", {})  # sent at t=0 while B is still up
        net.run()
        assert arrivals(net, "B") == 0
        assert net.stats.dropped_by_crash == 1

    def test_zero_loss_plan_keeps_rng_stream_identical(self):
        # Privacy-invariance prerequisite: attaching a plan with no loss
        # must not consume extra RNG draws, so faulted and clean runs with
        # the same seed see identical latencies.
        def deliveries(plan):
            net = SimNetwork(rng=DeterministicRNG("stream"), fault_plan=plan)
            net.add_node("A")
            net.add_node("B")
            times = []
            for __ in range(5):
                net.send("A", "B", "ping", {})
                net.run()
                times.append(net.clock.now)
            return times

        assert deliveries(None) == deliveries(FaultPlan())


class TestRunUntil:
    def test_delivers_only_due_events(self, net):
        tap = net.add_tap(Recorder())
        net.latency = LatencyModel(base=0.01, jitter=0.0)
        net.send("A", "B", "early", 1)  # due at 0.01
        net.latency = LatencyModel(base=2.0, jitter=0.0)
        net.send("A", "B", "late", 2)  # due at 2.0
        net.run_until(0.5)
        assert [m.kind for m in tap.messages] == ["early"]
        assert net.clock.now == pytest.approx(0.5)
        net.run()
        assert [m.kind for m in tap.messages] == ["early", "late"]


class TestStats:
    def test_counters(self, net):
        net.send("A", "B", "ping", {"data": "x"})
        net.send("A", "C", "ping", {"data": "y"})
        net.run()
        assert net.stats.messages_sent == 2
        assert net.stats.messages_delivered == 2
        assert net.stats.bytes_transferred > 0

    def test_step_returns_false_when_empty(self, net):
        assert net.step() is False

    def test_reading_stats_leaves_telemetry_unchanged(self, net):
        net.send("A", "B", "ping", {})
        net.run()
        before = net.telemetry.to_dict()
        for name in NetworkStats.FIELDS:
            getattr(net.stats, name)
        repr(net.stats)
        assert net.stats == net.stats
        assert net.stats.messages_dropped == 0
        assert net.telemetry.to_dict() == before


class TestRetention:
    """The network keeps nothing per message once a delivery is done."""

    def test_delivered_message_can_be_collected(self, net):
        message = weakref.ref(net.send("A", "B", "ping", {"x": 1}))
        net.run()
        gc.collect()
        assert arrivals(net, "B") == 1
        assert message() is None

    def test_queued_message_keeps_no_payload(self, net):
        class Payload(dict):
            """A dict that can be weakly referenced."""

        payload = Payload(x=1)
        gone = weakref.ref(payload)
        message = net.send("A", "B", "ping", payload)
        del payload
        gc.collect()
        assert gone() is None
        assert net.step() is True  # the message was still queued
        assert message.size_bytes == len(canonical_bytes({"x": 1}))
        assert arrivals(net, "B") == 1

    def test_empty_exposure_fields_share_one_frozenset(self):
        empty = Exposure.of()
        assert empty.identities is empty.data_keys is empty.code_ids
        assert empty.identities == frozenset()
        assert Exposure.of(identities=[], data_keys=set()).identities is empty.identities
        assert Exposure().code_ids is empty.code_ids

    def test_fabric_fan_out_shares_one_exposure(self):
        scenario = trade_scenario("fabric", 1, confidential_fraction=0.0)
        platform = scenario.platform
        tap = platform.network.add_tap(Recorder())
        (receipt,) = platform.submit_many(scenario.requests)
        assert receipt.committed
        platform.network.run()
        submits = [m for m in tap.messages if m.kind == "submit"]
        blocks = [m for m in tap.messages if m.kind == "block"]
        assert len(submits) == 1
        assert len(blocks) == len(platform.channel("trade-ab").members)
        assert all(m.exposure is submits[0].exposure for m in blocks)
        assert not submits[0].exposure.is_empty()

    def test_envelopes_have_no_instance_dict(self, net):
        message = net.send("A", "B", "ping", {}, exposure=Exposure.of(["A"]))
        for record in (message, message.exposure):
            assert not hasattr(record, "__dict__")

    def test_no_ack_record_outlives_its_exchange(self):
        # Latency above the first timeout: the first copy is acked during
        # the second attempt's window, and the second copy lands after
        # the exchange has returned.
        net = SimNetwork(
            rng=DeterministicRNG("retention"),
            latency=LatencyModel(base=0.2, jitter=0.1),
            drop_probability=0.3,
        )
        net.add_node("A")
        net.add_node("B")

        def held() -> int:
            return sum(
                len(value)
                for value in vars(net).values()
                if isinstance(value, (dict, list, set))
            )

        baseline = held()
        timeouts = 0
        for n in range(200):
            try:
                net.send_with_retry(
                    "A", "B", "ping", {"n": n}, timeout=0.15, max_attempts=3
                )
            except DeliveryTimeout:
                timeouts += 1
        net.run()
        assert timeouts > 0
        assert net.stats.deduplicated > 0  # late copies of returned exchanges
        assert held() == baseline
