"""Unit tests of the control-plane service and its parity contracts.

Deterministic companions to ``tests/fuzz/test_service_statemachine.py``:
admission (budget, backpressure, unknown members, telemetry), virtual-time
draining (head-of-line blocking, horizon carry-over, independent router
lanes, stepped horizons ≡ one drain), coalescing as a pure
amortization (one ``rules_version`` bump per drained batch, identical
verdicts and ``rule_stats`` to one-at-a-time installs), shutdown, the
request-log replay oracle, the deterministic ``ControlPlaneCpuModel``
path budget enforcement relies on, and token-bucket pacing (Stellar's
management layer: burst then rate, FIFO order, TCAM failures, updates in
place).
"""

import dataclasses
import math

import pytest

from oracle.records import FiveTuple, FlowRecord, from_records
from oracle.service import ScriptedPortal, replay_request_log
from repro.bgp import Prefix
from repro.ixp import (
    ControlPlaneCpuModel,
    ControlPlaneService,
    EdgeRouter,
    FilterAction,
    FlowMatch,
    HardwareProfile,
    IxpMember,
    QosRule,
    SwitchingFabric,
    TcamExhaustedError,
    TokenBucketPacing,
    build_multi_pop_fabric,
    make_member_population,
)
from repro.traffic import IpProtocol

#: The paper's §5.2 deterministic budget: (15 − 1.5) / 3.117 updates/s.
RATE = (15.0 - 1.5) / 3.117
OP = 1.0 / RATE
INTERVAL = 10.0


def make_fabric(pop_count=1, routers_per_pop=1, member_count=3, seed=5):
    members = make_member_population(member_count, pop_count=pop_count, seed=seed)
    fabric = build_multi_pop_fabric(
        pop_count=pop_count,
        routers_per_pop=routers_per_pop,
        name="svc-ixp",
        members=members,
    )
    return fabric, members.asns.tolist()


def drop_rule(rule_id, dst="10.1.0.1/32", src_port=123):
    return QosRule(
        match=FlowMatch(dst_prefix=Prefix.parse(dst), src_port=src_port),
        action=FilterAction.DROP,
        rule_id=rule_id,
    )


def shape_rule(rule_id="", rate=2e6, dst="10.1.0.2/32"):
    return QosRule(
        match=FlowMatch(dst_prefix=Prefix.parse(dst)),
        action=FilterAction.SHAPE,
        shape_rate_bps=rate,
        rule_id=rule_id,
    )


def flow(dst_ip, egress_asn, *, src_port=123, bytes_=12500):
    return FlowRecord(
        key=FiveTuple(
            src_ip="198.51.100.7",
            dst_ip=dst_ip,
            protocol=IpProtocol.UDP,
            src_port=src_port,
            dst_port=50000,
        ),
        start=0.0,
        duration=INTERVAL,
        bytes=bytes_,
        packets=10,
        ingress_member_asn=65002,
        egress_member_asn=egress_asn,
    )


class TestCpuModelDeterministic:
    def test_max_update_rate_pins_the_paper_budget_exactly(self):
        model = ControlPlaneCpuModel.deterministic()
        assert model.max_update_rate(15.0) == (15.0 - 1.5) / 3.117
        assert model.max_update_rate(15.0) == pytest.approx(4.3311, abs=1e-4)

    def test_deterministic_measurements_equal_expected_usage(self):
        model = ControlPlaneCpuModel.deterministic(seed=3)
        for rate in (0.0, 1.0, 4.33, 25.0):
            assert model.measure_usage(rate) == model.expected_usage(rate)
        # The [0, 100] clip still applies to deterministic measurements.
        assert model.measure_usage(40.0) == 100.0

    def test_deterministic_mode_consumes_no_rng_state(self):
        model = ControlPlaneCpuModel.deterministic(seed=3)
        before = model._rng.bit_generator.state
        for _ in range(10):
            model.measure_usage(4.33)
        assert model._rng.bit_generator.state == before
        # The noisy path does consume state — the asymmetry is the point.
        noisy = ControlPlaneCpuModel(seed=3)
        noisy.measure_usage(4.33)
        assert noisy._rng.bit_generator.state != before

    def test_deterministic_accepts_overrides(self):
        model = ControlPlaneCpuModel.deterministic(cpu_limit_percent=20.0)
        assert model.noise_std == 0.0
        assert model.max_update_rate() == (20.0 - 1.5) / 3.117


class TestAdmission:
    def test_unknown_member_is_rejected(self):
        fabric, _ = make_fabric()
        service = ControlPlaneService(fabric)
        response = service.enqueue(
            service.make_request(63999, "install", rules=(drop_rule("r"),))
        )
        assert response.status == "rejected"
        assert response.reason == "unknown-member"
        assert service.stats.rejected_unknown_member == 1

    def test_telemetry_is_served_immediately(self):
        fabric, members = make_fabric()
        service = ControlPlaneService(fabric)
        service.enqueue(
            service.make_request(members[0], "install", rules=(drop_rule("r"),))
        )
        response = service.enqueue(
            service.make_request(members[0], "telemetry", at=1.0)
        )
        assert response.status == "telemetry"
        assert response.latency == 0.0
        assert response.telemetry["installed_rules"] == 0  # not yet drained
        assert response.telemetry["queue_depth_ops"] == 1
        assert service.stats.telemetry_served == 1

    def test_budget_rejection_carries_window_retry_after(self):
        fabric, members = make_fabric()
        service = ControlPlaneService(
            fabric, member_update_rate=0.2, budget_window=10.0
        )  # allowance: 2 ops per window
        asn = members[0]
        for i in range(2):
            assert (
                service.enqueue(
                    service.make_request(
                        asn, "install", rules=(drop_rule(f"r{i}"),), at=1.0
                    )
                )
                is None
            )
        rejected = service.enqueue(
            service.make_request(asn, "install", rules=(drop_rule("r2"),), at=1.0)
        )
        assert rejected.status == "rejected"
        assert rejected.reason == "budget"
        assert rejected.retry_after == pytest.approx(9.0)
        assert service.stats.rejected_budget == 1
        # Budgets are per member and per window.
        other = service.enqueue(
            service.make_request(members[1], "install", rules=(drop_rule("o"),), at=1.0)
        )
        next_window = service.enqueue(
            service.make_request(asn, "install", rules=(drop_rule("r2"),), at=10.5)
        )
        assert other is None and next_window is None

    def test_backpressure_rejection_when_lane_is_full(self):
        fabric, members = make_fabric()
        service = ControlPlaneService(fabric, max_queue_depth=2)
        for i in range(2):
            service.enqueue(
                service.make_request(
                    members[i], "install", rules=(drop_rule(f"r{i}"),)
                )
            )
        rejected = service.enqueue(
            service.make_request(members[2], "install", rules=(drop_rule("r2"),))
        )
        assert rejected.status == "rejected"
        assert rejected.reason == "backpressure"
        assert rejected.retry_after >= service.op_seconds
        assert service.stats.rejected_backpressure == 1
        assert service.stats.max_queue_depth_seen == 2


class TestDraining:
    def test_coalescing_bumps_rules_version_once_per_drain(self):
        fabric, members = make_fabric()
        service = ControlPlaneService(fabric)
        asn = members[0]
        policy = fabric.port_for_member(asn).qos
        for i in range(4):
            service.enqueue(
                service.make_request(asn, "install", rules=(drop_rule(f"r{i}"),))
            )
        resolved = service.advance(None)
        assert policy.rules_version == 1
        assert service.stats.data_plane_calls == 1
        assert service.stats.coalesced_batches == 1
        assert service.stats.coalesced_ops == 4
        assert [response.status for _, response in resolved] == ["applied"] * 4
        assert policy.rule_ids() == [f"r{i}" for i in range(4)]

    def test_without_coalescing_every_install_bumps(self):
        fabric, members = make_fabric()
        service = ControlPlaneService(fabric, max_coalesce=1)
        asn = members[0]
        for i in range(4):
            service.enqueue(
                service.make_request(asn, "install", rules=(drop_rule(f"r{i}"),))
            )
        service.advance(None)
        assert fabric.port_for_member(asn).qos.rules_version == 4
        assert service.stats.data_plane_calls == 4
        assert service.stats.coalesced_batches == 0

    def test_remove_flushes_the_members_pending_batch_first(self):
        fabric, members = make_fabric()
        service = ControlPlaneService(fabric)
        asn = members[0]
        for op, kwargs in [
            ("install", {"rules": (drop_rule("r0"),)}),
            ("install", {"rules": (drop_rule("r1"),)}),
            ("remove", {"rule_id": "r0"}),
            ("install", {"rules": (drop_rule("r2"),)}),
        ]:
            service.enqueue(service.make_request(asn, op, **kwargs))
        service.advance(None)
        assert [entry.op for entry in service.sorted_log()] == [
            "install_many",
            "remove",
            "install_many",
        ]
        assert fabric.port_for_member(asn).qos.rule_ids() == ["r1", "r2"]

    def test_max_coalesce_caps_batch_size(self):
        fabric, members = make_fabric()
        service = ControlPlaneService(fabric, max_coalesce=2)
        asn = members[0]
        for i in range(5):
            service.enqueue(
                service.make_request(asn, "install", rules=(drop_rule(f"r{i}"),))
            )
        service.advance(None)
        assert [len(e.rules) for e in service.sorted_log()] == [2, 2, 1]

    def test_horizon_blocks_unfinished_requests(self):
        fabric, members = make_fabric()
        service = ControlPlaneService(fabric)
        asn = members[0]
        big = service.make_request(
            asn, "install_many", rules=tuple(drop_rule(f"b{i}") for i in range(5))
        )
        small = service.make_request(asn, "install", rules=(drop_rule("s"),), at=0.0)
        service.enqueue(big)
        service.enqueue(small)
        # The 5-op head-of-line batch completes at 5·OP ≈ 1.15 s: nothing
        # fits inside a 0.5 s horizon, including the 1-op request behind it.
        assert service.advance(0.5) == []
        assert service.queue_depth() == 6
        resolved = service.advance(2.0)
        assert service.queue_depth() == 0
        by_id = {req.request_id: resp for req, resp in resolved}
        assert by_id[big.request_id].applied_at == pytest.approx(5 * OP)
        assert by_id[small.request_id].applied_at == pytest.approx(6 * OP)
        assert by_id[small.request_id].latency == pytest.approx(6 * OP)

    def test_latency_percentiles_on_empty_service(self):
        fabric, _ = make_fabric()
        service = ControlPlaneService(fabric)
        assert service.latency_percentiles() == {
            "p50": 0.0,
            "p90": 0.0,
            "p99": 0.0,
            "max": 0.0,
        }

    def test_close_rejects_everything_still_queued(self):
        fabric, members = make_fabric()
        service = ControlPlaneService(fabric)
        for i in range(3):
            service.enqueue(
                service.make_request(members[i], "install", rules=(drop_rule("r"),))
            )
        resolved = service.close()
        assert len(resolved) == 3
        assert all(r.reason == "shutdown" for _, r in resolved)
        assert service.stats.rejected_shutdown == 3
        assert service.queue_depth() == 0

    def test_closed_service_rejects_new_changes(self):
        fabric, members = make_fabric()
        service = ControlPlaneService(fabric)
        service.close()
        asn = members[0]
        for op, kwargs in [
            ("install", {"rules": (drop_rule("r"),)}),
            ("install_many", {"rules": (drop_rule("a"), drop_rule("b"))}),
            ("remove", {"rule_id": "r"}),
            ("clear", {}),
        ]:
            response = service.enqueue(service.make_request(asn, op, **kwargs))
            assert response.status == "rejected"
            assert response.reason == "shutdown"
            assert response.retry_after is None
        assert service.stats.rejected_shutdown == 4
        assert service.queue_depth() == 0
        assert service.advance(None) == []
        assert fabric.port_for_member(asn).qos.rule_ids() == []
        assert service.request_log == []
        # Reads still answer: telemetry costs nothing and changes nothing.
        telemetry = service.enqueue(service.make_request(asn, "telemetry"))
        assert telemetry.status == "telemetry"


def single_router_fabric(profile=None):
    fabric = SwitchingFabric()
    fabric.add_edge_router(EdgeRouter("er-1", profile=profile))
    fabric.connect_member(IxpMember(asn=64500, port_capacity_bps=1e9))
    return fabric


class TestTokenBucketPacing:
    """Lanes paced by a per-router token bucket (Stellar's change queue)."""

    def _service(self, fabric=None, rate=1.0, burst=2.0):
        fabric = fabric if fabric is not None else single_router_fabric()
        return fabric, ControlPlaneService(
            fabric, pacing=TokenBucketPacing(rate=rate, burst=burst)
        )

    def _install(self, service, rule_id, at=0.0, **kwargs):
        request = service.make_request(
            64500, "install", rules=(drop_rule(rule_id, **kwargs),), at=at
        )
        assert service.enqueue(request) is None
        return request

    def test_defaults_are_the_papers_queue(self):
        pacing = TokenBucketPacing()
        assert (pacing.rate, pacing.burst) == (4.33, 10.0)

    @pytest.mark.parametrize("rate", [0.0, -1.0, math.nan, math.inf])
    def test_validation(self, rate):
        # A NaN or infinite rate would refill the bucket on every change,
        # which switches the pacing off.
        with pytest.raises(ValueError):
            TokenBucketPacing(rate=rate)
        with pytest.raises(ValueError):
            TokenBucketPacing(burst=0.0)

    def test_burst_then_rate(self):
        fabric, service = self._service()
        for i in range(4):
            self._install(service, f"r{i}", src_port=i + 1)
        assert len(service.advance(0.0)) == 2
        assert service.advance(0.0) == []
        assert len(service.advance(1.0)) == 1
        assert service.queue_depth() == 1
        assert len(fabric.port_for_member(64500).qos.rules()) == 3

    def test_a_change_completes_when_its_tokens_arrive(self):
        _, service = self._service()
        requests = [self._install(service, f"r{i}", src_port=i + 1) for i in range(4)]
        resolved = service.advance(None)
        # FIFO: resolutions come out in enqueue order.
        assert [req.request_id for req, _ in resolved] == [
            req.request_id for req in requests
        ]
        assert [resp.applied_at for _, resp in resolved] == [0.0, 0.0, 1.0, 2.0]

    def test_latency_is_the_wait_for_tokens(self):
        _, service = self._service(burst=1.0)
        self._install(service, "a", at=0.0, src_port=1)
        self._install(service, "b", at=0.25, src_port=2)
        # An idle lane applies a change at its arrival, while it has tokens.
        self._install(service, "c", at=5.0, src_port=3)
        latencies = [resp.latency for _, resp in service.advance(None)]
        assert latencies == [0.0, 0.75, 0.0]

    def test_a_multi_rule_request_waits_for_all_its_tokens(self):
        fabric, service = self._service()
        rules = tuple(drop_rule(f"r{i}", src_port=i + 1) for i in range(5))
        service.enqueue(service.make_request(64500, "install_many", rules=rules))
        assert service.advance(2.9) == []
        ((_, response),) = service.advance(3.0)
        assert response.applied_at == 3.0
        assert len(fabric.port_for_member(64500).qos.rules()) == 5

    def test_every_router_has_its_own_bucket(self):
        fabric, members = make_fabric(pop_count=2, routers_per_pop=1, member_count=4)
        by_router = {}
        for asn in members:
            by_router.setdefault(fabric.router_for_member(asn).name, asn)
        assert len(by_router) == 2
        service = ControlPlaneService(fabric, pacing=TokenBucketPacing(rate=1.0, burst=1.0))
        for asn in by_router.values():
            service.enqueue(service.make_request(asn, "install", rules=(drop_rule("r"),)))
        assert [resp.applied_at for _, resp in service.advance(None)] == [0.0, 0.0]

    def test_unknown_member_is_rejected_at_enqueue(self):
        _, service = self._service()
        response = service.enqueue(
            service.make_request(60000, "install", rules=(drop_rule("r"),))
        )
        assert response.reason == "unknown-member"
        assert service.queue_depth() == 0

    def test_tcam_exhaustion_resolves_as_an_error(self):
        tiny = HardwareProfile(
            name="tiny", port_count=4, mac_filter_capacity=2, l3l4_criteria_capacity=3
        )
        fabric, service = self._service(single_router_fabric(tiny))
        self._install(service, "first", src_port=1)
        ((_, first),) = service.advance(0.0)
        self._install(service, "second", at=1.0, src_port=2)
        ((_, second),) = service.advance(1.0)
        assert first.status == "applied"
        assert (second.status, second.reason) == ("error", "tcam-exhausted")
        assert service.stats.tcam_errors == 1
        assert fabric.port_for_member(64500).qos.rule_ids() == ["first"]

    def test_a_coalesced_batch_resolves_up_to_the_tcam_failure(self):
        # Two installs drain into one install_many; the TCAM holds only the
        # first, which stays on the port and is reported as applied.
        tiny = HardwareProfile(
            name="tiny", port_count=4, mac_filter_capacity=2, l3l4_criteria_capacity=3
        )
        fabric, service = self._service(single_router_fabric(tiny))
        self._install(service, "first", src_port=1)
        self._install(service, "second", src_port=2)
        resolved = service.advance(0.0)
        assert [resp.status for _, resp in resolved] == ["applied", "error"]
        assert resolved[1][1].reason == "tcam-exhausted"
        assert service.stats.tcam_errors == 1
        assert service.stats.applied_requests == 1
        (entry,) = service.request_log
        assert entry.tcam_exhausted
        assert fabric.port_for_member(64500).qos.rule_ids() == ["first"]

    def test_replay_checks_tcam_exhaustion_both_ways(self):
        tiny = HardwareProfile(
            name="tiny", port_count=4, mac_filter_capacity=2, l3l4_criteria_capacity=3
        )
        _, service = self._service(single_router_fabric(tiny))
        self._install(service, "first", src_port=1)
        self._install(service, "second", src_port=2)
        service.advance(0.0)
        (entry,) = service.request_log
        assert replay_request_log(single_router_fabric(tiny), [entry]) == 1
        # An exhaustion the log does not record raises ...
        with pytest.raises(TcamExhaustedError):
            replay_request_log(
                single_router_fabric(tiny), [dataclasses.replace(entry, tcam_exhausted=False)]
            )
        # ... and so does a logged exhaustion the replay does not hit.
        with pytest.raises(AssertionError, match="replay fit"):
            replay_request_log(single_router_fabric(), [entry])

    def test_backpressure_retry_after_waits_for_the_backlog_tokens(self):
        fabric, _ = self._service()
        service = ControlPlaneService(
            fabric, pacing=TokenBucketPacing(rate=1.0, burst=2.0), max_queue_depth=4
        )
        for i in range(4):
            self._install(service, f"r{i}", src_port=i + 1)
        response = service.enqueue(
            service.make_request(64500, "install", rules=(drop_rule("r4", src_port=5),))
        )
        assert response.reason == "backpressure"
        # Two queued changes take the burst, the other two the next 2 s.
        assert response.retry_after == 2.0

    def test_an_install_of_a_held_rule_id_updates_it_in_place(self):
        fabric, service = self._service()
        self._install(service, "keep", src_port=1)
        self._install(service, "other", src_port=2)
        service.advance(None)
        shape = QosRule(
            match=FlowMatch(dst_prefix=Prefix.parse("10.1.0.1/32"), src_port=1),
            action=FilterAction.SHAPE,
            shape_rate_bps=2e8,
            rule_id="keep",
        )
        service.enqueue(service.make_request(64500, "install", rules=(shape,), at=5.0))
        ((_, response),) = service.advance(5.0)
        assert response.status == "applied"
        rules = {rule.rule_id: rule for rule in fabric.port_for_member(64500).qos.rules()}
        assert sorted(rules) == ["keep", "other"]
        assert rules["keep"].action is FilterAction.SHAPE
        assert rules["keep"].shape_rate_bps == 2e8


class TestCoalescingParity:
    """The regression satellite: batched ≡ one-at-a-time, bit for bit."""

    STREAM = [
        (0, "install", {"rules": (drop_rule("atk-ntp"),)}),
        (0, "install", {"rules": (shape_rule("slow", rate=1e5, dst="10.1.0.1/32"),)}),
        (1, "install_many", {"rules": (drop_rule("a", dst="10.1.0.2/32"), shape_rule(""))}),
        (0, "install", {"rules": (drop_rule("atk-ntp", src_port=19),)}),  # replace
        (1, "remove", {"rule_id": "a"}),
        (0, "install", {"rules": (shape_rule("", rate=3e6, dst="10.1.0.1/32"),)}),
        (1, "install", {"rules": (drop_rule("b", dst="10.1.0.2/32", src_port=19),)}),
    ]

    def _table(self, members):
        records = [
            flow("10.1.0.1", members[0]),
            flow("10.1.0.1", members[0], src_port=19),
            flow("10.1.0.1", members[0], src_port=50000),
            flow("10.1.0.2", members[1]),
            flow("10.1.0.2", members[1], src_port=19),
            flow("10.9.9.9", members[2]),
        ]
        return from_records(records)

    def test_coalesced_batches_match_sequential_installs(self):
        fabric_a, members = make_fabric()
        fabric_b, _ = make_fabric()
        service = ControlPlaneService(fabric_a)
        portal = ScriptedPortal(fabric_b)
        for index, op, kwargs in self.STREAM:
            response = service.enqueue(
                service.make_request(members[index], op, **kwargs)
            )
            assert response is None
        service.advance(None)
        assert service.stats.coalesced_batches >= 1
        for entry in service.sorted_log():
            if entry.op == "install_many":
                portal.install_many(entry.member_asn, entry.rules)
            elif entry.op == "remove":
                portal.remove(entry.member_asn, entry.rule_id)
            else:
                portal.clear(entry.member_asn)
        for asn in members:
            policy_a = fabric_a.port_for_member(asn).qos
            policy_b = fabric_b.port_for_member(asn).qos
            assert policy_a.rule_ids() == policy_b.rule_ids()
            assert [repr(r) for r in policy_a.rules()] == [
                repr(r) for r in policy_b.rules()
            ]
        report_a = fabric_a.deliver(self._table(members), INTERVAL, 0.0)
        report_b = fabric_b.deliver(self._table(members), INTERVAL, 0.0)
        # Verdict-for-verdict, rule_stats-identical delivery.
        assert report_a.to_dict() == report_b.to_dict()


class TestSteppedDriving:
    """``advance`` in steps (as ``rule_churn`` drives it) ≡ one drain.

    A horizon only decides *when* a queued change is applied, and so how
    installs coalesce; it never moves a completion time, a response or
    the final rule state.
    """

    STREAM = [
        (0, "install", {"rules": (drop_rule("r0"),)}, 0.0),
        (1, "install", {"rules": (drop_rule("r1", dst="10.1.0.2/32"),)}, 0.1),
        (0, "install", {"rules": (shape_rule("s0", dst="10.1.0.3/32"),)}, 0.2),
        (
            2,
            "install_many",
            {"rules": (drop_rule("r2", dst="10.1.0.4/32"), drop_rule("r3", dst="10.1.0.5/32"))},
            0.3,
        ),
        (0, "remove", {"rule_id": "r0"}, 0.4),
        (3, "clear", {}, 0.5),
        (1, "telemetry", {}, 0.6),
    ]

    @staticmethod
    def _two_lane_fabric():
        return make_fabric(pop_count=2, routers_per_pop=1, member_count=4)

    def _enqueue_stream(self, service, members):
        return [
            service.enqueue(service.make_request(members[i], op, at=at, **kwargs))
            for i, op, kwargs, at in self.STREAM
        ]

    def test_stepped_horizons_match_one_drain(self):
        fabric_a, members = self._two_lane_fabric()
        fabric_b, _ = self._two_lane_fabric()
        stepped = ControlPlaneService(fabric_a)
        one_shot = ControlPlaneService(fabric_b)
        immediate_a = self._enqueue_stream(stepped, members)
        immediate_b = self._enqueue_stream(one_shot, members)
        assert immediate_a == immediate_b
        resolved_a = []
        for step in range(1, 13):
            resolved_a.extend(stepped.advance(0.25 * step))
        resolved_a.extend(stepped.advance(None))
        resolved_b = one_shot.advance(None)
        assert stepped.queue_depth() == one_shot.queue_depth() == 0
        assert dict((req.request_id, resp) for req, resp in resolved_a) == dict(
            (req.request_id, resp) for req, resp in resolved_b
        )
        assert len(resolved_a) == len(resolved_b) == 6
        # Every stepped entry was applied inside the horizon it drained under.
        assert all(e.applied_at <= e.horizon + 1e-9 for e in stepped.request_log)
        for service in (stepped, one_shot):
            assert service.stats.applied_requests == 6
            assert service.stats.applied_ops == 7
        assert sorted(stepped.latencies) == sorted(one_shot.latencies)
        # The horizons did split a batch the single drain coalesced.
        assert stepped.stats.data_plane_calls > one_shot.stats.data_plane_calls
        # Each member's changes reach its port in request order either way.
        for asn in members:
            assert [
                rid for e in stepped.sorted_log() if e.member_asn == asn
                for rid in e.request_ids
            ] == [
                rid for e in one_shot.sorted_log() if e.member_asn == asn
                for rid in e.request_ids
            ]
            assert [repr(r) for r in fabric_a.port_for_member(asn).qos.rules()] == [
                repr(r) for r in fabric_b.port_for_member(asn).qos.rules()
            ]

    def test_lanes_keep_independent_virtual_clocks(self):
        fabric, members = self._two_lane_fabric()
        by_router = {}
        for asn in members:
            by_router.setdefault(fabric.router_for_member(asn).name, []).append(asn)
        assert len(by_router) == 2
        first, second = sorted(by_router)
        asn_first, asn_second = by_router[first][0], by_router[second][0]
        service = ControlPlaneService(fabric)
        requests = [
            service.make_request(asn_second, "install", rules=(drop_rule("a"),)),
            service.make_request(asn_first, "install", rules=(drop_rule("b"),)),
            service.make_request(
                asn_second, "install", rules=(drop_rule("c", dst="10.1.0.2/32"),)
            ),
        ]
        for request in requests:
            assert service.enqueue(request) is None
        resolved = service.advance(None)
        # Lane order (router name), FIFO within a lane.
        assert [req.request_id for req, _ in resolved] == [
            requests[1].request_id,
            requests[0].request_id,
            requests[2].request_id,
        ]
        applied_at = {req.request_id: resp.applied_at for req, resp in resolved}
        # One router's backlog does not delay the other's CPU.
        assert applied_at[requests[1].request_id] == pytest.approx(OP)
        assert applied_at[requests[0].request_id] == pytest.approx(OP)
        assert applied_at[requests[2].request_id] == pytest.approx(2 * OP)


class TestReplayOracle:
    def test_replay_reproduces_rule_state(self):
        fabric_a, members = make_fabric()
        service = ControlPlaneService(fabric_a)
        for index, op, kwargs in TestCoalescingParity.STREAM:
            service.enqueue(service.make_request(members[index], op, **kwargs))
        service.advance(None)
        for sequential in (True, False):
            fabric_b, _ = make_fabric()
            applied = replay_request_log(
                fabric_b, service.sorted_log(), sequential=sequential
            )
            assert applied == len(service.request_log)
            for asn in members:
                assert [
                    repr(r) for r in fabric_a.port_for_member(asn).qos.rules()
                ] == [repr(r) for r in fabric_b.port_for_member(asn).qos.rules()]
