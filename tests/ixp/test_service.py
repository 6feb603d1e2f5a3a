"""Unit tests of the control-plane service and its parity contracts.

Deterministic companions to ``tests/fuzz/test_service_statemachine.py``:
admission (budget, backpressure, unknown members, telemetry), virtual-time
draining (head-of-line blocking, horizon carry-over), coalescing as a pure
amortization (one ``rules_version`` bump per drained batch, identical
verdicts and ``rule_stats`` to one-at-a-time installs), async/sync
execution parity, the request-log replay oracle, and the deterministic
``ControlPlaneCpuModel`` path budget enforcement relies on.
"""

import asyncio

import pytest

from oracle.service import ScriptedPortal, replay_request_log
from repro.bgp import Prefix
from repro.ixp import (
    ControlPlaneCpuModel,
    ControlPlaneService,
    FilterAction,
    FlowMatch,
    QosRule,
    build_multi_pop_fabric,
    make_member_population,
)
from repro.traffic import FiveTuple, FlowRecord, FlowTable, IpProtocol

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
        seed=seed,
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

    def test_service_rejects_noisy_models(self):
        fabric, _ = make_fabric()
        with pytest.raises(ValueError, match="deterministic"):
            ControlPlaneService(fabric, cpu_model=ControlPlaneCpuModel(seed=1))


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
        service = ControlPlaneService(fabric, coalesce=True)
        asn = members[0]
        policy = fabric.port_for_member(asn).qos
        for i in range(4):
            service.enqueue(
                service.make_request(asn, "install", rules=(drop_rule(f"r{i}"),))
            )
        resolved = service.drain_to(None)
        assert policy.rules_version == 1
        assert service.stats.data_plane_calls == 1
        assert service.stats.coalesced_batches == 1
        assert service.stats.coalesced_ops == 4
        assert [response.status for _, response in resolved] == ["applied"] * 4
        assert policy.rule_ids() == [f"r{i}" for i in range(4)]

    def test_without_coalescing_every_install_bumps(self):
        fabric, members = make_fabric()
        service = ControlPlaneService(fabric, coalesce=False)
        asn = members[0]
        for i in range(4):
            service.enqueue(
                service.make_request(asn, "install", rules=(drop_rule(f"r{i}"),))
            )
        service.drain_to(None)
        assert fabric.port_for_member(asn).qos.rules_version == 4
        assert service.stats.data_plane_calls == 4
        assert service.stats.coalesced_batches == 0

    def test_remove_flushes_the_members_pending_batch_first(self):
        fabric, members = make_fabric()
        service = ControlPlaneService(fabric, coalesce=True)
        asn = members[0]
        for op, kwargs in [
            ("install", {"rules": (drop_rule("r0"),)}),
            ("install", {"rules": (drop_rule("r1"),)}),
            ("remove", {"rule_id": "r0"}),
            ("install", {"rules": (drop_rule("r2"),)}),
        ]:
            service.enqueue(service.make_request(asn, op, **kwargs))
        service.drain_to(None)
        assert [entry.op for entry in service.sorted_log()] == [
            "install_many",
            "remove",
            "install_many",
        ]
        assert fabric.port_for_member(asn).qos.rule_ids() == ["r1", "r2"]

    def test_max_coalesce_caps_batch_size(self):
        fabric, members = make_fabric()
        service = ControlPlaneService(fabric, coalesce=True, max_coalesce=2)
        asn = members[0]
        for i in range(5):
            service.enqueue(
                service.make_request(asn, "install", rules=(drop_rule(f"r{i}"),))
            )
        service.drain_to(None)
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
        assert service.drain_to(0.5) == []
        assert service.queue_depth() == 6
        resolved = service.drain_to(2.0)
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
        return FlowTable.from_records(records)

    def test_coalesced_batches_match_sequential_installs(self):
        fabric_a, members = make_fabric()
        fabric_b, _ = make_fabric()
        service = ControlPlaneService(fabric_a, coalesce=True)
        portal = ScriptedPortal(fabric_b)
        for index, op, kwargs in self.STREAM:
            response = service.enqueue(
                service.make_request(members[index], op, **kwargs)
            )
            assert response is None
        service.drain_to(None)
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


class TestAsyncSyncParity:
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
    def _log_digest(service):
        return [
            (
                e.member_asn,
                e.op,
                tuple(repr(r) for r in e.rules),
                e.rule_id,
                e.applied_at,
                e.request_ids,
                e.tcam_exhausted,
            )
            for e in service.sorted_log()
        ]

    def test_async_execution_matches_scripted_sequential_core(self):
        fabric_a, members = make_fabric(pop_count=2, routers_per_pop=1, member_count=4)
        fabric_b, _ = make_fabric(pop_count=2, routers_per_pop=1, member_count=4)
        async_service = ControlPlaneService(fabric_a)
        sync_service = ControlPlaneService(fabric_b)

        async def run_async():
            async with async_service as service:
                tasks = [
                    asyncio.create_task(
                        service.submit(
                            service.make_request(members[i], op, at=at, **kwargs)
                        )
                    )
                    for i, op, kwargs, at in self.STREAM
                ]
                await asyncio.sleep(0)
                await service.advance(None)
                return [await task for task in tasks]

        async_responses = asyncio.run(run_async())
        sync_responses = [
            sync_service.enqueue(
                sync_service.make_request(members[i], op, at=at, **kwargs)
            )
            for i, op, kwargs, at in self.STREAM
        ]
        resolved = dict(
            (req.request_id, resp) for req, resp in sync_service.drain_to(None)
        )
        assert self._log_digest(async_service) == self._log_digest(sync_service)
        assert async_service.stats.to_dict() == sync_service.stats.to_dict()
        for index, response in enumerate(async_responses):
            counterpart = resolved.get(response.request_id)
            if counterpart is None:  # telemetry resolved at enqueue time
                counterpart = sync_responses[index]
            assert response == counterpart
        for asn in members:
            assert (
                fabric_a.port_for_member(asn).qos.rule_ids()
                == fabric_b.port_for_member(asn).qos.rule_ids()
            )

    def test_aclose_shutdown_rejects_pending_submissions(self):
        fabric, members = make_fabric()
        service = ControlPlaneService(fabric)

        async def run():
            async with service:
                task = asyncio.create_task(
                    service.submit(
                        service.make_request(
                            members[0], "install", rules=(drop_rule("r"),)
                        )
                    )
                )
                await asyncio.sleep(0)
            return await task

        response = asyncio.run(run())
        assert response.status == "rejected"
        assert response.reason == "shutdown"
        assert service.stats.rejected_shutdown == 1


class TestReplayOracle:
    def test_replay_reproduces_rule_state(self):
        fabric_a, members = make_fabric()
        service = ControlPlaneService(fabric_a, coalesce=True)
        for index, op, kwargs in TestCoalescingParity.STREAM:
            service.enqueue(service.make_request(members[index], op, **kwargs))
        service.drain_to(None)
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
