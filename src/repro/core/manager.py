"""The network manager.

The network manager dequeues abstract configuration changes from the
token-bucket change queue, performs admission control against the hardware
limits of the victim's edge router, and deploys each change as a QoS rule on
the victim member's *egress* port (paper §4.4, §4.5).  Filtering on egress
means a rule change touches exactly one port configuration — the victim's —
instead of the other (n − 1) member ports.  Failures never impact
forwarding: a change that cannot be deployed is reported and the traffic
simply keeps flowing unfiltered (the resilience constraint of §4.1.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..ixp.edge_router import EdgeRouter
from ..ixp.fabric import SwitchingFabric
from ..ixp.qos import QosRule
from ..ixp.tcam import TcamExhaustedError, TcamStatus
from .change_queue import ChangeQueue, ChangeType, ConfigChange

#: QoS rules one member port may hold; a new rule beyond it is rejected
#: before it reaches the device.
MAX_RULES_PER_PORT = 256


class DeploymentStatus(Enum):
    """Outcome of deploying one configuration change."""

    APPLIED = "applied"
    REJECTED_ADMISSION = "rejected_admission"
    FAILED_HARDWARE = "failed_hardware"
    FAILED_NO_PORT = "failed_no_port"


@dataclass
class DeploymentRecord:
    """Outcome of one attempted deployment."""

    change: ConfigChange
    status: DeploymentStatus
    deploy_time: float
    detail: str = ""

    @property
    def waiting_time(self) -> float:
        return self.deploy_time - self.change.enqueue_time


def admission_rejection(router: EdgeRouter, member_asn: int, rule: QosRule) -> str:
    """Why installing a new ``rule`` on the member's port is infeasible, or ``""``."""
    rules_on_port = len(router.port_for(member_asn).rules())
    if rules_on_port >= MAX_RULES_PER_PORT:
        return (
            f"port of AS{member_asn} already holds {rules_on_port} rules "
            f"(limit {MAX_RULES_PER_PORT})"
        )
    status = router.check_capacity(rule)
    if status is not TcamStatus.OK:
        return f"TCAM limit {status.value} on {router.name}"
    return ""


class NetworkManager:
    """Deploys queued changes as egress QoS rules on the fabric's edge routers."""

    def __init__(self, fabric: SwitchingFabric, change_queue: ChangeQueue) -> None:
        self.fabric = fabric
        self.change_queue = change_queue

    def process_pending(self, now: float) -> list[DeploymentRecord]:
        """Dequeue and deploy as many changes as the token bucket allows."""
        return [self.deploy(change, now) for change in self.change_queue.drain(now)]

    def deploy(self, change: ConfigChange, now: float) -> DeploymentRecord:
        """Deploy one change at ``now``."""
        status, detail = self._apply(change)
        return DeploymentRecord(change=change, status=status, deploy_time=now, detail=detail)

    def _apply(self, change: ConfigChange) -> tuple[DeploymentStatus, str]:
        member_asn = change.target_member_asn
        try:
            router = self.fabric.router_for_member(member_asn)
        except KeyError:
            return DeploymentStatus.FAILED_NO_PORT, f"AS{member_asn} has no port on the fabric"

        qos_rule = change.rule.to_qos_rule()
        if change.change_type is ChangeType.REMOVE_RULE:
            router.remove_rule(member_asn, qos_rule.rule_id)
            return DeploymentStatus.APPLIED, ""
        # An UPDATE replaces a rule the port already holds, so only an ADD
        # is checked against the limits; a failed UPDATE surfaces below.
        if change.change_type is ChangeType.ADD_RULE:
            reason = admission_rejection(router, member_asn, qos_rule)
            if reason:
                return DeploymentStatus.REJECTED_ADMISSION, reason
        try:
            router.install_rule(member_asn, qos_rule)
        except TcamExhaustedError as exc:
            return DeploymentStatus.FAILED_HARDWARE, str(exc)
        return DeploymentStatus.APPLIED, ""
