"""The control plane: every rule change on the fabric goes through here.

The paper's central scaling bottleneck is the *control* plane: the edge
router's configuration CPU sustains a median of only ~4.33 rule updates
per second within its 15 % budget (§5.1, Fig. 10(a)), so rule changes
need admission control, queueing and batching in front of the routers.

:class:`ControlPlaneService` is that front end, for both of its callers:
Stellar's management layer (the blackholing controller enqueues the RIB
diff of member signals, §4.4) and the ``rule_churn`` scenario (thousands
of members churning fine-grained rules).  It multiplexes many members'
``install`` / ``install_many`` / ``remove`` / ``clear`` / ``telemetry``
requests against one running :class:`~repro.ixp.fabric.SwitchingFabric`:

* **per-router FIFO lanes** — each edge router services its queue on a
  *virtual* control-plane clock, so rule-propagation latency is a
  modeled quantity, independent of host wall-clock.  The lane's pacing
  is the service's one model parameter: by default each operation
  occupies the router's config CPU for ``1 / max_update_rate`` seconds
  (the deterministic :class:`ControlPlaneCpuModel`); with
  :class:`TokenBucketPacing` each router has the paper's token-bucket
  change queue (a burst of 10, then 4.33 changes/s), and a change
  completes as soon as its tokens are available;
* **coalescing** — consecutive queued installs for the same port are
  drained into a single :meth:`EdgeRouter.install_rules` batch: one
  ``rules_version`` bump per drained batch instead of one per rule (the
  amortization the ``rule_churn`` scenario and ``BENCH_service.json``
  measure).  Since the incremental-compile work in
  :mod:`~repro.ixp.ruleindex`, the per-drain index cost is small even
  uncoalesced — small batches replay as journal deltas into the cached
  snapshot rather than triggering a full recompile — but one bump per
  batch still means one delivery-plan patch per drain;
* **per-member change budgets** — a member may spend at most
  ``rate × window`` configuration operations per budget window, with
  the rate backed by the noise-free CPU model; over-budget requests are
  rejected with an explicit ``retry_after``;
* **backpressure** — each lane caps its queued operations; requests
  beyond the cap are rejected with a ``retry_after`` estimated from the
  backlog.

The router's TCAM is the one per-port platform limit: an install the
TCAM cannot hold resolves as an ``"error"`` with
``reason="tcam-exhausted"`` and leaves the data plane where sequential
installs would have stopped; the requests of a coalesced batch placed
before the failure resolve as ``"applied"``.

The service runs in *virtual* time and has one synchronous driver: a
caller admits requests with :meth:`enqueue` (telemetry and rejections
answer at once) and moves the control-plane clock with
:meth:`advance`, which applies every queued change completing by the
horizon and returns its ``(request, response)`` resolutions.
:meth:`close` shuts the service down: it rejects whatever is still
queued, and every later change request, with ``reason="shutdown"``.

Every applied data-plane call is recorded as an :class:`AppliedChange`.
Replaying that log *one rule at a time* through direct router calls must
reproduce the exact same fabric state — the parity oracle guarding the
coalescing seam, kept in ``tests/oracle``.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Sequence
from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np

from .control_plane import PAPER_MEDIAN_UPDATE_RATE, ControlPlaneCpuModel
from .edge_router import EdgeRouter, PortNotFoundError
from .fabric import SwitchingFabric
from .qos import QosRule
from .queues import TokenBucket
from .tcam import TcamExhaustedError

#: Operations that mutate a port's rule set (and consume budget/CPU).
CHANGE_OPS = ("install", "install_many", "remove", "clear")

#: Every operation the service accepts.
SERVICE_OPS = CHANGE_OPS + ("telemetry",)

#: Comparison slack for virtual-time horizon checks.
_EPS = 1e-9


@dataclass(frozen=True)
class TokenBucketPacing:
    """Lane pacing by the paper's token-bucket change queue (§4.4).

    Each edge router gets its own bucket: ``burst`` changes (the Maximum
    Burst Size) at once, then ``rate`` changes per second.  A change
    completes as soon as its tokens are available.
    """

    rate: float = PAPER_MEDIAN_UPDATE_RATE
    burst: float = 10.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rate) and self.rate > 0):
            raise ValueError("rate must be positive and finite")
        if not (math.isfinite(self.burst) and self.burst >= 1):
            raise ValueError("burst must be finite and at least 1")


@dataclass(frozen=True)
class ChangeRequest:
    """One member request against the control-plane service."""

    member_asn: int
    op: str
    rules: tuple[QosRule, ...] = ()
    rule_id: str = ""
    #: Virtual time the request reaches the service (seconds).
    arrival_time: float = 0.0
    #: Assigned by the service at submission (monotonic per service).
    request_id: int = 0

    def __post_init__(self) -> None:
        if self.op not in SERVICE_OPS:
            raise ValueError(
                f"unknown op {self.op!r}; known: {', '.join(SERVICE_OPS)}"
            )
        if self.op in ("install", "install_many") and not self.rules:
            raise ValueError(f"{self.op} request needs at least one rule")
        if self.op == "install" and len(self.rules) != 1:
            raise ValueError("install carries exactly one rule; use install_many")
        if self.op == "remove" and not self.rule_id:
            raise ValueError("remove request needs a rule_id")

    @property
    def cost(self) -> int:
        """Configuration operations the request spends on the router CPU.

        Installs cost one operation per rule; ``remove`` and ``clear``
        cost one (a single config transaction); telemetry is free (a
        read against state the service already holds).
        """
        if self.op in ("install", "install_many"):
            return len(self.rules)
        if self.op in ("remove", "clear"):
            return 1
        return 0


@dataclass(frozen=True)
class ServiceResponse:
    """The service's answer to one :class:`ChangeRequest`."""

    #: ``"applied"`` | ``"rejected"`` | ``"error"`` | ``"telemetry"``.
    status: str
    request_id: int
    member_asn: int
    op: str
    #: Virtual completion time of the change (``applied`` / ``error``).
    applied_at: Optional[float] = None
    #: ``applied_at - arrival_time`` — the rule-propagation latency.
    latency: Optional[float] = None
    #: Seconds the member should wait before retrying (rejections).
    retry_after: Optional[float] = None
    #: ``"budget"`` | ``"backpressure"`` | ``"unknown-member"`` |
    #: ``"tcam-exhausted"`` | ``"shutdown"`` | ``""``.
    reason: str = ""
    telemetry: Optional[dict] = None

    @property
    def accepted(self) -> bool:
        return self.status == "applied"


@dataclass(frozen=True)
class AppliedChange:
    """One data-plane call the service made (an entry of the request log).

    Coalesced installs appear as a single ``install_many`` entry carrying
    every rule of the drained batch, in queue order.  ``applied_at`` is
    the virtual completion time of the batch's last operation and
    ``horizon`` the drain horizon the batch was applied under (scenario
    replays group entries by it).  The canonical log order is
    ``(applied_at, member_asn)`` — see
    :meth:`ControlPlaneService.sorted_log`.
    """

    member_asn: int
    op: str  # "install_many" | "remove" | "clear"
    rules: tuple[QosRule, ...] = ()
    rule_id: str = ""
    applied_at: float = 0.0
    horizon: float = math.inf
    request_ids: tuple[int, ...] = ()
    #: True when the batch hit the TCAM limit mid-apply; a replay must
    #: attempt the same ops and swallow the same error.
    tcam_exhausted: bool = False


@dataclass
class ServiceStats:
    """Counters the service accumulates (order-independent)."""

    submitted: int = 0
    applied_requests: int = 0
    applied_ops: int = 0
    #: Router calls made (each one rules_version bump at most).
    data_plane_calls: int = 0
    #: Install batches that merged more than one request.
    coalesced_batches: int = 0
    #: Install operations that rode in a coalesced batch.
    coalesced_ops: int = 0
    rejected_budget: int = 0
    rejected_backpressure: int = 0
    rejected_unknown_member: int = 0
    rejected_shutdown: int = 0
    tcam_errors: int = 0
    telemetry_served: int = 0
    max_queue_depth_seen: int = 0

    def to_dict(self) -> dict[str, int]:
        return asdict(self)


@dataclass
class _Pending:
    """A queued request and, once drained, its completion time."""

    request: ChangeRequest
    #: Virtual completion time, set when the drain services the request.
    done_at: float = 0.0


class _RouterLane:
    """One edge router's FIFO change queue + virtual control-plane clock."""

    def __init__(self, router: EdgeRouter, pacing: Optional[TokenBucketPacing]) -> None:
        self.router = router
        self.queue: deque[_Pending] = deque()
        #: Configuration operations currently queued (backpressure unit).
        self.pending_ops = 0
        #: Virtual completion time of the lane's last applied change.
        self.clock = 0.0
        #: The router's change bucket; ``None`` paces by CPU occupancy.
        self.bucket = (
            None if pacing is None else TokenBucket(rate=pacing.rate, burst=pacing.burst)
        )


class ControlPlaneService:
    """Admission control, queueing and coalescing in front of the fabric.

    Parameters
    ----------
    fabric:
        The running switching fabric whose routers the service drives.
    pacing:
        How a lane paces its changes: ``None`` (the default) occupies the
        router's config CPU for :attr:`op_seconds` per operation; a
        :class:`TokenBucketPacing` gives every router its own token
        bucket (Stellar's management layer).
    max_queue_depth:
        Per-router cap on queued configuration *operations*; requests
        that would exceed it are rejected with ``reason="backpressure"``.
    max_coalesce:
        Upper bound on operations merged into one install batch; ``1``
        applies every install request as its own router call (the
        comparison arm the service bench measures amortization against).
    budget_window:
        Length (seconds) of the fixed per-member budget window.
    member_update_rate:
        Sustained config-operations/second each member may spend.  The
        default derives it from the *deterministic* CPU model —
        ``max_update_rate(15 %) ≈ 4.33/s``, the paper's median.

    The router CPU is always the noise-free
    :meth:`ControlPlaneCpuModel.deterministic`, so admission decisions
    and virtual completion times are reproducible.
    """

    def __init__(
        self,
        fabric: SwitchingFabric,
        *,
        pacing: Optional[TokenBucketPacing] = None,
        max_queue_depth: int = 512,
        max_coalesce: int = 256,
        budget_window: float = 10.0,
        member_update_rate: Optional[float] = None,
    ) -> None:
        if max_queue_depth < 1:
            raise ValueError("max_queue_depth must be positive")
        if max_coalesce < 1:
            raise ValueError("max_coalesce must be positive")
        if budget_window <= 0:
            raise ValueError("budget_window must be positive")
        self.fabric = fabric
        self.max_queue_depth = max_queue_depth
        self.max_coalesce = max_coalesce
        self.budget_window = budget_window
        self.update_rate = ControlPlaneCpuModel.deterministic().max_update_rate()
        #: Virtual seconds one configuration operation occupies the CPU.
        self.op_seconds = 1.0 / self.update_rate
        self.member_update_rate = (
            self.update_rate if member_update_rate is None else member_update_rate
        )
        if self.member_update_rate <= 0:
            raise ValueError("member_update_rate must be positive")
        self.window_allowance = self.member_update_rate * budget_window
        self._lanes: dict[str, _RouterLane] = {
            router.name: _RouterLane(router, pacing) for router in fabric.edge_routers()
        }
        #: ``(member_asn, window_index) -> operations spent``.
        self._budget_used: dict[tuple[int, int], int] = {}
        self._next_request_id = 1
        self.request_log: list[AppliedChange] = []
        #: Propagation latency of every applied request (virtual seconds).
        self.latencies: list[float] = []
        self.stats = ServiceStats()
        self._closed = False

    # ------------------------------------------------------------------
    # Request construction
    # ------------------------------------------------------------------
    def make_request(
        self,
        member_asn: int,
        op: str,
        *,
        rules: Sequence[QosRule] = (),
        rule_id: str = "",
        at: float = 0.0,
    ) -> ChangeRequest:
        """Build a request with the next service-assigned request id."""
        request = ChangeRequest(
            member_asn=member_asn,
            op=op,
            rules=tuple(rules),
            rule_id=rule_id,
            arrival_time=at,
            request_id=self._next_request_id,
        )
        self._next_request_id += 1
        return request

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def enqueue(self, request: ChangeRequest) -> Optional[ServiceResponse]:
        """Admit one request.

        Returns the immediate response for telemetry and rejections, or
        ``None`` when the request was queued on its router's lane (its
        response comes out of a later :meth:`advance`).  After
        :meth:`close` every change request is rejected as ``"shutdown"``.
        """
        if request.request_id == 0:
            request = replace(request, request_id=self._next_request_id)
            self._next_request_id += 1
        self.stats.submitted += 1
        if self._closed and request.op in CHANGE_OPS:
            self.stats.rejected_shutdown += 1
            return self._reject(request, "shutdown", retry_after=None)
        try:
            router = self.fabric.router_for_member(request.member_asn)
        except PortNotFoundError:
            self.stats.rejected_unknown_member += 1
            return self._reject(request, "unknown-member", retry_after=None)
        lane = self._lanes[router.name]

        if request.op == "telemetry":
            self.stats.telemetry_served += 1
            return self._telemetry_response(request, lane)

        window = int(request.arrival_time // self.budget_window)
        key = (request.member_asn, window)
        used = self._budget_used.get(key, 0)
        if used + request.cost > self.window_allowance + _EPS:
            self.stats.rejected_budget += 1
            window_end = (window + 1) * self.budget_window
            return self._reject(
                request, "budget", retry_after=max(0.0, window_end - request.arrival_time)
            )

        if lane.pending_ops + request.cost > self.max_queue_depth:
            self.stats.rejected_backpressure += 1
            start = max(lane.clock, request.arrival_time)
            if lane.bucket is None:
                backlog_done = start + lane.pending_ops * self.op_seconds
            else:
                backlog_done = lane.bucket.ready_at(lane.pending_ops, start)
            return self._reject(
                request,
                "backpressure",
                retry_after=max(self.op_seconds, backlog_done - request.arrival_time),
            )

        self._budget_used[key] = used + request.cost
        lane.queue.append(_Pending(request))
        lane.pending_ops += request.cost
        self.stats.max_queue_depth_seen = max(
            self.stats.max_queue_depth_seen, lane.pending_ops
        )
        return None

    def _reject(
        self, request: ChangeRequest, reason: str, retry_after: Optional[float]
    ) -> ServiceResponse:
        return ServiceResponse(
            status="rejected",
            request_id=request.request_id,
            member_asn=request.member_asn,
            op=request.op,
            retry_after=retry_after,
            reason=reason,
        )

    def _telemetry_response(
        self, request: ChangeRequest, lane: _RouterLane
    ) -> ServiceResponse:
        port = lane.router.port_for(request.member_asn)
        mac_used, l3l4_used = lane.router.tcam.usage_for_port(port.port_id)
        return ServiceResponse(
            status="telemetry",
            request_id=request.request_id,
            member_asn=request.member_asn,
            op="telemetry",
            applied_at=request.arrival_time,
            latency=0.0,
            telemetry={
                "router": lane.router.name,
                "rules_version": port.qos.rules_version,
                "installed_rules": len(port.qos),
                "queue_depth_ops": lane.pending_ops,
                "router_clock": lane.clock,
                "tcam_mac_entries": mac_used,
                "tcam_l3l4_criteria": l3l4_used,
            },
        )

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------
    def advance(
        self, horizon: Optional[float] = None
    ) -> list[tuple[ChangeRequest, ServiceResponse]]:
        """Service every lane's queue up to ``horizon`` (``None`` = all).

        Under CPU pacing each configuration operation occupies its
        router's virtual CPU for :attr:`op_seconds`; under token-bucket
        pacing a request completes once its tokens are available.  A
        request stays queued if its completion would pass the horizon
        (strict FIFO — a large head-of-line batch delays everything
        behind it).  Returns the ``(request, response)`` resolutions in
        lane order.
        """
        resolved: list[tuple[ChangeRequest, ServiceResponse]] = []
        for name in sorted(self._lanes):
            resolved.extend(self._drain_lane(self._lanes[name], horizon))
        return resolved

    def _drain_lane(
        self, lane: _RouterLane, horizon: Optional[float]
    ) -> list[tuple[ChangeRequest, ServiceResponse]]:
        resolved: list[tuple[ChangeRequest, ServiceResponse]] = []
        # member_asn -> install requests awaiting one coalesced flush, and
        # their running total of config operations.
        buffers: dict[int, list[_Pending]] = {}
        buffered_cost: dict[int, int] = {}

        def flush(member_asn: int) -> None:
            batch = buffers.pop(member_asn, None)
            buffered_cost.pop(member_asn, None)
            if batch:
                self._apply_install_batch(lane, member_asn, batch, horizon, resolved)

        while lane.queue:
            pending = lane.queue[0]
            request = pending.request
            cost = request.cost
            start = max(lane.clock, request.arrival_time)
            bucket = lane.bucket
            if bucket is None:
                done = start + cost * self.op_seconds
            else:
                done = bucket.ready_at(cost, start)
            if horizon is not None and done > horizon + _EPS:
                break
            if bucket is not None:
                bucket.spend(cost, done)
            lane.queue.popleft()
            lane.pending_ops -= cost
            lane.clock = done
            pending.done_at = done
            if request.op in ("install", "install_many"):
                buffers.setdefault(request.member_asn, []).append(pending)
                total = buffered_cost.get(request.member_asn, 0) + cost
                buffered_cost[request.member_asn] = total
                if total >= self.max_coalesce:
                    flush(request.member_asn)
            elif request.op == "remove":
                # Ordering: a queued remove must see every install queued
                # before it, so the member's buffered batch flushes first.
                flush(request.member_asn)
                lane.router.remove_rule(request.member_asn, request.rule_id)
                self._log_and_resolve(
                    lane, [pending], "remove", horizon, resolved, rule_id=request.rule_id
                )
            elif request.op == "clear":
                flush(request.member_asn)
                lane.router.clear_rules(request.member_asn)
                self._log_and_resolve(lane, [pending], "clear", horizon, resolved)
        for member_asn in list(buffers):
            flush(member_asn)
        return resolved

    def _apply_install_batch(
        self,
        lane: _RouterLane,
        member_asn: int,
        batch: list[_Pending],
        horizon: Optional[float],
        resolved: list[tuple[ChangeRequest, ServiceResponse]],
    ) -> None:
        rules = tuple(
            rule for pending in batch for rule in pending.request.rules
        )
        failed_from: Optional[int] = None
        try:
            lane.router.install_rules(member_asn, rules)
        except TcamExhaustedError as exc:
            # install_rules leaves the data plane exactly where sequential
            # installs would have stopped: the requests placed whole before
            # the failing rule are applied, the rest resolve as errors.  The
            # log records the failure so the replay oracle attempts (and
            # swallows) the same one.
            placed = exc.installed
            failed_from = 0
            while placed >= batch[failed_from].request.cost:
                placed -= batch[failed_from].request.cost
                failed_from += 1
            self.stats.tcam_errors += len(batch) - failed_from
        if len(batch) > 1:
            self.stats.coalesced_batches += 1
            self.stats.coalesced_ops += len(rules)
        self._log_and_resolve(
            lane,
            batch,
            "install_many",
            horizon,
            resolved,
            rules=rules,
            failed_from=failed_from,
        )

    def _log_and_resolve(
        self,
        lane: _RouterLane,
        batch: list[_Pending],
        op: str,
        horizon: Optional[float],
        resolved: list[tuple[ChangeRequest, ServiceResponse]],
        *,
        rules: tuple[QosRule, ...] = (),
        rule_id: str = "",
        failed_from: Optional[int] = None,
    ) -> None:
        """Log one data-plane call and resolve its requests.

        ``failed_from`` is the index of the first request the TCAM could
        not hold; it and every later request resolve as errors.
        """
        applied_at = batch[-1].done_at
        self.request_log.append(
            AppliedChange(
                member_asn=batch[0].request.member_asn,
                op=op,
                rules=rules,
                rule_id=rule_id,
                applied_at=applied_at,
                horizon=math.inf if horizon is None else horizon,
                request_ids=tuple(p.request.request_id for p in batch),
                tcam_exhausted=failed_from is not None,
            )
        )
        self.stats.data_plane_calls += 1
        for index, pending in enumerate(batch):
            request = pending.request
            latency = pending.done_at - request.arrival_time
            failed = failed_from is not None and index >= failed_from
            response = ServiceResponse(
                status="error" if failed else "applied",
                request_id=request.request_id,
                member_asn=request.member_asn,
                op=request.op,
                applied_at=pending.done_at,
                latency=latency,
                reason="tcam-exhausted" if failed else "",
            )
            if not failed:
                self.stats.applied_requests += 1
                self.stats.applied_ops += request.cost
                self.latencies.append(latency)
            resolved.append((request, response))

    def close(self) -> list[tuple[ChangeRequest, ServiceResponse]]:
        """Shut the service down: reject everything still queued.

        Returns the shutdown rejections in lane order.  Change requests
        enqueued afterwards are rejected the same way.
        """
        resolved: list[tuple[ChangeRequest, ServiceResponse]] = []
        for name in sorted(self._lanes):
            lane = self._lanes[name]
            while lane.queue:
                pending = lane.queue.popleft()
                lane.pending_ops -= pending.request.cost
                self.stats.rejected_shutdown += 1
                response = self._reject(pending.request, "shutdown", retry_after=None)
                resolved.append((pending.request, response))
        self._closed = True
        return resolved

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def sorted_log(self) -> list[AppliedChange]:
        """The request log in canonical replay order.

        A drain appends lane by lane; ``(applied_at, member_asn)`` orders
        the entries across lanes.  One member's entries may share an
        ``applied_at`` (a token-bucket burst completes several changes at
        once), so their order is the append order, which the stable sort
        keeps.
        """
        return sorted(
            self.request_log, key=lambda entry: (entry.applied_at, entry.member_asn)
        )

    def queue_depth(self) -> int:
        """Total configuration operations currently queued."""
        return sum(lane.pending_ops for lane in self._lanes.values())

    def latency_percentiles(
        self, percentiles: Sequence[float] = (50.0, 90.0, 99.0)
    ) -> dict[str, float]:
        """Propagation-latency percentiles over every applied request."""
        if not self.latencies:
            return {f"p{p:g}": 0.0 for p in percentiles} | {"max": 0.0}
        values = np.asarray(self.latencies, dtype=np.float64)
        out = {
            f"p{p:g}": float(np.percentile(values, p)) for p in percentiles
        }
        out["max"] = float(values.max())
        return out
