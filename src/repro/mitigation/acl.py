"""Router ACL filter baseline.

ISPs and IXP members deploy policy-based ACL filters at their own border
routers to drop unwanted traffic (§1.1).  Two properties distinguish ACLs
from IXP-side Advanced Blackholing in the model:

* the filter sits at the *victim's* border router, i.e. **after** the
  member's IXP port — so even perfectly matching filters do not relieve
  the congested port (the traffic has already consumed the port capacity),
* the number of ACL entries a border router can hold is limited, and the
  filters must be configured manually per device, which is what the
  "limited scalability / demand for customization" drawback captures.

The data plane is columnar: ``AclMitigation`` evaluates the ordered entry
list over a :class:`~repro.traffic.flowtable.FlowTable` as one vectorized
mask per entry (first match wins, implicit permit at the end).  An entry's
match is a :class:`~repro.ixp.qos.FlowMatch`, the rule format of
:mod:`repro.ixp.qos`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..bgp.prefix import Prefix, parse_prefix
from ..ixp.qos import FlowMatch
from ..traffic.flowtable import FlowTable
from .base import Dimension, MitigationOutcome, MitigationTechnique, Rating


@dataclass(frozen=True)
class AclEntry:
    """One access-control-list entry (permit or deny)."""

    action: str  # "permit" | "deny"
    match: FlowMatch = FlowMatch()

    def __post_init__(self) -> None:
        if self.action not in ("permit", "deny"):
            raise ValueError(f"action must be 'permit' or 'deny', got {self.action!r}")


class AccessControlList:
    """An ordered ACL with a hardware entry limit (first match wins)."""

    def __init__(self, max_entries: int = 1024) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries: list[AclEntry] = []

    def add(self, entry: AclEntry) -> None:
        if len(self._entries) >= self.max_entries:
            raise RuntimeError(
                f"ACL is full ({self.max_entries} entries); cannot add more"
            )
        self._entries.append(entry)

    def deny(self, dst_prefix: "str | Prefix", **criteria) -> AclEntry:
        """Convenience helper: append a deny entry for ``dst_prefix``."""
        entry = AclEntry("deny", FlowMatch(dst_prefix=parse_prefix(dst_prefix), **criteria))
        self.add(entry)
        return entry

    def entries(self) -> list[AclEntry]:
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def deny_mask(self, table: FlowTable) -> np.ndarray:
        """The rows the ACL denies.

        First match wins per row; rows no entry matches fall through to the
        implicit permit.
        """
        denied = np.zeros(len(table), dtype=bool)
        unmatched = np.ones(len(table), dtype=bool)
        for entry in self._entries:
            if not unmatched.any():
                break
            matched = unmatched & entry.match.matches_table(table)
            if entry.action == "deny":
                denied |= matched
            unmatched &= ~matched
        return denied


class AclMitigation(MitigationTechnique):
    """ACL filtering at the victim's border router.

    ``filters_after_port`` reflects where the ACL sits: when True (the
    realistic default), dropped traffic has still crossed the victim's IXP
    port and therefore still contributes to port congestion upstream of the
    filter; the outcome reports it as discarded nonetheless, and the
    experiment drivers account for the port bottleneck separately.
    """

    name = "ACL filters"
    ratings = {
        Dimension.GRANULARITY: Rating.ADVANTAGE,
        Dimension.SIGNALING_COMPLEXITY: Rating.DISADVANTAGE,
        Dimension.COOPERATION: Rating.NEUTRAL,
        Dimension.RESOURCE_SHARING: Rating.ADVANTAGE,
        Dimension.TELEMETRY: Rating.DISADVANTAGE,
        Dimension.SCALABILITY: Rating.NEUTRAL,
        Dimension.RESOURCES: Rating.DISADVANTAGE,
        Dimension.PERFORMANCE: Rating.ADVANTAGE,
        Dimension.REACTION_TIME: Rating.DISADVANTAGE,
        Dimension.COSTS: Rating.NEUTRAL,
    }

    def __init__(
        self, acl: Optional[AccessControlList] = None, filters_after_port: bool = True
    ) -> None:
        self.acl = acl if acl is not None else AccessControlList()
        self.filters_after_port = filters_after_port

    def _partition(self, table: FlowTable, interval: float) -> MitigationOutcome:
        """Vectorized ACL evaluation: one ordered mask pass over the table."""
        denied = self.acl.deny_mask(table)
        return MitigationOutcome(
            delivered_table=table.select(~denied),
            discarded_table=table.select(denied),
        )
