"""Traffic-mix profiles.

Profiles describe how traffic volume splits across (protocol, L4 port)
classes.  Two built-in profiles reproduce the statistical structure the
paper reports for the L-IXP traces (§2.3):

* :func:`benign_web_profile` — the traffic of a web-hosting IXP member
  before an attack (Fig. 2(c)): HTTPS/HTTP/RTMP dominant, TCP ≈ 87 %.
* :func:`blackholed_traffic_profile` — the port mix of traffic towards
  blackholed prefixes (Fig. 3(a)): UDP ≈ 99.9 %, amplification-prone source
  ports 0/123/389/11211/53/19 dominant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .packet import IpProtocol, WellKnownPort

#: A traffic class is (protocol, source port); the destination port is left
#: free because the paper's analyses are source-port based (reflected
#: amplification traffic carries the abused service's port as *source*).
TrafficClass = tuple[IpProtocol, int]


@dataclass(frozen=True)
class TrafficProfile:
    """A normalised traffic mix: share of bytes per (protocol, src port)."""

    name: str
    shares: dict[TrafficClass, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.shares:
            raise ValueError("a traffic profile needs at least one class")
        total = sum(self.shares.values())
        if total <= 0:
            raise ValueError("traffic shares must sum to a positive value")
        if any(share < 0 for share in self.shares.values()):
            raise ValueError("traffic shares must be non-negative")

    @cached_property
    def _class_arrays(self) -> tuple[list, np.ndarray, np.ndarray, np.ndarray]:
        """``(classes, probabilities, protocol values, port values)`` cache."""
        classes = list(self.shares)
        weights = np.array([self.shares[cls] for cls in classes], dtype=float)
        protocols = np.array([int(proto) for proto, _ in classes], dtype=np.uint8)
        ports = np.array([port for _, port in classes], dtype=np.int32)
        return classes, weights / weights.sum(), protocols, ports

    def sample_classes(
        self, rng: np.random.Generator, size: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``size`` classes at once; returns (protocol, src port) arrays."""
        classes, probabilities, protocols, ports = self._class_arrays
        indices = rng.choice(len(classes), size=size, p=probabilities)
        return protocols[indices], ports[indices]


def benign_web_profile() -> TrafficProfile:
    """Traffic mix of a web-hosting member before an attack (Fig. 2(c)).

    TCP accounts for roughly 87 % of non-blackholed traffic (§2.3); the
    remaining UDP is mostly DNS and QUIC-like traffic on port 443.
    """
    return TrafficProfile(
        name="benign-web",
        shares={
            (IpProtocol.TCP, int(WellKnownPort.HTTPS)): 0.47,
            (IpProtocol.TCP, int(WellKnownPort.HTTP)): 0.22,
            (IpProtocol.TCP, int(WellKnownPort.HTTP_ALT)): 0.10,
            (IpProtocol.TCP, int(WellKnownPort.RTMP)): 0.06,
            (IpProtocol.TCP, 22): 0.02,
            (IpProtocol.UDP, int(WellKnownPort.HTTPS)): 0.07,
            (IpProtocol.UDP, int(WellKnownPort.DNS)): 0.04,
            (IpProtocol.UDP, 0): 0.02,
        },
    )


def blackholed_traffic_profile() -> TrafficProfile:
    """Port mix of traffic towards blackholed prefixes (Fig. 3(a)).

    The shares follow the figure: port 0 (fragments) ≈ 28 %, NTP ≈ 17 %,
    LDAP ≈ 14 %, memcached ≈ 12 %, DNS ≈ 10 %, chargen ≈ 7 %, a long tail of
    other UDP ports, and a vanishing TCP share (0.03 %).
    """
    return TrafficProfile(
        name="blackholed",
        shares={
            (IpProtocol.UDP, int(WellKnownPort.UNASSIGNED)): 0.28,
            (IpProtocol.UDP, int(WellKnownPort.NTP)): 0.17,
            (IpProtocol.UDP, int(WellKnownPort.LDAP)): 0.14,
            (IpProtocol.UDP, int(WellKnownPort.MEMCACHED)): 0.12,
            (IpProtocol.UDP, int(WellKnownPort.DNS)): 0.10,
            (IpProtocol.UDP, int(WellKnownPort.CHARGEN)): 0.07,
            (IpProtocol.UDP, int(WellKnownPort.SSDP)): 0.05,
            (IpProtocol.UDP, int(WellKnownPort.SNMP)): 0.03,
            (IpProtocol.UDP, 27015): 0.02,
            (IpProtocol.UDP, 5060): 0.0167,
            (IpProtocol.TCP, int(WellKnownPort.HTTPS)): 0.0002,
            (IpProtocol.TCP, int(WellKnownPort.HTTP)): 0.0001,
            (IpProtocol.ICMP, 0): 0.0030,
        },
    )


def other_traffic_profile() -> TrafficProfile:
    """Port mix of regular (non-blackholed) IXP traffic (Fig. 3(a), §2.3).

    TCP ≈ 86.8 %, dominated by web ports; the amplification-prone ports
    carry only small shares.
    """
    return TrafficProfile(
        name="other",
        shares={
            (IpProtocol.TCP, int(WellKnownPort.HTTPS)): 0.45,
            (IpProtocol.TCP, int(WellKnownPort.HTTP)): 0.25,
            (IpProtocol.TCP, int(WellKnownPort.HTTP_ALT)): 0.05,
            (IpProtocol.TCP, 25): 0.02,
            (IpProtocol.TCP, 22): 0.018,
            (IpProtocol.UDP, int(WellKnownPort.HTTPS)): 0.08,
            (IpProtocol.UDP, int(WellKnownPort.DNS)): 0.03,
            (IpProtocol.UDP, int(WellKnownPort.NTP)): 0.008,
            (IpProtocol.UDP, int(WellKnownPort.UNASSIGNED)): 0.01,
            (IpProtocol.UDP, int(WellKnownPort.SSDP)): 0.004,
            (IpProtocol.UDP, int(WellKnownPort.LDAP)): 0.002,
            (IpProtocol.UDP, int(WellKnownPort.MEMCACHED)): 0.001,
            (IpProtocol.UDP, int(WellKnownPort.CHARGEN)): 0.001,
            (IpProtocol.UDP, 4500): 0.05,
            (IpProtocol.ICMP, 0): 0.006,
        },
    )
