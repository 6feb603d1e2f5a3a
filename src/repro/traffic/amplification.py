"""Catalogue of amplification / reflection attack vectors.

DDoS amplification attacks exploit UDP services whose responses are much
larger than the requests (paper §1, citing Rossow's "Amplification Hell").
The catalogue below records, per abused protocol, the UDP source port the
reflected traffic arrives from and a representative bandwidth amplification
factor (BAF).  The factors follow the published measurement literature
(Rossow NDSS'14, US-CERT TA14-017A, Akamai memcached spotlight); they drive
the synthetic trace generator and the attack models.
"""

from __future__ import annotations

from dataclasses import dataclass

from .packet import IpProtocol, WellKnownPort


@dataclass(frozen=True)
class AmplificationVector:
    """One reflection/amplification attack vector."""

    name: str
    #: UDP source port the reflected responses arrive from.
    source_port: int
    #: Bandwidth amplification factor (response bytes / request bytes).
    amplification_factor: float
    #: Typical request payload in bytes.
    request_bytes: int
    protocol: IpProtocol = IpProtocol.UDP

    def __post_init__(self) -> None:
        if self.amplification_factor <= 0:
            raise ValueError("amplification factor must be positive")
        if not 0 <= self.source_port <= 65535:
            raise ValueError("source_port must be a valid L4 port")
        if self.request_bytes <= 0:
            raise ValueError("request_bytes must be positive")

    @property
    def response_bytes(self) -> int:
        """Approximate response volume triggered by one request."""
        return int(round(self.request_bytes * self.amplification_factor))


#: Vectors referenced by the paper (ports 0, 19, 53, 123, 389, 11211) plus a
#: few additional well-known ones so examples can explore a wider space.
VECTORS: dict[str, AmplificationVector] = {
    "ntp": AmplificationVector(
        name="ntp",
        source_port=int(WellKnownPort.NTP),
        amplification_factor=556.9,
        request_bytes=8,
    ),
    "dns": AmplificationVector(
        name="dns",
        source_port=int(WellKnownPort.DNS),
        amplification_factor=54.6,
        request_bytes=60,
    ),
    "memcached": AmplificationVector(
        name="memcached",
        source_port=int(WellKnownPort.MEMCACHED),
        amplification_factor=50000.0,
        request_bytes=15,
    ),
    "ldap": AmplificationVector(
        name="ldap",
        source_port=int(WellKnownPort.LDAP),
        amplification_factor=56.9,
        request_bytes=52,
    ),
    "chargen": AmplificationVector(
        name="chargen",
        source_port=int(WellKnownPort.CHARGEN),
        amplification_factor=358.8,
        request_bytes=1,
    ),
    "ssdp": AmplificationVector(
        name="ssdp",
        source_port=int(WellKnownPort.SSDP),
        amplification_factor=30.8,
        request_bytes=90,
    ),
    "snmp": AmplificationVector(
        name="snmp",
        source_port=int(WellKnownPort.SNMP),
        amplification_factor=6.3,
        request_bytes=87,
    ),
    # UDP fragments show up with source port 0 in flow records, which is why
    # port 0 dominates the blackholed-traffic port distribution (Fig. 3(a)).
    "fragments": AmplificationVector(
        name="fragments",
        source_port=int(WellKnownPort.UNASSIGNED),
        amplification_factor=1.0,
        request_bytes=1400,
    ),
}


def get_vector(name: str) -> AmplificationVector:
    """Look up an amplification vector by name (case insensitive)."""
    try:
        return VECTORS[name.lower()]
    except KeyError as exc:
        raise KeyError(
            f"unknown amplification vector {name!r}; known: {sorted(VECTORS)}"
        ) from exc


#: Ports the paper identifies as dominating blackholed traffic (Fig. 3(a)),
#: in the order they appear on the figure's x-axis.
AMPLIFICATION_PRONE_PORTS = (0, 123, 389, 11211, 53, 19)
