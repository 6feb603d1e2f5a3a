"""``ip_to_int`` accepts exactly the text ``ipaddress.IPv4Address`` accepts.

The oracle is the standard library: for any generated text, either both
parse it to the same 32-bit value or both refuse it (``ip_to_int`` with a
``ValueError``).  The generated text mixes well-formed dotted quads with
the near misses a fast ``int(octet)`` path lets through: leading zeros,
signs, underscores, whitespace, non-ASCII digits and out-of-range octets.
"""

from __future__ import annotations

import ipaddress

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.traffic.flowtable import ip_to_int

#: Octet-like fragments: digits plus the characters ``int()`` forgives.
_OCTET_TEXT = st.text(alphabet="0123456789_+- \t\n٣０", min_size=0, max_size=4)
_OCTET_INT = st.integers(min_value=0, max_value=999).map(str)

_ADDRESS_TEXT = st.one_of(
    st.lists(st.one_of(_OCTET_INT, _OCTET_TEXT), min_size=3, max_size=5).map(".".join),
    st.tuples(*[st.integers(0, 255)] * 4).map(lambda octets: ".".join(map(str, octets))),
    st.text(max_size=20),
)


def _oracle(text: str) -> int | None:
    try:
        return int(ipaddress.IPv4Address(text))
    except ValueError:
        return None


@given(_ADDRESS_TEXT)
@example("10.1_0.0.1")
@example("1.2.3.04")
@example("+1.2.3.4")
@example(" 1.2.3.4")
@example("1.2.3.٣")
@example("1.2.3.4\n")
@example("256.0.0.1")
@example("0.0.0.0")
@example("255.255.255.255")
def test_ip_to_int_matches_the_ipaddress_oracle(text):
    expected = _oracle(text)
    if expected is None:
        with pytest.raises(ValueError):
            ip_to_int(text)
    else:
        assert ip_to_int(text) == expected
