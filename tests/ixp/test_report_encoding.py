"""The columnar canonical-JSON encoder ≡ ``json.dumps`` of the dict-built payload.

``repro.ixp.report_encoding`` writes the digests' bytes straight from a
report's numpy columns.  The oracle is the slow path it replaced:
``json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()``
over the payload built as Python objects — ``.tolist()`` of every column
for :func:`interval_columns_json`, and ``tests/oracle``'s
``columns_to_report_dict`` for :func:`report_json`.  Every comparison is
``==`` on bytes.
"""

import json
import math
import sys

import numpy as np
from hypothesis import given, strategies as st

from oracle.shard import columns_to_report_dict
from repro.ixp.fabric import MEMBER_REPORT_FIELDS
from repro.ixp.report_encoding import interval_columns_json, report_json

INT64 = np.iinfo(np.int64)


def canonical(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def tolisted(columns):
    """The columnar payload with every array as a list (the old city digest view)."""
    return {
        "interval_start": columns["interval_start"],
        "interval": columns["interval"],
        "totals": columns["totals"],
        "member_asns": columns["member_asns"].tolist(),
        "member_fields": {
            name: array.tolist() for name, array in columns["member_fields"].items()
        },
        "rule_stats": columns["rule_stats"],
    }


def array_json(values):
    """One array through the encoder, read back out of a minimal payload."""
    columns = {
        "interval_start": 0.0,
        "interval": 1.0,
        "totals": {},
        "member_asns": np.zeros(0, dtype=np.int64),
        "member_fields": {"x": values},
        "rule_stats": {},
    }
    encoded = interval_columns_json(columns)
    head = b'{"interval":1.0,"interval_start":0.0,"member_asns":[],"member_fields":{"x":'
    assert encoded.startswith(head)
    return encoded[len(head):encoded.index(b'},"rule_stats"')]


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
#: Floats where the encoder's two paths meet: signed zeros, subnormals,
#: integral values either side of 2**53 and of 1e16 (the fixed-notation
#: limit of repr), and the non-finite values json spells its own way.
EDGE_FLOATS = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.2250738585072014e-308,
    -2.225073858507201e-308,
    2.0**53 - 1,
    2.0**53,
    2.0**53 + 2,
    -(2.0**53),
    9999999999999998.0,
    -9999999999999998.0,
    1e16,
    -1e16,
    1e16 + 2,
    1e17,
    1e22,
    sys.float_info.max,
    -sys.float_info.max,
    math.nan,
    math.inf,
    -math.inf,
    0.1,
    -2.5,
    1e-5,
    123456789.125,
]

floats = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(2**60), 2**60).map(float),
    st.integers(0, 10**12).map(lambda value: value * 8.0),
)
int64s = st.one_of(
    st.sampled_from([INT64.min, INT64.min + 1, INT64.max, -1, 0, 1, 9, 10, 9999, 10_000]),
    st.integers(INT64.min, INT64.max),
)
rule_stats_values = st.dictionaries(
    st.text("abcdefgh-0123", min_size=1, max_size=6),
    st.dictionaries(
        st.sampled_from(["matched", "dropped", "shaped_passed"]), floats, max_size=3
    ),
    max_size=3,
)


@st.composite
def report_columns(draw):
    """A columnar report payload: ascending unique ASNs, the five member
    fields, and sparse rule stats for some of the members.

    ASNs mix digit counts (``"1000" < "999"`` as strings), so the members'
    string order differs from their numeric order.
    """
    asns = sorted(
        draw(
            st.sets(
                st.one_of(st.integers(0, 2000), st.integers(0, 2**32), int64s),
                max_size=40,
            )
        )
    )
    count = len(asns)
    fields = {
        name: np.array(draw(st.lists(floats, min_size=count, max_size=count)), dtype=np.float64)
        for name in MEMBER_REPORT_FIELDS
    }
    stats = {}
    if asns:
        for asn in draw(st.lists(st.sampled_from(asns), max_size=5, unique=True)):
            stats[str(asn)] = draw(rule_stats_values)
    return {
        "interval_start": draw(floats),
        "interval": draw(floats),
        "totals": {
            key: draw(floats)
            for key in ("offered_bits", "delivered_bits", "filtered_bits", "congestion_dropped_bits")
        },
        "member_asns": np.array(asns, dtype=np.int64),
        "member_fields": fields,
        "rule_stats": stats,
    }


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
@given(st.lists(floats, max_size=60))
def test_float_arrays_encode_like_json(values):
    array = np.array(values, dtype=np.float64)
    assert array_json(array) == canonical(array.tolist())


@given(st.lists(int64s, max_size=60))
def test_int64_arrays_encode_like_json(values):
    array = np.array(values, dtype=np.int64)
    assert array_json(array) == canonical(array.tolist())


@given(report_columns())
def test_interval_columns_json_equals_json_dumps(columns):
    assert interval_columns_json(columns) == canonical(tolisted(columns))


@given(report_columns())
def test_report_json_equals_json_dumps_of_the_oracle_dict(columns):
    assert report_json(columns) == canonical(columns_to_report_dict(columns))


# ----------------------------------------------------------------------
# Pinned cases
# ----------------------------------------------------------------------
def test_edge_floats_all_in_one_array():
    array = np.array(EDGE_FLOATS)
    assert array_json(array) == canonical(EDGE_FLOATS)
    encoded = array_json(np.array([1e16, -0.0, math.nan, math.inf, -math.inf, 2.0**53]))
    assert encoded == b"[1e+16,-0.0,NaN,Infinity,-Infinity,9007199254740992.0]"


def test_int64_extremes_and_empty_arrays():
    array = np.array([INT64.min, INT64.max, 0], dtype=np.int64)
    assert array_json(array) == b"[-9223372036854775808,9223372036854775807,0]"
    assert array_json(np.zeros(0)) == b"[]"
    assert array_json(np.zeros(0, dtype=np.int64)) == b"[]"


def test_members_are_keyed_in_string_order():
    columns = {
        "interval_start": 0.0,
        "interval": 10.0,
        "totals": {
            "offered_bits": 3.0,
            "delivered_bits": 2.0,
            "filtered_bits": 1.0,
            "congestion_dropped_bits": 0.0,
        },
        "member_asns": np.array([9, 999, 1000], dtype=np.int64),
        "member_fields": {
            name: np.array([1.0, 2.5, -0.0]) for name in MEMBER_REPORT_FIELDS
        },
        "rule_stats": {"999": {"r1": {"dropped": 1.0}}},
    }
    encoded = report_json(columns)
    assert encoded == canonical(columns_to_report_dict(columns))
    members = encoded[encoded.index(b'"members"'):]
    assert members.index(b'"1000"') < members.index(b'"9"') < members.index(b'"999"')
    assert b'"rule_stats":{"r1":{"dropped":1.0}}' in encoded


def test_empty_report():
    columns = {
        "interval_start": 5.0,
        "interval": 10.0,
        "totals": {
            "offered_bits": 0.0,
            "delivered_bits": 0.0,
            "filtered_bits": 0.0,
            "congestion_dropped_bits": 0.0,
        },
        "member_asns": np.zeros(0, dtype=np.int64),
        "member_fields": {name: np.zeros(0) for name in MEMBER_REPORT_FIELDS},
        "rule_stats": {},
    }
    assert report_json(columns) == canonical(columns_to_report_dict(columns))
    assert b'"members":{}' in report_json(columns)
    assert interval_columns_json(columns) == canonical(tolisted(columns))
