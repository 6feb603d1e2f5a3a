"""Canonical JSON of interval reports, encoded straight from their columns.

The report digests hash ``json.dumps(payload, sort_keys=True,
separators=(",", ":"))`` of an interval's accounting.  Building that
payload as Python objects costs one float object per member and field
(~50k per ``city_scale`` interval); this module writes the same bytes
from the numpy columns instead:

* :func:`interval_columns_json` encodes a columnar payload as it stands
  (:meth:`~repro.ixp.fabric.FabricIntervalReport.to_columns` or
  :func:`~repro.ixp.shard.merge_interval_columns`), arrays as JSON arrays;
* :func:`report_json` encodes the same columns in the
  :meth:`~repro.ixp.fabric.FabricIntervalReport.to_dict` layout: a
  ``"members"`` object keyed by ASN strings in string order, each member's
  fields and ``rule_stats`` in sorted key order.

A number column becomes a NUL-padded byte matrix of its tokens, one row
per value, and one boolean mask packs the rows.  An integer, or an
integral float below ``1e16`` (whose ``repr`` is its digits plus
``".0"``), is written four digits at a time from a lookup table; every
other float (fractions, ``1e16`` and up, NaN, infinities) and each sparse
``rule_stats`` dict is encoded by :mod:`json` itself and spliced into its
place.  The output equals ``json.dumps`` byte for byte;
``tests/ixp/test_report_encoding.py`` checks it against the dict-built
oracle.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from typing import Any, NamedTuple

import numpy as np


def _words(tokens: list[str]) -> np.ndarray:
    """Each token, NUL-padded on the left to 4 bytes, as one ``uint32`` word."""
    return np.frombuffer(
        "".join(token.rjust(4, "\0") for token in tokens).encode("ascii"),
        dtype=np.uint32,
    )


def _chunk_words() -> np.ndarray:
    """The digit word of every chunk value 0..9999: first its leading-zero-free
    form (the top chunk of a number, where 0 is all NUL), then its
    four-digit form (a chunk with more digits above it)."""
    values = np.arange(10_000, dtype=np.uint16)[:, None]
    scales = 10 ** np.arange(3, -1, -1, dtype=np.uint16)
    full = (values // scales % 10 + ord("0")).astype(np.uint8)
    # A digit above the value's leading one is NUL.
    top = np.where(values >= scales, full, 0).astype(np.uint8)
    return np.concatenate([top, full]).view(np.uint32).ravel()


_CHUNK_WORDS = _chunk_words()
_CHUNK = np.uint64(10_000)
_ZERO_WORD, _MINUS_WORD = _words(["0", "-"])
#: A float at or above this magnitude has an exponent in its ``repr``.
_FIXED_LIMIT = 1e16


def _json(value: Any) -> bytes:
    """``json.dumps`` in the canonical form (sorted keys, no spaces)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")


class _Tokens(NamedTuple):
    """One column's JSON tokens: a NUL-padded ``(rows, width)`` byte matrix
    plus the ``{row: token}`` of the rows whose token :mod:`json` wrote
    (their matrix row is all NUL)."""

    matrix: np.ndarray
    spliced: dict[int, bytes]


def _digit_matrix(magnitudes: np.ndarray, negative: np.ndarray, suffix: str) -> np.ndarray:
    """``[-]digits[suffix]`` of each unsigned magnitude, one NUL-padded row each.

    The digits are written four at a time, one ``uint32`` word per chunk
    of four, as many chunks as the largest magnitude needs.
    """
    count = len(magnitudes)
    top = int(magnitudes.max(initial=0))
    chunks = max(1, -(-len(str(top)) // 4))
    signed = bool(negative.any())
    words = np.zeros((count, signed + chunks + bool(suffix)), dtype=np.uint32)
    if signed:
        words[:, 0] = np.where(negative, _MINUS_WORD, 0)
    rest = magnitudes
    for column in range(signed + chunks - 1, signed - 1, -1):
        rest, low = np.divmod(rest, _CHUNK)
        words[:, column] = _CHUNK_WORDS[low.astype(np.intp) + 10_000 * (rest > 0)]
    words[magnitudes == 0, signed + chunks - 1] = _ZERO_WORD
    if suffix:
        words[:, -1] = _words([suffix])[0]
    return words.view(np.uint8)


def _number_tokens(values: np.ndarray, tail: str = "") -> _Tokens:
    """The JSON tokens of a 1-D integer or float array, one row per value,
    each followed by ``tail`` (at most two bytes)."""
    if values.dtype.kind in "iu":
        magnitudes = values.astype(np.uint64)
        negative = values < 0
        # Two's complement: -v as uint64, exact for the int64 minimum too.
        np.negative(magnitudes, out=magnitudes, where=negative)
        return _Tokens(_digit_matrix(magnitudes, negative, tail), {})
    values = values.astype(np.float64, copy=False)
    magnitudes = np.abs(values)
    fixed = (magnitudes < _FIXED_LIMIT) & (np.trunc(values) == values)
    matrix = _digit_matrix(
        np.where(fixed, magnitudes, 0.0).astype(np.uint64),
        np.signbit(values),
        ".0" + tail,
    )
    rows = np.flatnonzero(~fixed)
    spliced: dict[int, bytes] = {}
    if len(rows):
        matrix[rows] = 0
        # json's own float tokens (repr, NaN, Infinity), which hold no comma.
        tokens = _json(values[rows].tolist())[1:-1].split(b",")
        suffix = tail.encode("ascii")
        spliced = {row: token + suffix for row, token in zip(rows.tolist(), tokens)}
    return _Tokens(matrix, spliced)


def _literal(text: str, count: int) -> np.ndarray:
    """``text`` repeated on ``count`` rows, as a byte matrix."""
    row = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    return np.broadcast_to(row, (count, len(row)))


def _join_rows(parts: Sequence["str | _Tokens"], count: int) -> bytes:
    """Row by row, the concatenation of ``parts``' bytes, NUL padding dropped.

    Each part is a literal (the same on every row) or a token column; a
    token that :mod:`json` wrote is spliced in where its column's slot sits
    on its row.
    """
    if count == 0:
        return b""
    blocks = []
    slots = []  # (column of the slot's first byte, spliced tokens)
    width = 0
    for part in parts:
        block = _literal(part, count) if isinstance(part, str) else part.matrix
        if not isinstance(part, str) and part.spliced:
            slots.append((width, part.spliced))
        blocks.append(block)
        width += block.shape[1]
    matrix = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)
    keep = matrix != 0
    packed = matrix[keep].tobytes()
    if not slots:
        return packed
    lengths = np.count_nonzero(keep, axis=1)
    starts = np.cumsum(lengths) - lengths
    inserts = []
    for column, spliced in slots:
        rows = np.fromiter(spliced, dtype=np.int64, count=len(spliced))
        offsets = starts[rows] + np.count_nonzero(keep[rows, :column], axis=1)
        inserts.extend(zip(offsets.tolist(), [column] * len(rows), spliced.values()))
    inserts.sort(key=lambda insert: insert[:2])
    view = memoryview(packed)
    pieces = []
    previous = 0
    for offset, _, token in inserts:
        pieces.append(view[previous:offset])
        pieces.append(token)
        previous = offset
    pieces.append(view[previous:])
    return b"".join(pieces)


def _array_json(values: np.ndarray) -> bytes:
    """A 1-D number array as a JSON array."""
    count = len(values)
    return b"[" + _join_rows([_number_tokens(values, ",")], count)[:-1] + b"]"


def interval_columns_json(columns: Mapping[str, Any]) -> bytes:
    """Canonical JSON of a columnar interval payload, arrays as JSON arrays.

    Equals ``json.dumps`` of the payload with every array ``.tolist()``-ed,
    sorted keys and ``(",", ":")`` separators, byte for byte.
    """
    fields = columns["member_fields"]
    return b"".join(
        [
            b'{"interval":', _json(columns["interval"]),
            b',"interval_start":', _json(columns["interval_start"]),
            b',"member_asns":', _array_json(columns["member_asns"]),
            b',"member_fields":{',
            b",".join(_json(name) + b":" + _array_json(fields[name]) for name in sorted(fields)),
            b'},"rule_stats":', _json(columns["rule_stats"]),
            b',"totals":', _json(columns["totals"]),
            b"}",
        ]
    )


def report_json(columns: Mapping[str, Any]) -> bytes:
    """Canonical JSON of a report's ``to_dict()`` layout, from its columns.

    The totals sit at the top level beside ``interval``,
    ``interval_start`` and ``"members"``: one object per member, keyed by
    its ASN as a string (in string order), holding each member field and
    the member's ``rule_stats`` (``{}`` when it has none).  ``member_asns``
    is ascending, as :meth:`~repro.ixp.fabric.FabricIntervalReport.to_columns`
    and :func:`~repro.ixp.shard.merge_interval_columns` give it.
    """
    asns = columns["member_asns"]
    count = len(asns)
    # json.dumps sorts the member keys as strings ("1000" < "999").
    order = np.argsort(asns.astype(str), kind="stable")
    rank = np.empty(count, dtype=np.int64)
    rank[order] = np.arange(count)
    rule_stats = {}
    for key, stats in columns["rule_stats"].items():
        row = int(np.searchsorted(asns, int(key)))
        if row < count and asns[row] == int(key) and stats:
            rule_stats[int(rank[row])] = _json(stats)
    fields = columns["member_fields"]
    member_keys = sorted([*fields, "rule_stats"])
    parts: list[str | _Tokens] = ['"', _number_tokens(asns[order]), '":']
    separator = "{"
    for name in member_keys:
        parts.append(f"{separator}{json.dumps(name)}:")
        if name == "rule_stats":
            empty = _literal("{}", count).copy()
            empty[list(rule_stats)] = 0
            parts.append(_Tokens(empty, rule_stats))
        else:
            parts.append(_number_tokens(fields[name][order]))
        separator = ","
    parts.append("},")
    totals = columns["totals"]
    top = {
        **{key: _json(value) for key, value in totals.items()},
        "interval": _json(columns["interval"]),
        "interval_start": _json(columns["interval_start"]),
        "members": b"{" + _join_rows(parts, count)[:-1] + b"}",
    }
    return (
        b"{"
        + b",".join(_json(key) + b":" + top[key] for key in sorted(top))
        + b"}"
    )
