"""The wire protocol: length-prefixed, versioned frames that carry an
answer's rows as one block of typed columns.

One frame is::

    4 bytes   big-endian unsigned payload length (everything below)
    1 byte    protocol version (:data:`PROTOCOL_VERSION`)
    4 bytes   little-endian unsigned header length H
    H bytes   UTF-8 JSON header: the message's scalars
    the rest  the column block, present only when the message carries "rows"

Requests carry ``{"id": <int>, "op": <str>, ...}``; responses echo the
request ``id`` and carry ``{"ok": <bool>, ...}``.  The length prefix
frames the byte stream, and the version byte lets either end refuse a
frame from another protocol before parsing anything.

A message with a top-level ``"rows"`` (a result envelope) sends its
header with ``"rows"`` set to the row count, followed by the column
block: a u32 column count, then per select-list column a 1-byte tag, a
u32 byte size and the column's bytes (all little-endian):

- ``int64`` — ``array('q')``;
- ``float64`` — ``array('d')``, so ``17.0``, ``-0.0`` and ``inf`` stay
  floats;
- ``text`` — the values UTF-8 encoded and NUL-joined;
- ``text_sized`` — for text holding NUL: one u32 byte length per value,
  then the UTF-8 bytes;
- ``json`` — the exact fallback, a JSON list, for a column holding
  ``None``, ``bool``, an int outside 64 bits or mixed types.

The receiver rebuilds ``"rows"`` as a list of tuples.  Every size in
the block is checked against the row count and the frame before it is
read, so damaged or hostile bytes raise :class:`NetProtocolError`.

Query serialization mirrors the template/bind model exactly: a query
is its template's name plus one condition per slot, so the server
rebinds through :meth:`~repro.engine.template.QueryTemplate.bind` and
gets all of bind's validation for free.  Unbounded interval endpoints
(the :data:`~repro.engine.datatypes.MINUS_INFINITY` /
:data:`~repro.engine.datatypes.PLUS_INFINITY` sentinels) are encoded
as the JSON strings ``"-inf"`` / ``"+inf"`` under a marker key, since
JSON has no infinity.
"""

from __future__ import annotations

import json
import socket
import struct
import sys
from array import array
from typing import Any

from repro.engine.datatypes import Infinity, MINUS_INFINITY, PLUS_INFINITY
from repro.engine.predicate import (
    EqualityDisjunction,
    Interval,
    IntervalDisjunction,
)
from repro.errors import NetProtocolError

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "encode_frame",
    "send_frame",
    "recv_frame",
    "encode_query",
    "decode_query",
    "encode_result",
]

#: v3 carries an answer's rows as typed columns after a JSON header
#: (v2 added the session monotonic-read token: queries may carry
#: ``min_lsn``/``token_epoch`` and responses stamp the serving
#: ``epoch``).  It is the only version either end speaks: a frame
#: stamped with any other is refused.
PROTOCOL_VERSION = 3

#: Upper bound on one frame's payload — a corrupted or hostile length
#: prefix must not make the server allocate gigabytes.
MAX_FRAME_BYTES = 8 * 1024 * 1024

_LENGTH = struct.Struct(">I")
_U32 = struct.Struct("<I")
_COLUMN = struct.Struct("<BI")  # tag, byte size

_INT64, _FLOAT64, _TEXT, _TEXT_SIZED, _JSON = 1, 2, 3, 4, 5
_ARRAY_CODES = {_INT64: "q", _FLOAT64: "d"}
_SWAP = sys.byteorder == "big"  # the wire is little-endian


# -- framing -----------------------------------------------------------------


def _encode_columns(rows: list) -> bytes:
    """The column block for ``rows``, a list of equal-width sequences."""
    if len(set(map(len, rows))) > 1:
        raise NetProtocolError("rows of unequal width")
    columns = list(zip(*rows))
    if rows and not columns:
        raise NetProtocolError("rows have no columns")
    parts = [_U32.pack(len(columns))]
    for column in columns:
        kinds = set(map(type, column))
        tag = _JSON
        if kinds == {int} or kinds == {float}:
            tag = _INT64 if int in kinds else _FLOAT64
            try:
                values = array(_ARRAY_CODES[tag], column)
            except OverflowError:  # an int beyond 64 bits
                tag = _JSON
            else:
                if _SWAP:
                    values.byteswap()
                data = values.tobytes()
        elif kinds == {str}:
            joined = "\0".join(column)
            try:
                if joined.count("\0") == len(column) - 1:
                    tag, data = _TEXT, joined.encode("utf-8")
                else:
                    encoded = [value.encode("utf-8") for value in column]
                    sizes = struct.pack(f"<{len(encoded)}I", *map(len, encoded))
                    tag, data = _TEXT_SIZED, sizes + b"".join(encoded)
            except UnicodeEncodeError:
                pass  # a lone surrogate: JSON escapes it
        if tag == _JSON:
            data = json.dumps(column, separators=(",", ":")).encode("utf-8")
        parts.append(_COLUMN.pack(tag, len(data)))
        parts.append(data)
    return b"".join(parts)


def encode_frame(message: dict[str, Any]) -> bytes:
    block = b""
    if "rows" in message:
        block = _encode_columns(message["rows"])
        message = dict(message, rows=len(message["rows"]))
    header = json.dumps(message, separators=(",", ":")).encode("utf-8")
    payload = b"".join(
        (bytes([PROTOCOL_VERSION]), _U32.pack(len(header)), header, block)
    )
    if len(payload) > MAX_FRAME_BYTES:
        raise NetProtocolError(f"frame of {len(payload)} bytes exceeds the cap")
    return _LENGTH.pack(len(payload)) + payload


def send_frame(sock: socket.socket, message: dict[str, Any]) -> None:
    sock.sendall(encode_frame(message))


def _recv_exactly(sock: socket.socket, count: int) -> bytes | None:
    """Read exactly ``count`` bytes, or None on a clean EOF at a frame
    boundary.  EOF mid-frame is a protocol error: the peer died talking."""
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if chunks:
                raise NetProtocolError(
                    f"connection closed mid-frame ({count - remaining} of "
                    f"{count} bytes read)"
                )
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _decode_columns(payload: bytes, offset: int, count: Any) -> list[tuple]:
    """The rows of the column block at ``payload[offset:]``: ``count``
    rows, every size checked against it and the frame before reading."""
    if type(count) is not int or count < 0:
        raise NetProtocolError(f"invalid row count {count!r}")
    end = len(payload)
    if end - offset < _U32.size:
        raise NetProtocolError("column block cut off before its column count")
    (width,) = _U32.unpack_from(payload, offset)
    offset += _U32.size
    if (width == 0) != (count == 0) or width > (end - offset) // _COLUMN.size:
        raise NetProtocolError(f"{width} columns cannot hold {count} rows here")
    columns: list = []
    for _ in range(width):
        if end - offset < _COLUMN.size:
            raise NetProtocolError("column block cut off before a column")
        tag, size = _COLUMN.unpack_from(payload, offset)
        offset += _COLUMN.size
        if size > end - offset:
            raise NetProtocolError(f"column of {size} bytes overruns the frame")
        data = payload[offset : offset + size]
        offset += size
        try:
            if tag in _ARRAY_CODES:
                if size != 8 * count:
                    raise NetProtocolError(
                        f"{size}-byte column cannot hold {count} 8-byte values"
                    )
                column = array(_ARRAY_CODES[tag])
                column.frombytes(data)
                if _SWAP:
                    column.byteswap()
            elif tag == _TEXT:
                column = data.decode("utf-8").split("\0")
            elif tag == _TEXT_SIZED:
                if size < 4 * count:
                    raise NetProtocolError(f"{size}-byte text column lacks its sizes")
                sizes = struct.unpack_from(f"<{count}I", data)
                if sum(sizes) != size - 4 * count:
                    raise NetProtocolError("text sizes do not add up to the column")
                column, at = [], 4 * count
                for item in sizes:
                    column.append(data[at : at + item].decode("utf-8"))
                    at += item
            elif tag == _JSON:
                column = json.loads(data.decode("utf-8"))
                if not isinstance(column, list):
                    raise NetProtocolError("json column is not a list")
            else:
                raise NetProtocolError(f"unknown column tag {tag}")
        except (ValueError, RecursionError) as exc:
            raise NetProtocolError(f"unparseable column: {exc}") from exc
        if len(column) != count:
            raise NetProtocolError(f"column of {len(column)} values, not {count}")
        columns.append(column)
    if offset != end:
        raise NetProtocolError(f"{end - offset} bytes trail the column block")
    return list(zip(*columns))


def recv_frame(sock: socket.socket) -> dict[str, Any] | None:
    """Read one frame; returns None on clean EOF before a frame starts."""
    prefix = _recv_exactly(sock, _LENGTH.size)
    if prefix is None:
        return None
    (length,) = _LENGTH.unpack(prefix)
    if length == 0 or length > MAX_FRAME_BYTES:
        raise NetProtocolError(f"invalid frame length {length}")
    payload = _recv_exactly(sock, length)
    if payload is None:
        raise NetProtocolError("connection closed between header and payload")
    if payload[0] != PROTOCOL_VERSION:
        raise NetProtocolError(
            f"unsupported protocol version {payload[0]} "
            f"(this end speaks {PROTOCOL_VERSION})"
        )
    if length < 1 + _U32.size:
        raise NetProtocolError(f"unparseable frame: {length} bytes hold no header")
    (header_length,) = _U32.unpack_from(payload, 1)
    body = 1 + _U32.size + header_length
    if body > length:
        raise NetProtocolError(
            f"unparseable frame: a {header_length}-byte header in {length} bytes"
        )
    try:
        message = json.loads(payload[1 + _U32.size : body].decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise NetProtocolError(f"unparseable frame header: {exc}") from exc
    if not isinstance(message, dict):
        raise NetProtocolError("frame header must be a JSON object")
    if "rows" in message:
        message["rows"] = _decode_columns(payload, body, message["rows"])
    elif body != length:
        raise NetProtocolError(f"{length - body} bytes trail a header without rows")
    return message


# -- query serialization -----------------------------------------------------

_NEG_INF = {"inf": "-"}
_POS_INF = {"inf": "+"}


def _encode_bound(value: Any) -> Any:
    if isinstance(value, Infinity):
        return _NEG_INF if value.sign < 0 else _POS_INF
    return value


def _decode_bound(value: Any) -> Any:
    if isinstance(value, dict) and "inf" in value:
        return MINUS_INFINITY if value["inf"] == "-" else PLUS_INFINITY
    return value


def encode_query(query) -> dict[str, Any]:
    """A bound query as a wire payload: template name + per-slot conditions."""
    conditions = []
    for condition in query.cselect.conditions:
        if isinstance(condition, EqualityDisjunction):
            conditions.append(
                {"column": condition.column, "values": list(condition.values)}
            )
        elif isinstance(condition, IntervalDisjunction):
            conditions.append(
                {
                    "column": condition.column,
                    "intervals": [
                        [
                            _encode_bound(iv.low),
                            _encode_bound(iv.high),
                            iv.low_inclusive,
                            iv.high_inclusive,
                        ]
                        for iv in condition.intervals
                    ],
                }
            )
        else:  # pragma: no cover - the condition taxonomy is closed
            raise NetProtocolError(
                f"cannot serialize condition type {type(condition).__name__}"
            )
    return {"template": query.template.name, "conditions": conditions}


def decode_query(catalog, payload: dict[str, Any]):
    """Rebind a wire payload into a concrete query against ``catalog``.

    Bind-time validation (slot count, column/form matching) applies
    unchanged, so malformed remote queries fail exactly like malformed
    local ones — with a :class:`~repro.errors.ConditionError`.
    """
    try:
        template = catalog.template(payload["template"])
    except KeyError as exc:  # defensive: catalog raises CatalogError itself
        raise NetProtocolError(f"unknown template {payload['template']!r}") from exc
    conditions = []
    for entry in payload.get("conditions", ()):
        if "values" in entry:
            conditions.append(EqualityDisjunction(entry["column"], entry["values"]))
        elif "intervals" in entry:
            conditions.append(
                IntervalDisjunction(
                    entry["column"],
                    [
                        Interval(
                            _decode_bound(low),
                            _decode_bound(high),
                            bool(low_inc),
                            bool(high_inc),
                        )
                        for low, high, low_inc, high_inc in entry["intervals"]
                    ],
                )
            )
        else:
            raise NetProtocolError(
                f"condition on {entry.get('column')!r} has neither values "
                f"nor intervals"
            )
    return template.bind(conditions)


# -- result serialization ----------------------------------------------------


def encode_result(
    result,
    served_by: str | None = None,
    replica_lag: int | None = None,
    epoch: int | None = None,
    applied_lsn: int | None = None,
) -> dict[str, Any]:
    """A :class:`~repro.core.executor.PMVQueryResult` as a response
    envelope: the user-visible value tuples in delivery order (the
    frame sends them as typed columns; no Row is built for the wire)
    plus the full honesty surface (complete / degraded_reason / staleness /
    applied_lsn), the serving node's identity for routed reads, and
    (v2) the serving epoch that scopes the client's monotonic-read
    token."""
    envelope: dict[str, Any] = {
        "ok": True,
        "columns": list(result.query.template.select_list),
        "rows": result.user_values(),
        "complete": result.complete,
        "degraded_reason": result.degraded_reason,
        "completeness_estimate": result.completeness_estimate,
        "staleness": result.staleness,
        "applied_lsn": result.applied_lsn,
    }
    if served_by is not None:
        envelope["served_by"] = served_by
    if replica_lag is not None:
        envelope["replica_lag"] = replica_lag
    if epoch is not None:
        envelope["epoch"] = epoch
    if applied_lsn is not None:
        # The routing tier's serving-watermark stamp (the node's applied
        # LSN when the view itself carries none) wins over the raw
        # result field — it is what the session token ratchets on.
        envelope["applied_lsn"] = applied_lsn
    return envelope
