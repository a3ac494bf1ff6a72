"""The wire protocol: length-prefixed, versioned JSON frames.

One frame is::

    4 bytes   big-endian unsigned payload length (version byte + body)
    1 byte    protocol version (:data:`PROTOCOL_VERSION`)
    N bytes   UTF-8 JSON body

Requests carry ``{"id": <int>, "op": <str>, ...}``; responses echo the
request ``id`` and carry ``{"ok": <bool>, ...}``.  The body stays JSON
(not a binary row format) because every value the engine serves is a
JSON scalar already — the length prefix is what matters for framing
over a stream socket, and the version byte is what lets the server
reject a client from a future protocol before parsing anything.

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

#: v2 added the session monotonic-read token: queries may carry
#: ``min_lsn``/``token_epoch`` and responses stamp the serving
#: ``epoch``, so a client session never observes a database state older
#: than one it already saw (within an epoch).  It is the only version
#: either end speaks: a frame stamped with any other is refused.
PROTOCOL_VERSION = 2

#: Upper bound on one frame's payload — a corrupted or hostile length
#: prefix must not make the server allocate gigabytes.
MAX_FRAME_BYTES = 8 * 1024 * 1024

_LENGTH = struct.Struct(">I")


# -- framing -----------------------------------------------------------------


def encode_frame(message: dict[str, Any]) -> bytes:
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    payload = bytes([PROTOCOL_VERSION]) + body
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


def recv_frame(sock: socket.socket) -> dict[str, Any] | None:
    """Read one frame; returns None on clean EOF before a frame starts."""
    header = _recv_exactly(sock, _LENGTH.size)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
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
    try:
        message = json.loads(payload[1:].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise NetProtocolError(f"unparseable frame body: {exc}") from exc
    if not isinstance(message, dict):
        raise NetProtocolError("frame body must be a JSON object")
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
    envelope: the user-visible value tuples in delivery order (JSON
    writes each as an array; no Row is built for the wire) plus the
    full honesty surface (complete / degraded_reason / staleness /
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
