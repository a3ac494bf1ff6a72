"""The network tier: wire protocol, socket server, client driver, cluster routing.

Layers (bottom up):

- :mod:`repro.net.protocol` — length-prefixed, versioned frames (a
  JSON header, answers as typed columns) plus query/result
  serialization shared by both sides of the wire;
- :mod:`repro.net.cluster` — :class:`ClusterFrontEnd` routes reads
  (primary via the serving gate, or bounded-staleness replicas) and
  writes (gate-admitted, idempotency-keyed, semi-sync acked) over a
  replicated fleet, surviving failover with a WAL-rebuilt dedup table;
- :mod:`repro.net.server` — :class:`NetServer`, a threaded socket
  server giving remote sessions the exact same admission/deadline/
  honesty contracts as in-process callers;
- :mod:`repro.net.client` — :class:`PMVClient`, a pooled retrying
  driver whose DML idempotency keys make retry-after-drop safe.
"""

from repro.net.client import PMVClient, RemoteAnswer, RetryPolicy
from repro.net.cluster import ClusterFrontEnd, IdempotencyTable
from repro.net.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    decode_query,
    encode_query,
    encode_result,
    recv_frame,
    send_frame,
)
from repro.net.server import NetServer

__all__ = [
    "PMVClient",
    "RemoteAnswer",
    "RetryPolicy",
    "ClusterFrontEnd",
    "IdempotencyTable",
    "NetServer",
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "encode_query",
    "decode_query",
    "encode_result",
    "send_frame",
    "recv_frame",
]
