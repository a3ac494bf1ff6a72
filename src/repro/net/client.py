"""The client driver: pooled connections, retries, idempotency keys.

:class:`PMVClient` is the remote counterpart of calling the serving
gate directly.  Its retry discipline follows the classic split:

- **queries / stats / ping** are idempotent by nature — retried
  automatically on connection failure with exponential backoff;
- **DML** is *made* idempotent by stamping each statement with
  ``client_id:seq`` before the first send.  The server dedups on the
  key (and rebuilds its table from the WAL across failovers), so a
  retry after a dropped connection — including the poisonous
  applied-but-unacknowledged case — is applied at most once.  The
  driver therefore retries DML exactly as freely as reads.
- **retryable server errors** (fenced deposed primary, replication
  hiccups, lease-isolated nodes, unacknowledged semi-sync writes)
  retry the same way; sheds (``shed: true``) surface as
  :class:`~repro.errors.OverloadError` by default — backpressure is the
  caller's policy decision, not the driver's.

Backoff uses *seeded full jitter*: after a partition heals, every
client that queued up behind it wakes at a different moment instead of
hammering the server in lockstep.  The jitter stream is seeded from
the client id, so a replayed run produces the identical retry
schedule.

Each client is also a *session* for monotonic reads: it remembers the
highest ``applied_lsn`` it has observed (per serving epoch) and stamps
it into every query as a ``min_lsn`` token, so a later read routed to
a lagging replica can never show an older database state than one this
session already saw.  The token is epoch-scoped — a failover starts a
fresh timeline and resets it (acked-write durability across failovers
is the replication layer's separate guarantee).

Connections are pooled per client; a connection that errors is closed
and replaced rather than returned to the pool.
"""

from __future__ import annotations

import itertools
import random
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import (
    NetError,
    NetProtocolError,
    NetTimeoutError,
    OverloadError,
    RetryExhaustedError,
)
from repro.net import protocol

__all__ = ["PMVClient", "RetryPolicy", "RemoteAnswer"]


BACKOFF_FACTOR = 2.0
MAX_DELAY = 0.5


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with full jitter and a bounded budget: each
    delay is a uniform draw from ``[0, ceiling]``, the ceiling being
    ``min(MAX_DELAY, base_delay * BACKOFF_FACTOR**attempt)``."""

    attempts: int = 5
    base_delay: float = 0.02

    def delay(self, attempt: int, rng: random.Random) -> float:
        ceiling = min(MAX_DELAY, self.base_delay * BACKOFF_FACTOR**attempt)
        return rng.random() * ceiling


@dataclass
class RemoteAnswer:
    """A query answer as the wire delivered it.

    The full honesty surface survives the network hop: ``complete``,
    ``degraded_reason``, the CDC ``staleness`` stamp, the serving
    node's identity and replica lag for routed reads.
    """

    columns: list[str]
    rows: list[tuple]
    complete: bool
    degraded_reason: str | None = None
    completeness_estimate: float | None = None
    staleness: int | None = None
    applied_lsn: int | None = None
    served_by: str | None = None
    replica_lag: int | None = None
    epoch: int | None = None


@dataclass
class _WriteAck:
    """A DML acknowledgement.

    ``deleted`` is a ``delete_eq``'s row count.  It is ``None`` on an
    insert, and on a ``duplicate`` reply: the server answered a retry
    from its dedup table without re-running the statement, so the
    count is unknown (the first reply, which carried it, was lost).
    """

    lsn: int
    duplicate: bool
    deleted: int | None = None
    epoch: int | None = None
    served_by: str | None = None


class _Connection:
    """One framed socket with a per-connection request-id counter."""

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._next_id = itertools.count(1)
        self.hello_sent = False

    def request(self, message: dict[str, Any]) -> dict[str, Any]:
        request_id = next(self._next_id)
        message = dict(message, id=request_id)
        protocol.send_frame(self.sock, message)
        response = protocol.recv_frame(self.sock)
        if response is None:
            raise NetProtocolError("connection closed before the response")
        if response.get("id") != request_id:
            raise NetProtocolError(
                f"response id {response.get('id')} != request id {request_id}"
            )
        return response

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class PMVClient:
    """A pooled, retrying client for one server endpoint."""

    def __init__(
        self,
        host: str,
        port: int,
        client_id: str,
        pool_size: int = 2,
        retry: RetryPolicy | None = None,
        connect_timeout: float = 5.0,
        socket_timeout: float = 30.0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if not client_id or ":" in client_id:
            raise NetError("client_id must be non-empty and contain no ':'")
        self.host = host
        self.port = port
        self.client_id = client_id
        self.pool_size = pool_size
        self.retry = retry or RetryPolicy()
        self.connect_timeout = connect_timeout
        self.socket_timeout = socket_timeout
        self._sleep = sleep
        # Seeded from the client id: jittered backoff is deterministic
        # per client per run, so a failed nemesis seed replays with the
        # identical retry schedule.
        self._retry_rng = random.Random(f"retry:{client_id}")
        self._pool: list[_Connection] = []
        self._pool_mutex = threading.Lock()
        self._seq_mutex = threading.Lock()
        self._next_seq = 0
        # The session monotonic-read token: highest applied_lsn this
        # client has observed, scoped to the serving epoch it saw it in.
        self._token_mutex = threading.Lock()
        self._session_epoch: int | None = None
        self._session_lsn = 0
        self.retries = 0
        self.reconnects = 0
        self.timeouts = 0

    # -- pool ------------------------------------------------------------------

    def _checkout(self) -> _Connection:
        with self._pool_mutex:
            if self._pool:
                return self._pool.pop()
        conn = _Connection(self.host, self.port, self.connect_timeout)
        conn.sock.settimeout(self.socket_timeout)
        self.reconnects += 1
        return conn

    def _checkin(self, conn: _Connection) -> None:
        with self._pool_mutex:
            if len(self._pool) < self.pool_size:
                self._pool.append(conn)
                return
        conn.close()

    def close(self) -> None:
        with self._pool_mutex:
            pool, self._pool = self._pool, []
        for conn in pool:
            conn.close()

    # -- the request core ------------------------------------------------------

    def _next_idem_seq(self) -> int:
        with self._seq_mutex:
            self._next_seq += 1
            return self._next_seq

    def _request(self, message: dict[str, Any]) -> dict[str, Any]:
        """Send one request with retry-with-backoff.

        Queries are idempotent; DML messages carry a ``seq`` assigned
        *before* the first attempt, so every retry presents the same
        idempotency key — the server's dedup makes the retry safe.
        Connection-level failures and retryable server errors back off
        and retry; sheds raise :class:`~repro.errors.OverloadError`;
        non-retryable server errors raise :class:`~repro.errors.NetError`.
        """
        last: BaseException | None = None
        for attempt in range(self.retry.attempts):
            if attempt:
                self.retries += 1
                self._sleep(self.retry.delay(attempt - 1, self._retry_rng))
            try:
                conn = self._checkout()
                try:
                    if not conn.hello_sent:
                        hello = conn.request(
                            {"op": "hello", "client_id": self.client_id}
                        )
                        if not hello.get("ok"):
                            raise NetError(f"hello rejected: {hello.get('error')}")
                        conn.hello_sent = True
                    response = conn.request(message)
                except BaseException:
                    conn.close()
                    raise
                self._checkin(conn)
            except socket.timeout as exc:
                # Typed and retryable: the request is in doubt, but
                # queries are idempotent and DML carries its key.
                self.timeouts += 1
                wrapped = NetTimeoutError(
                    f"socket timed out after {self.socket_timeout}s: {exc}"
                )
                wrapped.__cause__ = exc
                last = wrapped
                continue
            except (OSError, NetProtocolError) as exc:
                last = exc
                continue
            if response.get("ok"):
                return response
            if response.get("shed"):
                raise OverloadError(
                    str(response.get("error")), reason=str(response.get("reason", ""))
                )
            if response.get("retryable"):
                last = NetError(
                    f"{response.get('error_type')}: {response.get('error')}"
                )
                continue
            raise NetError(f"{response.get('error_type')}: {response.get('error')}")
        raise RetryExhaustedError(
            f"gave up after {self.retry.attempts} attempts: {last}",
            attempts=self.retry.attempts,
            cause=last,
        ) from last

    # -- the session monotonic-read token --------------------------------------

    def session_token(self) -> tuple[int | None, int]:
        """The session's ``(epoch, min_lsn)`` monotonic-read token."""
        with self._token_mutex:
            return self._session_epoch, self._session_lsn

    def _observe_stamp(self, epoch: int | None, lsn: int | None) -> None:
        """Advance the session token from a response's stamps.

        A new epoch resets the token: a failover truncated the unacked
        suffix and started a fresh timeline, so an old-epoch LSN floor
        would be unsatisfiable (and meaningless) against the new one.
        Within an epoch the token only ratchets upward.
        """
        if epoch is None:
            return
        with self._token_mutex:
            if epoch != self._session_epoch:
                self._session_epoch = epoch
                self._session_lsn = 0
            if lsn is not None:
                self._session_lsn = max(self._session_lsn, int(lsn))

    # -- public API ------------------------------------------------------------

    def ping(self) -> dict[str, Any]:
        return self._request({"op": "ping"})

    def stats(self) -> dict[str, Any]:
        return self._request({"op": "stats"})["stats"]

    def query(
        self,
        query,
        budget: float | None = None,
        staleness_bound: int | None = None,
        prefer_replica: bool = False,
    ) -> RemoteAnswer:
        """Run a bound query remotely; ``query`` is a
        :class:`~repro.engine.template.Query` (serialized through the
        shared protocol module) or an already-encoded payload dict."""
        payload = query if isinstance(query, dict) else protocol.encode_query(query)
        message: dict[str, Any] = {"op": "query", "query": payload}
        if budget is not None:
            message["budget"] = budget
        if staleness_bound is not None:
            message["staleness_bound"] = staleness_bound
        if prefer_replica:
            message["prefer_replica"] = True
        token_epoch, min_lsn = self.session_token()
        if token_epoch is not None:
            message["token_epoch"] = token_epoch
            message["min_lsn"] = min_lsn
        response = self._request(message)
        self._observe_stamp(response.get("epoch"), response.get("applied_lsn"))
        return RemoteAnswer(
            columns=list(response.get("columns", ())),
            rows=response.get("rows", []),
            complete=bool(response.get("complete", True)),
            degraded_reason=response.get("degraded_reason"),
            completeness_estimate=response.get("completeness_estimate"),
            staleness=response.get("staleness"),
            applied_lsn=response.get("applied_lsn"),
            served_by=response.get("served_by"),
            replica_lag=response.get("replica_lag"),
            epoch=response.get("epoch"),
        )

    def insert(
        self, relation: str, values: list, budget: float | None = None
    ) -> _WriteAck:
        message: dict[str, Any] = {
            "op": "insert",
            "relation": relation,
            "values": list(values),
            "seq": self._next_idem_seq(),
        }
        if budget is not None:
            message["budget"] = budget
        response = self._request(message)
        self._observe_stamp(response.get("epoch"), response.get("lsn"))
        return _WriteAck(
            lsn=int(response["lsn"]),
            duplicate=bool(response.get("duplicate")),
            epoch=response.get("epoch"),
            served_by=response.get("served_by"),
        )

    def delete_eq(
        self, relation: str, column: str, value, budget: float | None = None
    ) -> _WriteAck:
        message: dict[str, Any] = {
            "op": "delete_eq",
            "relation": relation,
            "column": column,
            "value": value,
            "seq": self._next_idem_seq(),
        }
        if budget is not None:
            message["budget"] = budget
        response = self._request(message)
        self._observe_stamp(response.get("epoch"), response.get("lsn"))
        return _WriteAck(
            lsn=int(response["lsn"]),
            duplicate=bool(response.get("duplicate")),
            deleted=response.get("deleted"),
            epoch=response.get("epoch"),
            served_by=response.get("served_by"),
        )
