"""The socket server: remote sessions through the serving gate.

A :class:`NetServer` accepts TCP connections and runs one auth-less
session per connection on a daemon thread.  Every request flows
through the same machinery in-process callers use — queries through
:meth:`~repro.qos.gate.ServingGate.execute` (admission, deadline,
governor), DML through :meth:`~repro.qos.gate.ServingGate.admit_write`
plus the :class:`~repro.net.cluster.ClusterFrontEnd`'s at-most-once
path — so a remote client cannot bypass overload protection or the
freshness/honesty contracts.

Deadline propagation: the client sends a relative ``budget`` in
seconds with each request; the server turns it into a
:class:`~repro.qos.deadline.Deadline` *at receipt*, so queue time and
execution share one budget exactly as the QoS layer intends.

Ops
---
``hello``      bind the session's ``client_id`` (required before DML)
``query``      a serialized template query; returns the row envelope
``insert``     one row; ``seq`` + the session's client_id form the key
``delete_eq``  delete rows where column == value, found by an index
               probe when ``column`` has an index (idempotent by
               predicate, still keyed for retry dedup); ``deleted`` is
               the row count, or ``None`` when the reply is a
               duplicate: the retried statement is not re-run
``stats``      gate + net + cluster counters
``ping``       liveness

The ``drop_before_respond`` hook (tests/bench only) closes the
connection after applying a request but before responding — the exact
window the idempotency-key machinery exists for.
"""

from __future__ import annotations

import socket
import threading
from typing import Any, Callable

from repro.errors import NetProtocolError, ReproError
from repro.net import protocol
from repro.net.cluster import ClusterFrontEnd, classify_error
from repro.qos.deadline import Deadline

__all__ = ["NetServer"]


def _sever(sock: socket.socket) -> None:
    """Shut ``sock`` down, then close it.  close() alone does not wake a
    thread blocked in accept() or recv() on it (Linux keeps the socket
    open until that call returns), so a stopped listener would keep its
    port and an idle session thread would stay parked until its peer
    sent or hung up.  shutdown() does: accept() fails with OSError and
    recv() sees end of stream."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # already closed, or the peer is gone
    try:
        sock.close()
    except OSError:
        pass


class _Session:
    """Per-connection state: identity for idempotency keys."""

    __slots__ = ("client_id",)

    def __init__(self) -> None:
        self.client_id: str | None = None


class NetServer:
    """Threaded socket server fronting a :class:`ClusterFrontEnd`."""

    def __init__(
        self,
        front_end: ClusterFrontEnd,
        host: str = "127.0.0.1",
        port: int = 0,
        drop_before_respond: Callable[[str, dict], bool] | None = None,
        refuse_connections: Callable[[], bool] | None = None,
    ) -> None:
        self.front_end = front_end
        self.metrics = front_end.metrics
        self._host = host
        self._port = port
        self._sock: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._stopping = threading.Event()
        self._conns: set[socket.socket] = set()
        self._conns_mutex = threading.Lock()
        self.drop_before_respond = drop_before_respond
        # The client↔server partition seam: while this returns True,
        # new connections are closed immediately after accept (the
        # client sees a connection reset, i.e. an OSError it retries
        # with jittered backoff).  Pair with drop_connections() to also
        # sever the conversations already in flight.
        self.refuse_connections = refuse_connections

    # -- lifecycle -------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        if self._sock is None:
            raise ReproError("server not started")
        return self._sock.getsockname()[:2]

    def start(self) -> tuple[str, int]:
        """Bind, listen, and accept on a daemon thread; returns (host, port)."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self._host, self._port))
        sock.listen(64)
        self._sock = sock
        self._stopping.clear()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="pmv-net-accept", daemon=True
        )
        self._accept_thread.start()
        return self.address

    def stop(self) -> None:
        self._stopping.set()
        if self._sock is not None:
            _sever(self._sock)
        self.drop_connections()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
            self._accept_thread = None

    def drop_connections(self) -> int:
        """Sever every established connection (the partition nemesis
        cutting the client↔server link mid-conversation); the listener
        keeps running, so healing is just the refusal hook flipping
        back.  Returns how many connections were closed."""
        with self._conns_mutex:
            conns = list(self._conns)
        for conn in conns:
            _sever(conn)
        return len(conns)

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, _addr = self._sock.accept()
            except OSError:
                return  # closed by stop()
            if self.refuse_connections is not None and self.refuse_connections():
                self.metrics.record_connection_refused()
                try:
                    conn.close()
                except OSError:
                    pass
                continue
            with self._conns_mutex:
                self._conns.add(conn)
            self.metrics.record_connection(opened=True)
            threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="pmv-net-conn",
                daemon=True,
            ).start()

    # -- the per-connection loop ----------------------------------------------

    def _serve_connection(self, conn: socket.socket) -> None:
        session = _Session()
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while not self._stopping.is_set():
                try:
                    request = protocol.recv_frame(conn)
                except NetProtocolError:
                    return  # peer died or spoke garbage; drop the session
                except OSError:
                    return
                if request is None:
                    return  # clean EOF
                response = self._dispatch(session, request)
                response["id"] = request.get("id")
                if self.drop_before_respond is not None and self.drop_before_respond(
                    request.get("op", ""), request
                ):
                    return  # injected drop: applied, never acknowledged
                try:
                    protocol.send_frame(conn, response)
                except OSError:
                    return
        finally:
            with self._conns_mutex:
                self._conns.discard(conn)
            self.metrics.record_connection(opened=False)
            try:
                conn.close()
            except OSError:
                pass

    def _dispatch(self, session: _Session, request: dict[str, Any]) -> dict[str, Any]:
        op = str(request.get("op", ""))
        self.metrics.record_request(op)
        try:
            handler = getattr(self, f"_op_{op}", None)
            if handler is None:
                return {
                    "ok": False,
                    "error": f"unknown op {op!r}",
                    "error_type": "NetProtocolError",
                    "retryable": False,
                }
            return handler(session, request)
        except ReproError as exc:
            envelope = classify_error(exc)
            self.metrics.record_error(
                retryable=envelope.get("retryable", False),
                shed=envelope.get("shed", False),
            )
            return envelope
        except Exception as exc:  # never kill the session on a handler bug
            self.metrics.record_error()
            return {
                "ok": False,
                "error": f"{type(exc).__name__}: {exc}",
                "error_type": type(exc).__name__,
                "retryable": False,
            }

    # -- ops -------------------------------------------------------------------

    def _deadline(self, request: dict[str, Any]) -> Deadline | None:
        budget = request.get("budget")
        if budget is None:
            return None
        return Deadline.after(max(0.0, float(budget)))

    def _idem(self, session: _Session, request: dict[str, Any]) -> str | None:
        seq = request.get("seq")
        if seq is None:
            return None
        if session.client_id is None:
            raise NetProtocolError("DML with a seq requires hello(client_id) first")
        return f"{session.client_id}:{int(seq)}"

    def _op_hello(self, session: _Session, request: dict[str, Any]) -> dict[str, Any]:
        client_id = str(request.get("client_id", "")).strip()
        if not client_id or ":" in client_id:
            raise NetProtocolError("hello requires a client_id without ':'")
        session.client_id = client_id
        return {
            "ok": True,
            "protocol_version": protocol.PROTOCOL_VERSION,
            "epoch": self.front_end.epoch,
        }

    def _op_ping(self, session: _Session, request: dict[str, Any]) -> dict[str, Any]:
        return {"ok": True, "epoch": self.front_end.epoch}

    def _op_query(self, session: _Session, request: dict[str, Any]) -> dict[str, Any]:
        query = protocol.decode_query(
            self.front_end.database.catalog, request["query"]
        )
        min_lsn = request.get("min_lsn")
        token_epoch = request.get("token_epoch")
        routed = self.front_end.execute_query(
            query,
            deadline=self._deadline(request),
            staleness_bound=request.get("staleness_bound"),
            prefer_replica=bool(request.get("prefer_replica", False)),
            min_lsn=None if min_lsn is None else int(min_lsn),
            token_epoch=None if token_epoch is None else int(token_epoch),
        )
        return protocol.encode_result(
            routed["result"],
            served_by=routed["served_by"],
            replica_lag=routed["replica_lag"],
            epoch=routed.get("epoch"),
            applied_lsn=routed.get("applied_lsn"),
        )

    def _op_insert(self, session: _Session, request: dict[str, Any]) -> dict[str, Any]:
        relation = str(request["relation"])
        values = list(request["values"])
        idem = self._idem(session, request)

        def apply(database, key):
            database.insert(relation, values, idem=key)
            wal = database.wal
            return wal.last_lsn if wal is not None else database.current_lsn()

        return self.front_end.apply_write(
            idem, apply, deadline=self._deadline(request)
        )

    def _op_delete_eq(self, session: _Session, request: dict[str, Any]) -> dict[str, Any]:
        relation = str(request["relation"])
        column = str(request["column"])
        value = request["value"]
        idem = self._idem(session, request)

        # Stays None when the dedup table answers a retry: the statement
        # is not re-run, so how many rows it deleted is not known here.
        deleted = None

        def apply(database, key):
            nonlocal deleted
            deleted = len(database.delete_eq(relation, column, value, idem=key))
            wal = database.wal
            return wal.last_lsn if wal is not None else database.current_lsn()

        envelope = self.front_end.apply_write(
            idem, apply, deadline=self._deadline(request)
        )
        envelope["deleted"] = deleted
        return envelope

    def _op_stats(self, session: _Session, request: dict[str, Any]) -> dict[str, Any]:
        return {"ok": True, "stats": self.front_end.stats()}
