"""The one record frame of the WAL, the ship link and the snapshot: the CRC32 of the body as eight lowercase hex digits, one
space, the body as compact (ASCII) JSON, and a newline::

    1c291ca3 {"lsn":7,"kind":"insert","payload":{"relation":"t","values":[1]}}

:func:`decode` parses first and checks the CRC of the stored body
second, so damage classifies alike in every stream: not a frame, not
JSON or a document the caller does not ``accept`` is ``corrupt``; a
document whose CRC disagrees is a ``mismatch`` (a repairable tail, to
the WAL).  A line without its newline is torn — what that means is the
stream's call; :func:`decode` refuses it as ``corrupt``.
"""

from __future__ import annotations

import json
import zlib
from typing import Any, Callable

__all__ = ["encode", "decode"]

_HEX = frozenset("0123456789abcdef")
_HEADER = 9  # eight hex digits and a space
_JSON = json.JSONEncoder(separators=(",", ":"))  # built once, not per call


def encode(document: Any) -> str:
    """The frame of ``document``, newline included."""
    body = _JSON.encode(document)
    return f"{zlib.crc32(body.encode('ascii')):08x} {body}\n"


def decode(
    frame: str,
    corrupt: type[Exception],
    mismatch: type[Exception] | None = None,
    accept: Callable[[Any], bool] = lambda document: isinstance(document, dict),
) -> Any:
    """The document of one ``frame`` (newline included), or a typed
    error: ``corrupt`` for anything that is not a frame of an accepted
    document (by default, any JSON object), ``mismatch`` (by default
    ``corrupt``) for one whose CRC disagrees with its stored body."""
    if not (
        len(frame) > _HEADER
        and frame[-1] == "\n"
        and frame[8] == " "
        and _HEX.issuperset(frame[:8])
    ):
        raise corrupt(f"not a frame: {frame[:80]!r}")
    body = frame[_HEADER:-1]
    try:
        document = json.loads(body)
    except (ValueError, RecursionError) as exc:
        raise corrupt(f"frame body is not JSON: {frame[:80]!r}") from exc
    if not accept(document):
        raise corrupt(f"frame holds no record of this stream: {frame[:80]!r}")
    computed = zlib.crc32(body.encode("utf-8", "surrogatepass"))
    if int(frame[:8], 16) != computed:
        raise (mismatch or corrupt)(f"CRC mismatch: {frame[:8]} != {computed:08x}")
    return document
