"""Wire protocol of the sort service: newline-delimited JSON frames.

One request per line, one response per line, UTF-8, no pipelining
restrictions (a client may have many requests in flight on one
connection; responses carry the request's ``id`` so order never
matters).  The shape is deliberately the simplest thing a shell user can
drive with ``nc``:

.. code-block:: text

    -> {"op": "sort", "tenant": "approx-fast", "keys": [3, 1, 2], "id": 7}
    <- {"ok": true, "op": "sort", "id": 7, "keys": [1, 2, 3], ...}

Requests
--------

``sort``
    ``tenant`` (profile name), ``keys`` (list of 32-bit unsigned ints),
    optional ``seed`` (corruption RNG seed, default 0) and ``id`` (any
    JSON scalar, echoed back verbatim).
``ping``
    liveness probe; echoes ``id``.
``profiles``
    the tenant registry: every profile's resolved configuration.
``stats``
    server counters: queue depth, served/rejected totals, per-tenant
    degradation tiers.
``metrics``
    the full metrics snapshot in Prometheus text exposition
    (``repro.obs.metrics``).
``shutdown``
    begin graceful shutdown: stop admitting, drain the queue, answer
    every accepted job, then exit.

Responses
---------

``{"ok": true, ...}`` with op-specific payload, or
``{"ok": false, "error": {"code": ..., "message": ...}}``.  Backpressure
rejections (code ``OVERLOADED``) carry ``retry_after_s`` — the 429
semantics of the admission scheduler (docs/serving.md).

Errors are *per-frame* wherever the frame could be parsed; only frames
that exceed the configured size limit close the connection (the stream
cannot be resynchronized reliably past an oversized line).
"""

from __future__ import annotations

import json
from typing import Optional

from repro.errors import ReproError
from repro.memory.approx_array import WORD_LIMIT

#: Stamped into every response so clients can detect incompatible servers.
PROTOCOL_VERSION = 1

#: Default maximum request-frame size (bytes, including the newline).
MAX_FRAME_BYTES = 4 * 1024 * 1024

#: Default maximum keys per sort request (profiles may lower it).
MAX_KEYS_PER_REQUEST = 262_144

#: Line-buffer size a client needs to read any response frame.  A sort
#: response echoes up to MAX_KEYS_PER_REQUEST keys (10 digits and a comma
#: each) and as many ids (6 digits and a comma) in a small envelope, so
#: it can outgrow MAX_FRAME_BYTES, which bounds requests only.
MAX_RESPONSE_BYTES = MAX_KEYS_PER_REQUEST * (11 + 7) + 64 * 1024

#: Request operations the server understands.
OPS = ("sort", "ping", "profiles", "stats", "metrics", "shutdown")

# Error codes (the protocol's closed vocabulary).
BAD_FRAME = "BAD_FRAME"              #: not parseable as a JSON object
BAD_REQUEST = "BAD_REQUEST"          #: parseable, but fields are invalid
UNKNOWN_OP = "UNKNOWN_OP"            #: op not in :data:`OPS`
UNKNOWN_TENANT = "UNKNOWN_TENANT"    #: tenant name not registered
PAYLOAD_TOO_LARGE = "PAYLOAD_TOO_LARGE"  #: frame or key count over limit
OVERLOADED = "OVERLOADED"            #: queue full; retry after backoff
SHUTTING_DOWN = "SHUTTING_DOWN"      #: server is draining; not admitting
INTERNAL = "INTERNAL"                #: execution failed server-side

ERROR_CODES = (
    BAD_FRAME, BAD_REQUEST, UNKNOWN_OP, UNKNOWN_TENANT, PAYLOAD_TOO_LARGE,
    OVERLOADED, SHUTTING_DOWN, INTERNAL,
)


class ProtocolError(ReproError):
    """A request frame violated the protocol.

    Attributes
    ----------
    code:
        One of :data:`ERROR_CODES`.
    message:
        Human-readable description sent back to the client.
    request_id:
        The offending request's ``id`` when it could be recovered.
    """

    def __init__(
        self, code: str, message: str, request_id: object = None
    ) -> None:
        self.code = code
        self.message = message
        self.request_id = request_id
        super().__init__(f"{code}: {message}")


def encode_frame(payload: dict) -> bytes:
    """One response/request line: compact JSON plus the newline terminator."""
    return json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_request(line: bytes) -> dict:
    """Parse and structurally validate one request line.

    Returns the decoded request dict with ``op`` guaranteed present and
    known; raises :class:`ProtocolError` otherwise.  ``sort``-specific
    field validation lives in :func:`validate_sort_request` so transport
    errors (unparseable line) and request errors (bad fields) map to
    distinct codes.
    """
    try:
        request = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(BAD_FRAME, f"frame is not valid JSON: {exc}")
    if not isinstance(request, dict):
        raise ProtocolError(
            BAD_FRAME,
            f"frame must be a JSON object, got {type(request).__name__}",
        )
    request_id = request.get("id")
    if request_id is not None and not isinstance(
        request_id, (str, int, float, bool)
    ):
        raise ProtocolError(
            BAD_REQUEST, "id must be a JSON scalar", request_id=None
        )
    op = request.get("op")
    if not isinstance(op, str):
        raise ProtocolError(
            BAD_REQUEST, "missing string field 'op'", request_id=request_id
        )
    if op not in OPS:
        raise ProtocolError(
            UNKNOWN_OP,
            f"unknown op {op!r}; supported: {', '.join(OPS)}",
            request_id=request_id,
        )
    return request


def validate_sort_request(
    request: dict, max_keys: int = MAX_KEYS_PER_REQUEST
) -> tuple[str, list[int], int]:
    """Validate a ``sort`` request's fields; returns (tenant, keys, seed).

    Key values must be integers in the instrumented arrays' word range
    ``[0, 2**32)``; anything else is a :class:`ProtocolError` with code
    ``BAD_REQUEST`` (or ``PAYLOAD_TOO_LARGE`` for an over-limit count).
    """
    request_id = request.get("id")
    tenant = request.get("tenant")
    if not isinstance(tenant, str) or not tenant:
        raise ProtocolError(
            BAD_REQUEST, "missing string field 'tenant'", request_id
        )
    keys = request.get("keys")
    if not isinstance(keys, list):
        raise ProtocolError(
            BAD_REQUEST, "missing list field 'keys'", request_id
        )
    if len(keys) > max_keys:
        raise ProtocolError(
            PAYLOAD_TOO_LARGE,
            f"{len(keys)} keys exceeds the per-request limit of {max_keys}",
            request_id,
        )
    for index, key in enumerate(keys):
        if isinstance(key, bool) or not isinstance(key, int):
            raise ProtocolError(
                BAD_REQUEST,
                f"keys[{index}] is not an integer"
                f" ({type(key).__name__})",
                request_id,
            )
        if not 0 <= key < WORD_LIMIT:
            raise ProtocolError(
                BAD_REQUEST,
                f"keys[{index}] = {key} outside [0, {WORD_LIMIT})",
                request_id,
            )
    seed = request.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ProtocolError(
            BAD_REQUEST, "seed must be an integer", request_id
        )
    return tenant, keys, seed


def ok_response(op: str, request_id: object = None, **payload) -> dict:
    """A success frame (``id`` included only when the request carried one)."""
    response = {"ok": True, "v": PROTOCOL_VERSION, "op": op}
    if request_id is not None:
        response["id"] = request_id
    response.update(payload)
    return response


def error_response(
    code: str,
    message: str,
    request_id: object = None,
    retry_after_s: Optional[float] = None,
) -> dict:
    """An error frame; ``retry_after_s`` is the 429 backoff hint."""
    response = {
        "ok": False,
        "v": PROTOCOL_VERSION,
        "error": {"code": code, "message": message},
    }
    if request_id is not None:
        response["id"] = request_id
    if retry_after_s is not None:
        response["retry_after_s"] = retry_after_s
    return response
