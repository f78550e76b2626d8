"""Minimal stdlib HTTP/1.1 plumbing for the serving plane.

The container image carries no HTTP framework, so the serving plane
speaks just enough HTTP/1.1 for its four JSON endpoints: request-line +
headers + ``Content-Length`` body in, ``Connection: close`` JSON responses
out.  :func:`read_request` is a pure function over the bytes a connection
has received so far, so the server feeds it whatever its sockets deliver
and the parser holds no I/O state.  Deliberately not a general server --
no chunked encoding, no keep-alive, no TLS -- which keeps the parser a few
dozen auditable lines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, Optional, Tuple, Union

__all__ = ["HttpError", "Request", "Router", "json_response", "read_request"]

#: Upper bound on header block and body sizes (64 KiB each) -- requests are
#: small JSON payloads; anything bigger is malformed or hostile.
_MAX_HEADER_BYTES = 64 * 1024
_MAX_BODY_BYTES = 64 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A request that cannot be served; carries the HTTP status to return."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> Dict[str, object]:
        """Decode the body as a JSON object (400 on anything else)."""
        if not self.body:
            return {}
        try:
            payload = json.loads(self.body)
        except json.JSONDecodeError as exc:
            raise HttpError(400, f"invalid JSON body: {exc}") from None
        if not isinstance(payload, dict):
            raise HttpError(400, "JSON body must be an object")
        return payload


def read_request(data: bytes) -> Optional[Request]:
    """Parse one HTTP/1.1 request from the bytes a connection has received.

    A pure function of ``data``: returns ``None`` while the head or the
    ``Content-Length`` body is still incomplete, and the :class:`Request`
    once both are in (bytes past the body are ignored).  Raises
    :class:`HttpError` (400) on malformed or oversized input as soon as
    the bytes received decide it, so every split of a request's bytes,
    fed cumulatively, gives the same result as the whole.
    """
    end = data.find(b"\r\n\r\n")
    if end < 0:
        # No head terminator yet: once the bytes alone reach the limit,
        # no completion can bring the head back under it.
        if len(data) >= _MAX_HEADER_BYTES:
            raise HttpError(400, "request head too large")
        return None
    body_start = end + 4
    if body_start > _MAX_HEADER_BYTES:
        raise HttpError(400, "request head too large")
    lines = data[:end].decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3:
        raise HttpError(400, f"malformed request line: {lines[0]!r}")
    method, target, _version = parts
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise HttpError(400, f"bad Content-Length: {length_text!r}") from None
    if length < 0 or length > _MAX_BODY_BYTES:
        raise HttpError(400, f"unacceptable Content-Length: {length}")
    body_end = body_start + length
    if len(data) < body_end:
        return None
    path = target.split("?", 1)[0]
    return Request(method=method, path=path, headers=headers,
                   body=data[body_start:body_end])


def json_response(status: int, payload: Dict[str, object]) -> bytes:
    """Serialize one ``Connection: close`` JSON response."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    reason = _REASONS.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    ).encode("latin-1")
    return head + body


#: An endpoint's answer: ``(status, payload)``.
Reply = Tuple[int, Dict[str, object]]

#: An endpoint handler: request in, :data:`Reply` out -- returned directly,
#: or as an awaitable when the handler must wait (a coroutine function's
#: call, or a plain handler's coroutine for its slow path).
Handler = Callable[[Request], Union[Reply, Awaitable[Reply]]]


class Router:
    """Exact-match ``(method, path)`` dispatch table."""

    def __init__(self) -> None:
        self._routes: Dict[Tuple[str, str], Handler] = {}

    def add(self, method: str, path: str, handler: Handler) -> None:
        """Register ``handler`` for ``method path`` (a plain function or a
        coroutine function)."""
        self._routes[(method.upper(), path)] = handler

    def dispatch(self, request: Request) -> Union[Reply, Awaitable[Reply]]:
        """Route one request; 404 on unknown path, 405 on wrong method.

        Returns the handler's result: ``(status, payload)``, or an
        awaitable of it when the handler must wait.
        """
        handler = self._routes.get((request.method.upper(), request.path))
        if handler is not None:
            return handler(request)
        if any(path == request.path for _, path in self._routes):
            raise HttpError(405, f"method {request.method} not allowed")
        raise HttpError(404, f"no such endpoint: {request.path}")
