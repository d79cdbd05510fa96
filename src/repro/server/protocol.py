"""A minimal HTTP/1.1 request parser and response writer over asyncio streams.

The serving front-end deliberately carries no web-framework dependency (the
project has none at all): the protocol surface the engine needs is one
request shape — a method, a target with a query string, a handful of
headers, an optional small body — and two response shapes, a buffered JSON
document and a chunked stream of result pages.  Everything here is plain
``asyncio`` stream reading with hard limits on every dimension an abusive
client controls (request-line length, header count and size, body size),
because the admission-control story upstairs is only as good as the
parser's refusal to buffer unbounded input downstairs.

A request target is parsed once per distinct target, not once per
request: :func:`parse_target` is memoised, and every request for the same
target shares its read-only ``params`` mapping (form queries repeat).

Errors raise :class:`ProtocolError` carrying the HTTP status the connection
handler should answer with before closing; a clean EOF between requests
returns ``None`` from :func:`read_request` (the keep-alive loop's exit).
"""

from __future__ import annotations

import asyncio
import functools
import json
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Sequence, Tuple
from urllib.parse import parse_qsl, urlsplit

#: Hard parser limits; a request exceeding any of them is answered with a
#: 4xx and the connection is closed (never buffered past the limit).
MAX_REQUEST_LINE = 8192
MAX_HEADER_COUNT = 64
MAX_HEADER_LINE = 8192
MAX_BODY_BYTES = 1 << 20

#: Stream limit for ``asyncio.start_server`` — one line never exceeds this.
STREAM_LIMIT = max(MAX_REQUEST_LINE, MAX_HEADER_LINE) + 2

#: Distinct request targets whose parse is kept (an LRU; a form front-end
#: repeats a few hundred popular queries).
TARGET_CACHE_SIZE = 1024

REASONS = {
    200: "OK",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

SERVER_NAME = "repro-serve"


class ProtocolError(Exception):
    """A malformed/abusive request; ``status`` is the answer to send."""

    def __init__(self, status: int, message: str):
        self.status = status
        super().__init__(message)


@functools.lru_cache(maxsize=TARGET_CACHE_SIZE)
def parse_target(target: str) -> Tuple[str, Mapping[str, str]]:
    """``(path, params)`` of one request target, parsed (and unquoted) once
    per distinct target.  ``params`` is shared by every request for the
    target, hence read-only; the last value wins on duplicates — the
    handlers only use scalars."""
    split = urlsplit(target)
    return split.path or "/", MappingProxyType(
        dict(parse_qsl(split.query, keep_blank_values=True)))


class Request:
    """One parsed HTTP request (``params`` is read-only and shared)."""

    __slots__ = ("method", "target", "path", "params", "headers", "body",
                 "version")

    def __init__(self, method: str, target: str, version: str,
                 headers: Dict[str, str], body: bytes):
        self.method = method
        self.target = target
        self.version = version
        self.headers = headers
        self.body = body
        self.path, self.params = parse_target(target)

    def header(self, name: str, default: Optional[str] = None) -> Optional[str]:
        return self.headers.get(name.lower(), default)

    def param(self, name: str, default: Optional[str] = None) -> Optional[str]:
        return self.params.get(name, default)

    @property
    def keep_alive(self) -> bool:
        """HTTP/1.1 persists by default; 1.0 only on explicit keep-alive."""
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"

    def __repr__(self) -> str:
        return f"Request({self.method} {self.target})"


async def _read_line(reader, limit: int, what: str) -> bytes:
    try:
        line = await reader.readline()
    except ValueError:
        # StreamReader raises ValueError when a line exceeds its limit.
        raise ProtocolError(431, f"{what} exceeds {limit} bytes") from None
    if len(line) > limit:
        raise ProtocolError(431, f"{what} exceeds {limit} bytes")
    return line


async def read_request(reader) -> Optional[Request]:
    """Parse one request off the stream; ``None`` on clean EOF.

    Raises :class:`ProtocolError` on malformed input or exceeded limits,
    and :class:`asyncio.IncompleteReadError` when the stream ends inside a
    request (the handler closes without answering).  Only identity bodies
    sized by ``Content-Length`` are accepted (chunked *request* bodies
    answer 501 — no endpoint needs them).
    """
    line = await _read_line(reader, MAX_REQUEST_LINE, "request line")
    if not line:
        return None
    try:
        text = line.decode("ascii").strip()
    except UnicodeDecodeError:
        raise ProtocolError(400, "request line is not ASCII") from None
    if not text:
        # Tolerate a stray CRLF between pipelined requests.
        line = await _read_line(reader, MAX_REQUEST_LINE, "request line")
        if not line:
            return None
        try:
            text = line.decode("ascii").strip()
        except UnicodeDecodeError:
            raise ProtocolError(400, "request line is not ASCII") from None
    parts = text.split()
    if len(parts) != 3:
        raise ProtocolError(400, f"malformed request line {text!r}")
    method, target, version = parts
    if version not in ("HTTP/1.0", "HTTP/1.1"):
        raise ProtocolError(400, f"unsupported protocol version {version!r}")
    headers: Dict[str, str] = {}
    while True:
        raw = await _read_line(reader, MAX_HEADER_LINE, "header line")
        if raw in (b"\r\n", b"\n"):
            break
        if not raw:  # EOF before the blank line: never serve a torn request
            raise asyncio.IncompleteReadError(b"", None)
        if len(headers) >= MAX_HEADER_COUNT:
            raise ProtocolError(431, f"more than {MAX_HEADER_COUNT} headers")
        decoded = raw.decode("latin-1").rstrip("\r\n")
        name, separator, value = decoded.partition(":")
        if not separator or not name.strip():
            raise ProtocolError(400, f"malformed header {decoded!r}")
        name, value = name.strip().lower(), value.strip()
        if name == "content-length" and headers.get(name, value) != value:
            # RFC 9112 section 6.3: differing lengths make the frame invalid.
            raise ProtocolError(400, "conflicting Content-Length headers")
        headers[name] = value
    if headers.get("transfer-encoding", "").lower() not in ("", "identity"):
        raise ProtocolError(501, "chunked request bodies are not supported")
    body = b""
    length_raw = headers.get("content-length")
    if length_raw is not None:
        # RFC 9110 allows 1*DIGIT only: ``int`` would also take "+10", "1_0".
        if not (length_raw.isascii() and length_raw.isdigit()):
            raise ProtocolError(400, f"bad Content-Length {length_raw!r}")
        # No accepted length needs 19 digits (and ``int`` refuses 4 301).
        if len(length_raw) > 18 or int(length_raw) > MAX_BODY_BYTES:
            raise ProtocolError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(int(length_raw))
    return Request(method, target, version, headers, body)


#: Built once (``json.dumps`` with options builds an encoder per call —
#: a third of a cold 19-item body); keys keep their insertion order.
_ENCODER = json.JSONEncoder(separators=(",", ":"), default=str)
#: ``_ENCODER.encode`` builds a C encoder and a cycle memo per call, half
#: the cost of one item; bodies are trees, so it is built once, memo-less.
try:
    _C_ENCODE = json.encoder.c_make_encoder(
        None, str, json.encoder.encode_basestring_ascii, None, ":", ",",
        False, False, True)
except (AttributeError, TypeError):  # no C accelerator, or a new signature
    _C_ENCODE = None


def json_bytes(document: object) -> bytes:
    """Compact JSON encoding used for every response body."""
    if _C_ENCODE is None:
        return _ENCODER.encode(document).encode("utf-8")
    return "".join(_C_ENCODE(document, 0)).encode("utf-8")


HeaderList = Sequence[Tuple[str, str]]


def _preamble(status: int, content_type: str, framing: Sequence[str],
              extra_headers: HeaderList) -> bytes:
    """Status line and header block of either response shape."""
    lines = [
        f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}",
        f"Server: {SERVER_NAME}",
        f"Content-Type: {content_type}",
        *framing,
    ]
    lines.extend(f"{name}: {value}" for name, value in extra_headers)
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def render_response(
    status: int,
    body: bytes = b"",
    *,
    content_type: str = "application/json",
    extra_headers: HeaderList = (),
    keep_alive: bool = True,
    head: bool = False,
) -> bytes:
    """One buffered response, Content-Length framed; the answer to a
    ``HEAD`` keeps the length and sends no body."""
    preamble = _preamble(status, content_type, (
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ), extra_headers)
    return preamble if head else preamble + body


def error_body(status: int, error: str, message: str, **fields) -> bytes:
    """The uniform JSON error document every non-200 answer carries."""
    document = {"status": status, "error": error, "message": message}
    document.update(fields)
    return json_bytes(document)


async def write_response(writer, status: int, body: bytes = b"",
                         **options) -> None:
    """Write and flush one :func:`render_response` (same options)."""
    writer.write(render_response(status, body, **options))
    await writer.drain()


class ChunkedWriter:
    """A chunked-transfer response: headers up front, one chunk per page.

    Used by the streaming search path — each diverse result page is one
    chunk holding one NDJSON line, so clients render pages as they are
    computed instead of waiting for the last one.  The answer to a
    ``HEAD`` is the header block alone: chunks are dropped, not framed.
    """

    def __init__(self, writer, status: int = 200,
                 content_type: str = "application/x-ndjson",
                 extra_headers: HeaderList = (), head: bool = False):
        self._writer = writer
        self._head = head
        self._status = status
        self._content_type = content_type
        self._extra_headers = extra_headers
        self._started = False
        self._finished = False

    async def start(self) -> None:
        if self._started:
            return
        self._started = True
        self._writer.write(_preamble(
            self._status, self._content_type,
            ("Transfer-Encoding: chunked", "Connection: keep-alive"),
            self._extra_headers))
        await self._writer.drain()

    async def _send(self, framed: bytes) -> None:
        await self.start()
        if not self._head:
            self._writer.write(framed)
            await self._writer.drain()

    async def write_chunk(self, payload: bytes) -> None:
        if payload:
            await self._send(b"%x\r\n" % len(payload) + payload + b"\r\n")

    async def finish(self) -> None:
        if not self._finished:
            self._finished = True
            await self._send(b"0\r\n\r\n")
