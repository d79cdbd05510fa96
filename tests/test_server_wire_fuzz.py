"""Wire fuzz of the HTTP parser: raw socket frames against a live server.

Every frame is drawn from a seeded ``random.Random``, so a run is the same
run every time.  Each goes out on its own connection, whose write side is
then shut: the server must answer a 4xx/501 (pipelined requests: every
answer, in order) or close cleanly, within two seconds, and once the
frames are done no connection handler may be left behind.  The memoised
target parse is checked alongside: two targets never share ``params``,
and the shared mapping refuses writes.
"""

from __future__ import annotations

import random
import socket
import time
import urllib.parse

import pytest

from repro.data.paper_example import figure1_ordering, figure1_relation
from repro.observability import MetricsRegistry, use_registry
from repro.server import ServerConfig, ServerThread
from repro.server.protocol import (
    MAX_HEADER_COUNT,
    MAX_HEADER_LINE,
    MAX_REQUEST_LINE,
    parse_target,
)
from repro.serving import ServingEngine

SEED = 20081
FRAMES_PER_KIND = 6
ANSWER_WITHIN_S = 2.0
QUERY = urllib.parse.quote("Make = 'Honda'")


@pytest.fixture(scope="module")
def server():
    with use_registry(MetricsRegistry()):
        serving = ServingEngine.from_relation(
            figure1_relation(), figure1_ordering())
        with ServerThread(serving, ServerConfig()) as thread:
            yield thread
        serving.close()


def _exchange(address, frame: bytes) -> bytes:
    """Send ``frame``, shut the write side, read until the server closes
    (a reset counts as a close: the server may hang up mid-frame)."""
    received = []
    with socket.create_connection(address, timeout=ANSWER_WITHIN_S) as sock:
        deadline = time.monotonic() + ANSWER_WITHIN_S
        try:
            sock.sendall(frame)
            sock.shutdown(socket.SHUT_WR)
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                received.append(chunk)
        except (ConnectionResetError, BrokenPipeError):
            pass
        assert time.monotonic() <= deadline + 0.5, "no answer or close in time"
    return b"".join(received)


def _statuses(stream: bytes) -> list:
    """The status of every Content-Length-framed response in ``stream``."""
    statuses = []
    while stream:
        head, separator, rest = stream.partition(b"\r\n\r\n")
        assert separator, f"torn response {stream[:80]!r}"
        lines = head.decode("latin-1").split("\r\n")
        assert lines[0].startswith("HTTP/1.1 ")
        statuses.append(int(lines[0].split()[1]))
        length = next(int(line.split(":", 1)[1]) for line in lines[1:]
                      if line.lower().startswith("content-length:"))
        stream = rest[length:]
    return statuses


def _token(rng: random.Random, size: int) -> str:
    return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz0123456789-")
                   for _ in range(size))


def _target(rng: random.Random) -> str:
    path = rng.choice(("/search", "/healthz", "/", "/metrics", "/nope"))
    params = {_token(rng, rng.randint(1, 6)): _token(rng, rng.randint(0, 8))
              for _ in range(rng.randint(0, 4))}
    if path == "/search" and rng.random() < 0.5:
        params.update(q="Make = 'Honda'", k=str(rng.randint(-2, 12)))
    return path + ("?" + urllib.parse.urlencode(params) if params else "")


def _frames(rng: random.Random):
    """``(kind, frame)`` pairs: every abusive shape, ``FRAMES_PER_KIND``
    random draws of each."""
    for _ in range(FRAMES_PER_KIND):
        target = _target(rng)
        yield "long request line", (
            b"GET /" + b"a" * rng.randint(MAX_REQUEST_LINE, 3 * MAX_REQUEST_LINE)
            + b" HTTP/1.1\r\n\r\n")
        yield "long header", (
            f"GET {target} HTTP/1.1\r\nX-Big: ".encode()
            + b"v" * rng.randint(MAX_HEADER_LINE, 3 * MAX_HEADER_LINE)
            + b"\r\n\r\n")
        yield "too many headers", (
            f"GET {target} HTTP/1.1\r\n".encode() + b"".join(
                f"H{i}: {_token(rng, 4)}\r\n".encode()
                for i in range(MAX_HEADER_COUNT + rng.randint(1, 40)))
            + b"\r\n")
        whole = f"GET {target} HTTP/1.1\r\nHost: x\r\n\r\n".encode()
        yield "partial then close", whole[:rng.randrange(1, len(whole) - 1)]
        yield "torn header block", f"GET {target} HTTP/1.1\r\n".encode() + (
            b"Host: x\r\n" * rng.randint(0, 3))
        yield "garbage", bytes(rng.randrange(256)
                               for _ in range(rng.randint(1, 300))) + b"\r\n\r\n"
        yield "non-ascii request line", (
            "GET /séarch?q=ü HTTP/1.1\r\n\r\n".encode("utf-8"))
        yield "bad content-length", (
            f"GET {target} HTTP/1.1\r\nContent-Length: "
            f"{rng.choice(['nope', '-3', '1e3', '', '0x10', '9' * 5000])}"
            f"\r\n\r\n".encode())
        yield "chunked body", (
            f"POST {target} HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            f"5\r\nhello\r\n0\r\n\r\n".encode())
        yield "truncated body", (
            f"GET {target} HTTP/1.1\r\nContent-Length: "
            f"{rng.randint(10, 500)}\r\n\r\nshort".encode())


class TestWireFuzz:
    def test_every_abusive_frame_is_refused_or_closed(self, server):
        rng = random.Random(SEED)
        seen = set()
        for kind, frame in _frames(rng):
            seen.add(kind)
            statuses = _statuses(_exchange(server.address, frame))
            assert len(statuses) <= 1, (kind, statuses)
            assert all(400 <= status < 500 or status == 501
                       for status in statuses), (kind, frame[:80], statuses)
            if kind in ("long request line", "long header",
                        "too many headers", "non-ascii request line"):
                assert statuses in ([431], [400]), (kind, statuses)
            if kind == "chunked body":
                assert statuses == [501]
            if kind in ("torn header block", "truncated body"):
                assert statuses == [], frame  # never served torn
        assert len(seen) == 10
        self._assert_no_handler_left(server)
        # Still serving.
        status = _statuses(_exchange(
            server.address, b"GET /healthz HTTP/1.1\r\n\r\n"))
        assert status == [200]

    @pytest.mark.parametrize("lengths, body, status", [
        ([b"1_0"], b"0123456789", 400),
        ([b"+10"], b"0123456789", 400),
        ([b"2", b"5"], b"hello", 400),
        ([b"0010"], b"0123456789", 200),
        ([b"5", b"5"], b"hello", 200),
    ], ids=["underscore", "plus-sign", "differing-repeat", "leading-zeros",
            "equal-repeat"])
    def test_content_length_is_one_run_of_digits(self, server, lengths, body,
                                                 status):
        """RFC 9110 allows ``1*DIGIT`` only, and RFC 9112 section 6.3 makes
        differing repeated values invalid: such a frame is refused, never
        read as a body of ``int()``'s or the last header's length."""
        frame = b"GET /healthz HTTP/1.1\r\n" + b"".join(
            b"Content-Length: " + length + b"\r\n" for length in lengths)
        assert _statuses(_exchange(server.address,
                                   frame + b"\r\n" + body)) == [status]

    def test_pipelined_requests_are_answered_in_order(self, server):
        rng = random.Random(SEED + 1)
        for _ in range(FRAMES_PER_KIND):
            targets = [rng.choice((
                f"/search?q={QUERY}&k={rng.randint(1, 5)}",
                f"/search?q={QUERY}&k=0", "/healthz", "/nope"))
                for _ in range(3)]
            frame = b"".join(f"GET {target} HTTP/1.1\r\nHost: x\r\n\r\n"
                             .encode() for target in targets)
            expected = [400 if target.endswith("k=0") else
                        404 if target == "/nope" else 200
                        for target in targets]
            assert _statuses(_exchange(server.address, frame)) == expected
        self._assert_no_handler_left(server)

    @staticmethod
    def _assert_no_handler_left(server):
        for _ in range(400):
            if not server.server._connections:
                return
            time.sleep(0.005)
        assert not server.server._connections


class TestMemoisedTarget:
    def test_targets_never_share_params_and_params_are_read_only(self):
        rng = random.Random(SEED + 2)
        targets = {_target(rng) for _ in range(200)}
        parsed = {target: parse_target(target) for target in targets}
        mappings = [params for _, params in parsed.values()]
        assert len({id(params) for params in mappings}) == len(targets)
        for target, (path, params) in parsed.items():
            assert parse_target(target)[1] is params  # memoised
            split = urllib.parse.urlsplit(target)
            assert path == split.path
            assert dict(params) == dict(urllib.parse.parse_qsl(
                split.query, keep_blank_values=True))
            with pytest.raises(TypeError):
                params["q"] = "*"
            with pytest.raises(TypeError):
                del params["anything"]
