"""The wire layer's hardening, checked on both servers over raw sockets.

Every refused request is answered and its connection closed; a JSON
body that is not an object is a plain 400; a stalled request times out
from its first byte while an idle keep-alive connection stays open; and
stopping a server with a client still connected logs nothing.
"""

import json
import logging
import socket
import time

import pytest

from repro.dse import ClientError, DseService, ServiceClient, ServiceThread
from repro.emu.sessions import SessionManager, SessionServerThread

#: Seconds any one exchange may take before the test calls it a hang.
BOUND = 5.0


@pytest.fixture(params=["dse", "sessions"])
def server(request):
    """``(handle, create_route)`` for each server."""
    if request.param == "dse":
        handle, route = ServiceThread(DseService()), "/studies"
    else:
        handle = SessionServerThread(SessionManager(compile_cache=None))
        route = "/sessions"
    with handle:
        yield handle, route


def connect(handle):
    host, port = handle.url.rpartition("/")[2].split(":")
    return socket.create_connection((host, int(port)), timeout=BOUND)


def read_response(sock):
    """``(status, headers, payload)`` of one JSON response."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError(f"closed without a response: {data!r}")
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    headers = {name.strip().lower(): value.strip() for name, _, value
               in (line.partition(":") for line in lines)}
    length = int(headers["content-length"])
    while len(body) < length:
        body += sock.recv(65536)
    return int(status_line.split(" ")[1]), headers, json.loads(body)


def closed(sock):
    """Whether the server closed the connection."""
    try:
        return sock.recv(1) == b""
    except ConnectionResetError:
        return True


def refused(handle, data):
    """Send ``data`` on a fresh connection; the status of the answer,
    which must come with the connection closing."""
    with connect(handle) as sock:
        sock.sendall(data)
        status, headers, payload = read_response(sock)
        assert headers["connection"] == "close"
        assert "error" in payload
        assert closed(sock)
    return status


@pytest.mark.parametrize("length", ["-1", "abc", "0x10", "1e3", ""])
def test_malformed_content_length_is_400_and_closes(server, length):
    handle, route = server
    request = (f"POST {route} HTTP/1.1\r\nHost: x\r\n"
               f"Content-Length: {length}\r\n\r\n{{}}").encode()
    assert refused(handle, request) == 400


def test_body_over_the_cap_is_413_before_it_is_read(server):
    from repro.core.wire import MAX_BODY_BYTES

    handle, route = server
    request = (f"POST {route} HTTP/1.1\r\nHost: x\r\n"
               f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n").encode()
    started = time.monotonic()
    assert refused(handle, request) == 413  # no body was ever sent
    assert time.monotonic() - started < BOUND


@pytest.mark.parametrize("head", [
    # many ordinary headers, over the header-block cap together
    "".join(f"X-Pad-{i}: {'p' * 1000}\r\n" for i in range(20)),
    # one line longer than the stream buffer limit (64 KiB)
    f"X-Long: {'l' * 70_000}\r\n",
], ids=["many-headers", "long-line"])
def test_oversized_head_is_431_and_closes(server, head):
    handle, _ = server
    request = f"GET /healthz HTTP/1.1\r\nHost: x\r\n{head}\r\n".encode()
    assert refused(handle, request) == 431


@pytest.mark.parametrize("body", ["[1, 2]", "7", '"text"', "null", "true"])
def test_json_body_that_is_not_an_object_is_400(server, body):
    handle, route = server
    with connect(handle) as sock:
        sock.sendall((f"POST {route} HTTP/1.1\r\nHost: x\r\n"
                      f"Content-Length: {len(body)}\r\n\r\n{body}").encode())
        status, _, payload = read_response(sock)
        assert status == 400, payload
        # an ordinary client error: the connection stays usable
        sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        assert read_response(sock)[0] == 200


def test_service_client_does_not_retry_a_non_object_body():
    with ServiceThread(DseService()) as handle:
        client = ServiceClient(handle.url, sleep=lambda seconds: None)
        with pytest.raises(ClientError) as error:
            client.request("POST", "/studies", ["not", "an", "object"])
        client.close()
    assert error.value.status == 400
    assert client.retries == 0


def test_read_timeout_starts_at_the_first_byte(server, monkeypatch):
    from repro.core import wire

    monkeypatch.setattr(wire, "READ_TIMEOUT", 0.3)
    handle, _ = server
    with connect(handle) as sock:
        # one request, then idle for several timeouts: never closed
        sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        assert read_response(sock)[0] == 200
        time.sleep(1.0)
        sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        assert read_response(sock)[0] == 200
    with connect(handle) as sock:
        # a request that stalls after its first line is cut off
        started = time.monotonic()
        sock.sendall(b"GET /healthz HTTP/1.1\r\n")
        status, headers, _ = read_response(sock)
        assert status == 408
        assert headers["connection"] == "close"
        assert closed(sock)
        assert time.monotonic() - started < BOUND


def test_stop_with_a_keep_alive_client_logs_nothing(server):
    handle, _ = server
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger = logging.getLogger("asyncio")
    with connect(handle) as sock:
        sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        assert read_response(sock)[0] == 200
        logger.addHandler(handler)
        try:
            handle.stop()
        finally:
            logger.removeHandler(handler)
    assert [record.getMessage() for record in records] == []
