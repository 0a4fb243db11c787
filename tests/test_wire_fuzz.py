"""Fuzzing both servers with malformed, oversized and truncated requests.

After every example the server still answers ``GET /healthz`` with 200,
its state (``GET /studies``, ``GET /sessions``) is unchanged, and the
example finished within a fixed wall-clock bound.  The read timeout is
shortened by patching the wire layer's constant, so stalled requests
resolve quickly.
"""

import http.client
import json
import socket
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import wire
from repro.dse import DseService, ServiceThread
from repro.emu.sessions import SessionManager, SessionServerThread

#: Seconds one example may take, from connect to the state check.
WALL_BOUND = 5.0

#: The patched read timeout: a stalled request resolves after this.
READ_TIMEOUT = 0.2

STUDY = {"owner": "fuzz", "study_id": "resident", "budget": 4,
         "algorithm": "random", "goals": ["a", "b"],
         "space": {"parameters": [{"name": "x", "values": [0, 1]}]}}


@pytest.fixture(scope="module", params=["dse", "sessions"])
def target(request):
    """``(handle, listing route, create request)``; each server holds
    one resident study or session, so its listing is not empty."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wire, "READ_TIMEOUT", READ_TIMEOUT)
        if request.param == "dse":
            service = DseService()
            service.create_study(STUDY)
            handle = ServiceThread(service)
            listing, create = "/studies", dict(STUDY, study_id="fuzzed")
        else:
            manager = SessionManager(compile_cache=None)
            manager.create({"session_id": "resident"})
            handle = SessionServerThread(manager)
            listing, create = "/sessions", {"session_id": "fuzzed"}
        with handle:
            yield handle, listing, json.dumps(create).encode()


def get(handle, path):
    host, port = handle.url.rpartition("/")[2].split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=WALL_BOUND)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def exchange(handle, data, half_close=True):
    """Send raw bytes on a fresh connection and read until the server
    closes it.  Half-closing ends the request stream, so the server
    closes after answering whatever it received."""
    host, port = handle.url.rpartition("/")[2].split(":")
    answer = b""
    with socket.create_connection((host, int(port)),
                                  timeout=WALL_BOUND) as sock:
        sock.sendall(data)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                answer += chunk
        except ConnectionResetError:
            pass
    return answer


def statuses(answer):
    """The status code of every response in a raw answer."""
    return [int(line.split(b" ")[1]) for line in answer.split(b"\r\n")
            if line.startswith(b"HTTP/1.1 ")]


def survives(target, send):
    """Run ``send(handle)`` as one example and check the invariants."""
    handle, listing, _ = target
    before = get(handle, listing)
    started = time.monotonic()
    answer = send(handle)
    assert get(handle, "/healthz")[0] == 200
    assert get(handle, listing) == before
    assert time.monotonic() - started < WALL_BOUND
    return answer


def request(method, path, headers=(), body=b"", length=None):
    length = len(body) if length is None else length
    head = "".join(f"{name}: {value}\r\n" for name, value in headers)
    return (f"{method} {path} HTTP/1.1\r\nHost: fuzz\r\n{head}"
            f"Content-Length: {length}\r\n\r\n").encode() + body


# --------------------------------------------------------------------------------
# Malformed requests
# --------------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(head=st.binary(min_size=1, max_size=300))
def test_garbage_heads(target, head):
    answer = survives(target, lambda handle: exchange(
        handle, head + b"\r\n\r\n"))
    assert set(statuses(answer)) <= {400, 404, 431}


@settings(max_examples=40, deadline=None)
@given(length=st.text(alphabet="-+.xe0123456789abc ", min_size=1,
                      max_size=12).filter(lambda text: not text.strip().isdigit()))
def test_malformed_content_lengths(target, length):
    _, listing, body = target
    answer = survives(target, lambda handle: exchange(
        handle, request("POST", listing, length=length, body=body)))
    assert statuses(answer) == [400]


@settings(max_examples=40, deadline=None)
@given(body=st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                      st.text(max_size=20), st.lists(st.integers(), max_size=5)))
def test_json_bodies_that_are_not_objects(target, body):
    _, listing, _ = target
    answer = survives(target, lambda handle: exchange(
        handle, request("POST", listing, body=json.dumps(body).encode())))
    assert statuses(answer) == [400]


def is_json_object(data):
    """Whether the server would parse ``data`` as a JSON object."""
    try:
        return isinstance(json.loads(data.decode("utf-8")), dict)
    except (ValueError, RecursionError):
        return False


@settings(max_examples=25, deadline=None)
@given(body=st.binary(min_size=1, max_size=200).filter(
    lambda data: not is_json_object(data)))
def test_bodies_that_are_not_json_objects(target, body):
    _, listing, _ = target
    answer = survives(target, lambda handle: exchange(
        handle, request("POST", listing, body=body)))
    assert statuses(answer) == [400]


# --------------------------------------------------------------------------------
# Oversized requests
# --------------------------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(length=st.integers(min_value=wire.MAX_BODY_BYTES + 1,
                          max_value=10 ** 40))
def test_oversized_bodies(target, length):
    _, listing, body = target
    answer = survives(target, lambda handle: exchange(
        handle, request("POST", listing, length=length, body=body)))
    assert statuses(answer) == [413]


@settings(max_examples=15, deadline=None)
@given(size=st.integers(min_value=wire.MAX_HEADER_BYTES, max_value=100_000),
       lines=st.integers(min_value=1, max_value=40))
def test_oversized_heads(target, size, lines):
    pad = "p" * (size // lines)
    answer = survives(target, lambda handle: exchange(handle, request(
        "GET", "/healthz", headers=[(f"X-Pad-{i}", pad) for i in range(lines)])))
    assert statuses(answer) == [431]


# --------------------------------------------------------------------------------
# Truncated and stalled requests: a request that never fully arrives
# never reaches its handler, even when it would have changed state
# --------------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(cut=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
def test_truncated_requests(target, cut):
    _, listing, body = target
    whole = request("POST", listing, body=body)
    answer = survives(target, lambda handle: exchange(
        handle, whole[:int(cut * len(whole))]))
    assert answer == b""


@settings(max_examples=10, deadline=None)
@given(cut=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
def test_stalled_requests(target, cut):
    _, listing, body = target
    whole = request("POST", listing, body=body)
    prefix = whole[:max(1, int(cut * len(whole)))]
    answer = survives(target, lambda handle: exchange(
        handle, prefix, half_close=False))
    assert statuses(answer) == [408]
