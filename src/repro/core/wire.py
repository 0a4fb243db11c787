"""The one HTTP/1.1 JSON layer under the study service and the session fleet.

Both servers are single-threaded asyncio on stdlib streams with
synchronous handlers, so every state transition is atomic with respect
to the wire — no locks.  An *app* (``DseService``, ``SessionManager``)
supplies ``routes()`` — ``[(method, pattern, name, handler)]``, where
``{...}`` segments of a pattern are passed to ``handler(body, *params)``
and the handler returns the JSON answer, or an async generator that is
streamed as chunked NDJSON — plus ``telemetry`` (a
:class:`~repro.core.telemetry.Telemetry`), the name of its per-route
request counter (``http_counter``) and a :class:`FaultInjector`
(``faults``).  A handler refuses with an :class:`HttpError` (any other
exception is a 500 that keeps the connection loop alive).

Requests are parsed against fixed limits.  A malformed request line or
``Content-Length`` is a 400, a body over :data:`MAX_BODY_BYTES` a 413
(refused before the body is read), a head over :data:`MAX_HEADER_BYTES`
a 431, and a request still incomplete :data:`READ_TIMEOUT` seconds after
its first byte a 408; each is answered, then the connection closed.  A
truncated request never reaches a handler, and a JSON body that is not
an object is a 400.
"""

from __future__ import annotations

import asyncio
import contextlib
import http.client
import inspect
import json
import threading
import time
import urllib.parse

#: Most bytes in a request line plus headers.  The in-repo clients send
#: about 200; 16 KiB is a common server default and sits below asyncio's
#: 64 KiB line limit, so every over-long head is a 431.
MAX_HEADER_BYTES = 16 * 1024

#: Most bytes in a request body.  The largest in-repo body is a firmware
#: upload of a few KiB; 16 MiB admits an 8 MiB binary sent as hex and
#: still bounds what one request makes a server buffer.
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Seconds from a request's first byte to its last.  The wait for that
#: first byte has no limit: clients hold one keep-alive connection
#: across calls.  A stalled partial request frees its connection here.
READ_TIMEOUT = 30.0

#: Seconds spent draining a refused request's rest before the close (a
#: close with unread input resets the connection, overtaking the answer).
LINGER_SECONDS = 1.0


class HttpError(Exception):
    """A request the server refuses; carries the HTTP status."""

    def __init__(self, message, status=400):
        super().__init__(message)
        self.status = status


class FaultInjector:
    """Planned failures for the adversarial suites.

    ``plan(route, count, kind)`` queues faults on a route name:
    ``"error"`` answers with an HTTP 5xx, ``"drop"`` severs the
    connection without executing the handler, and ``"drop_after"``
    executes the handler but severs the connection before the response —
    the lost-response case that forces a client to retry an
    already-applied request.  Faults are consumed FIFO, one per request.
    """

    def __init__(self):
        self._plans = {}
        self.injected = 0

    def plan(self, route, count=1, kind="error", status=500):
        if kind not in ("error", "drop", "drop_after"):
            raise ValueError(f"unknown fault kind {kind!r}")
        self._plans.setdefault(route, []).extend([(kind, status)] * count)

    def take(self, route):
        plans = self._plans.get(route)
        if plans:
            self.injected += 1
            return plans.pop(0)
        return None

    def pending(self):
        return sum(len(v) for v in self._plans.values())


# --------------------------------------------------------------------------------
# The server
# --------------------------------------------------------------------------------

async def _read_request(reader):
    """The next ``(method, target, headers, body)``; None when the
    connection ends first.  Raises :class:`HttpError` to refuse one."""
    try:
        first = await reader.readexactly(1)  # an idle connection: no limit
    except (asyncio.IncompleteReadError, ConnectionError,
            asyncio.TimeoutError):  # a timer that fired as a request ended
        return None
    # A timer failing the pending read: wait_for would cost a task per request.
    timer = asyncio.get_running_loop().call_later(
        READ_TIMEOUT, reader.set_exception, asyncio.TimeoutError())
    try:
        return await _read_rest(reader, first)
    except asyncio.TimeoutError:
        raise HttpError(f"request took over {READ_TIMEOUT} s", 408) from None
    except (asyncio.IncompleteReadError, ConnectionError):
        return None  # closed mid-request
    finally:
        timer.cancel()


async def _read_rest(reader, first):
    lines, size, line = [], 0, first
    while True:
        try:
            if not line.endswith(b"\n"):
                line += await reader.readline()
        except ValueError:  # a line past the stream limit
            size = MAX_HEADER_BYTES + 1
        size += len(line)
        if size > MAX_HEADER_BYTES:
            raise HttpError(f"request head over {MAX_HEADER_BYTES} bytes", 431)
        if not line.endswith(b"\n"):
            raise asyncio.IncompleteReadError(line, None)  # closed mid-head
        if line in (b"\r\n", b"\n"):
            break
        lines.append(line.decode("latin-1").rstrip("\r\n"))
        line = b""
    parts = lines[0].split(" ") if lines else []
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise HttpError(f"malformed request line {lines[:1]!r:.80}")
    headers = {}
    for header in lines[1:]:
        name, _, value = header.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = headers.get("content-length", "0")
    if not (length.isascii() and length.isdigit()):
        raise HttpError(f"malformed Content-Length {length!r:.80}")
    if len(length) > 18 or int(length) > MAX_BODY_BYTES:  # 18: int() stays cheap
        raise HttpError(f"body over {MAX_BODY_BYTES} bytes", 413)
    return parts[0].upper(), parts[1], headers, await reader.readexactly(
        int(length))


class HttpServer:
    """Serves one app over HTTP/1.1 on asyncio streams."""

    def __init__(self, app, host="127.0.0.1", port=0):
        self.app = app
        self.host = host
        self.port = port
        self.routes = [(method, pattern.split("/"), name, handler)
                       for method, pattern, name, handler in app.routes()]
        self._connections = set()

    async def start(self):
        server = await asyncio.start_server(self._accept, self.host, self.port)
        self.port = server.sockets[0].getsockname()[1]
        return server

    def _accept(self, reader, writer):
        # The connection runs in a task of ours, not one asyncio makes from
        # a coroutine: on Pythons 3.11 and 3.12 asyncio logs a traceback
        # for its task ending cancelled, as every open one does at stop().
        # The set holds each task, which the loop references only weakly.
        task = asyncio.get_running_loop().create_task(
            self._serve_connection(reader, writer))
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _serve_connection(self, reader, writer):
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except HttpError as error:
                    await _refuse(reader, writer, error)
                    break
                if request is None:
                    break
                method, target, headers, body = request
                if not await self._respond(method, target, body, writer):
                    break
                if headers.get("connection", "").lower() == "close":
                    break
        except ConnectionError:
            pass  # the client left mid-answer
        finally:
            with contextlib.suppress(OSError):
                writer.close()

    async def _respond(self, method, target, body, writer):
        """Route and answer one request; False closes the connection."""
        app = self.app
        name, handler, params = self._match(method, target.partition("?")[0])
        app.telemetry.counter(app.http_counter, route=name).inc()
        fault = app.faults.take(name)
        if fault is not None:
            kind, status = fault
            if kind == "drop":
                return False  # sever before the handler runs
            if kind == "error":
                await _send(writer, status, {"error": "injected fault"})
                return True
        status, result = _call(handler, body, params)
        if fault is not None:
            return False  # "drop_after": applied, but the answer is lost
        if inspect.isasyncgen(result):
            await _stream(writer, result)
            return False  # a stream ends with its connection
        await _send(writer, status, result)
        return True

    def _match(self, method, path):
        parts = [part for part in path.split("/") if part]
        for route_method, pattern, name, handler in self.routes:
            if route_method == method and len(pattern) == len(parts) and all(
                    key == part or key.startswith("{")
                    for key, part in zip(pattern, parts)):
                return name, handler, [part for key, part in zip(pattern, parts)
                                       if key.startswith("{")]

        def unknown(body):
            raise HttpError(f"no route {method} /{'/'.join(parts)}", 404)
        return "unknown", unknown, []


def _call(handler, body, params):
    """``(status, answer)`` of one handler call on a raw JSON body."""
    try:
        payload = json.loads(body.decode("utf-8")) if body else {}
    except (ValueError, RecursionError):
        return 400, {"error": "malformed JSON body"}
    if not isinstance(payload, dict):
        return 400, {"error": "the JSON body must be an object"}
    try:
        return 200, handler(payload, *params)
    except HttpError as error:
        return error.status, {"error": str(error)}
    except Exception as error:  # never kill the connection loop
        return 500, {"error": f"internal error: {error!r}"}


async def _send(writer, status, payload, close=False):
    """One complete HTTP/1.1 response carrying ``payload`` as JSON."""
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    writer.write(
        f"HTTP/1.1 {status} {http.client.responses.get(status, 'Status')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'close' if close else 'keep-alive'}\r\n\r\n"
        .encode("latin-1") + body)
    await writer.drain()


async def _refuse(reader, writer, error):
    """Answer, then linger: half-close and drain what the client still sends."""
    with contextlib.suppress(OSError, asyncio.TimeoutError):
        await _send(writer, error.status, {"error": str(error)}, close=True)
        writer.write_eof()
        await asyncio.wait_for(_drain(reader), LINGER_SECONDS)


async def _drain(reader):
    while await reader.read(64 * 1024):
        pass


async def _stream(writer, items):
    """Chunked NDJSON: one JSON line per item, ending with the items."""
    try:
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: application/x-ndjson\r\n"
                     b"Transfer-Encoding: chunked\r\n"
                     b"Connection: close\r\n\r\n")
        async for item in items:
            chunk = (json.dumps(item, sort_keys=True) + "\n").encode()
            writer.write(b"%x\r\n%s\r\n" % (len(chunk), chunk))
            await writer.drain()
        writer.write(b"0\r\n\r\n")
        await writer.drain()
    except OSError:
        pass  # the subscriber went away
    finally:
        await items.aclose()


def serve(app, host="127.0.0.1", port=0):
    """Serve ``app`` in the foreground until interrupted."""
    async def main():
        server = await HttpServer(app, host, port).start()
        await server.serve_forever()
    asyncio.run(main())


class ServerThread:
    """An app served on a background thread with its own event loop
    (tests, benchmarks, and self-contained in-process runs)."""

    def __init__(self, app, host="127.0.0.1", port=0):
        self._http = HttpServer(app, host, port)
        self._loop = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=10.0):
            raise RuntimeError(f"{type(self).__name__} failed to start")

    def _run(self):
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        server = loop.run_until_complete(self._http.start())
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            # End the connections first: newer Pythons' wait_closed awaits them.
            server.close()
            tasks = asyncio.all_tasks(loop)
            for task in tasks:
                task.cancel()
            if tasks:
                loop.run_until_complete(
                    asyncio.gather(*tasks, return_exceptions=True))
            loop.run_until_complete(server.wait_closed())
            loop.close()

    @property
    def url(self):
        return f"http://{self._http.host}:{self._http.port}"

    def stop(self):
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.stop()
        return False


# --------------------------------------------------------------------------------
# The client
# --------------------------------------------------------------------------------

class ServiceUnavailable(ConnectionError):
    """The server stayed unreachable through every retry."""


class ClientError(RuntimeError):
    """An HTTP error answer the client does not retry."""

    def __init__(self, status, payload):
        super().__init__(f"HTTP {status}: {payload.get('error', payload)}")
        self.status = status
        self.payload = payload


def _decode(data):
    try:
        return json.loads(data.decode("utf-8")) if data else {}
    except ValueError:
        return {"error": data.decode("utf-8", "replace")}


class JsonClient:
    """JSON over HTTP/1.1 on one keep-alive stdlib connection.

    Connection errors, timeouts and HTTP 5xx are retried up to
    ``max_retries`` times, backing off exponentially from ``backoff`` to
    ``backoff_cap`` seconds (``sleep`` is injectable); then
    :class:`ServiceUnavailable` is raised.  With ``max_retries=0`` a 5xx
    raises like any other error answer.
    """

    def __init__(self, base_url, timeout=30.0, max_retries=8, backoff=0.05,
                 backoff_cap=2.0, sleep=time.sleep):
        parsed = urllib.parse.urlsplit(base_url)
        if parsed.scheme not in ("http", ""):
            raise ValueError(f"unsupported scheme in {base_url!r}")
        self.host = parsed.hostname or "127.0.0.1"
        self.port = parsed.port or 80
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self.sleep = sleep
        self.retries = 0  # transient failures survived (observability)
        self._conn = None

    #: The exception an HTTP error answer raises: ``error(status, payload)``.
    error = ClientError

    def _new_connection(self):
        return http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)

    def request(self, method, path, payload=None):
        """One API call: the JSON answer, or the exception of its error."""
        body = json.dumps(payload).encode() if payload is not None else b""
        attempt = 0
        while True:
            try:
                if self._conn is None:
                    self._conn = self._new_connection()
                self._conn.request(method, path, body=body, headers={
                    "Content-Type": "application/json"})
                response = self._conn.getresponse()
                data = response.read()
            except (OSError, http.client.HTTPException) as error:
                self.close()
                attempt = self._retry(attempt, f"{method} {path}: {error!r}",
                                      error)
                continue
            result = _decode(data)
            if response.status >= 500 and self.max_retries:
                attempt = self._retry(
                    attempt, f"{method} {path}: HTTP {response.status}")
            elif response.status >= 400:
                raise self.error(response.status, result)
            else:
                return result

    def _retry(self, attempt, failure, cause=None):
        """Back off before retry ``attempt + 1``, or give up."""
        if attempt >= self.max_retries:
            raise ServiceUnavailable(
                f"{failure} persisted through {self.max_retries} retries"
            ) from cause
        self.retries += 1
        self.sleep(min(self.backoff_cap, self.backoff * 2 ** attempt))
        return attempt + 1

    def stream(self, path):
        """Yield the JSON lines of a chunked NDJSON answer, read on a
        dedicated connection that closes with the stream."""
        conn = self._new_connection()
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            if response.status != 200:
                raise self.error(response.status, _decode(response.read()))
            yield from map(json.loads, iter(response.readline, b""))
        finally:
            conn.close()

    def close(self):
        if self._conn is not None:
            with contextlib.suppress(OSError):
                self._conn.close()
            self._conn = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False
