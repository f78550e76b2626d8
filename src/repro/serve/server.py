"""The asyncio HTTP serving plane (``repro serve``).

Wires the pieces together: a plain-socket server driven by the event
loop's ``add_reader`` / ``add_writer`` readiness callbacks, the
:mod:`~repro.serve.router` HTTP plumbing, the
:class:`~repro.serve.admission.AdmissionController` bounding in-flight
requests, the :class:`~repro.serve.janitor.Janitor` driving keep-alive
sweeps, and the :class:`~repro.serve.engine.ServeEngine` making every
scheduling decision through the deterministic simulator core.

One request is usually served inside one callback: the listening socket's
reader accepts a connection, receives what is already queued on it,
parses, dispatches, sends the response and closes.  A reader is
registered on the connection only while its request is incomplete, a
writer only if the kernel takes part of the response, and a task only
when the handler must wait: an ``/invoke`` that queues for an admission
slot or holds for ``time_scale > 0``, or an ``async`` route.

Endpoints (all JSON, ``Connection: close``):

* ``POST /invoke`` -- body ``{"function": <name|id>, "exec_s": <float?>}``;
  schedules the invocation, holds the connection for the simulated service
  time scaled by ``time_scale`` (0 = respond immediately), and returns the
  decision outcome.  429 when admission is full, 503 while draining.
* ``GET /stats`` -- the session's :class:`~repro.serve.stats.ServeStats`
  snapshot (counters, merged latency sketches, live cluster view).
* ``GET /healthz`` -- runs the live invariant monitors
  (:meth:`~repro.serve.engine.ServeEngine.health`); 500 with the first
  violation if any invariant is broken.
* ``POST /scheduler`` -- body ``{"scheduler": <key>}``; hot-swaps the
  decision policy.

Graceful shutdown (:meth:`ServePlane.stop`): stop accepting, let every
in-flight request finish, run a final janitor sweep, then drain the engine
so the simulator runs out its event queue and the recording closes.
"""

from __future__ import annotations

import asyncio
import socket
import time
from typing import Awaitable, Optional, Set, Union

from repro.cluster.simulator import SimulationResult
from repro.serve.admission import AdmissionController, AdmissionRejected
from repro.serve.engine import ServeClosed, ServeEngine, ServeOutcome
from repro.serve.janitor import Janitor
from repro.serve.router import (
    HttpError,
    Reply,
    Request,
    Router,
    json_response,
    read_request,
)
from repro.serve.stats import ServeStats

__all__ = ["ServePlane"]

#: Bytes asked of one ``recv``: a whole request (head and body limits are
#: 64 KiB each) usually arrives in one call.
_RECV_BYTES = 64 * 1024
#: Pending connections the listening socket queues (``asyncio.start_server``'s
#: default).
_BACKLOG = 100
#: Wall seconds the accept reader pauses after the process runs out of
#: file descriptors (asyncio's own accept retry delay).
_ACCEPT_RETRY_S = 1.0


class _Connection:
    """One accepted socket: the request bytes in, the response bytes out."""

    __slots__ = ("sock", "fd", "data", "reading", "out")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.fd = sock.fileno()
        self.data = b""
        self.reading = False
        self.out: Optional[memoryview] = None


class ServePlane:
    """One HTTP serving session over a :class:`ServeEngine`.

    Parameters
    ----------
    engine:
        The scheduling engine (owns the simulator, scheduler and recorder).
    host / port:
        Bind address; port 0 (the default) picks a free port, exposed via
        :attr:`port` after :meth:`start`.
    time_scale:
        Wall seconds each request holds its connection per simulated
        service second.  0 responds immediately (pure decision latency);
        1 would hold requests in real time.
    janitor_interval_s:
        Wall interval between keep-alive sweeps.
    max_inflight:
        Admission bound on concurrently held request slots; defaults to
        ``n_workers * worker_concurrency`` when the cluster enforces a
        concurrency limit, otherwise unbounded.
    max_queue:
        Requests allowed to wait for an admission slot before new arrivals
        are rejected with 429.
    """

    def __init__(
        self,
        engine: ServeEngine,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        time_scale: float = 0.0,
        janitor_interval_s: float = 0.05,
        max_inflight: Optional[int] = None,
        max_queue: int = 1024,
    ) -> None:
        if time_scale < 0:
            raise ValueError("time_scale must be >= 0")
        self.engine = engine
        self.host = host
        self._requested_port = port
        self.time_scale = time_scale
        config = engine.sim.config
        if max_inflight is None and config.worker_concurrency is not None:
            max_inflight = config.n_workers * config.worker_concurrency
        self.admission = AdmissionController(
            max_inflight=max_inflight, max_queue=max_queue
        )
        self.stats = ServeStats(n_workers=config.n_workers)
        self.janitor = Janitor(
            engine, stats=self.stats, interval_s=janitor_interval_s
        )
        self.router = Router()
        self.router.add("POST", "/invoke", self._invoke)
        self.router.add("GET", "/stats", self._get_stats)
        self.router.add("GET", "/healthz", self._healthz)
        self.router.add("POST", "/scheduler", self._swap_scheduler)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._listener: Optional[socket.socket] = None
        self._port = 0
        self._draining = False
        self._active_conns = 0
        self._tasks: Set[asyncio.Task] = set()
        self._conns_idle = asyncio.Event()
        self._conns_idle.set()
        self.result: Optional[SimulationResult] = None

    # -- lifecycle -----------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound TCP port (valid after :meth:`start`)."""
        if self._listener is None:
            raise RuntimeError("server not started")
        return self._port

    async def start(self) -> None:
        """Bind the listening socket and start the janitor.

        ``host`` may be a name or an IPv4 or IPv6 literal; the socket binds
        the first address it resolves to.
        """
        if self._listener is not None:
            raise RuntimeError("server already started")
        loop = asyncio.get_running_loop()
        try:
            infos = socket.getaddrinfo(
                self.host, self._requested_port, type=socket.SOCK_STREAM,
                flags=socket.AI_PASSIVE | socket.AI_NUMERICHOST,
            )
        except socket.gaierror:  # a name: resolve it off the event loop
            infos = await loop.getaddrinfo(
                self.host, self._requested_port, type=socket.SOCK_STREAM,
                flags=socket.AI_PASSIVE,
            )
        family, kind, proto, _, address = infos[0]
        listener = socket.socket(family, kind, proto)
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            if family == socket.AF_INET6:
                listener.setsockopt(socket.IPPROTO_IPV6, socket.IPV6_V6ONLY, 1)
            if hasattr(socket, "TCP_DEFER_ACCEPT"):
                # Linux: wake the accept reader only once a connection has
                # data (or a FIN), so the first recv rarely comes up empty.
                listener.setsockopt(socket.IPPROTO_TCP,
                                    socket.TCP_DEFER_ACCEPT, 1)
            listener.bind(address)
            listener.listen(_BACKLOG)
            listener.setblocking(False)
        except OSError:
            listener.close()
            raise
        self._loop = loop
        self._listener = listener
        self._port = listener.getsockname()[1]
        self._loop.add_reader(listener.fileno(), self._accept)
        self.janitor.start()

    async def stop(self) -> SimulationResult:
        """Gracefully shut down; returns the session's simulation result.

        Ordering: refuse new work (503), stop accepting connections, wait
        for every in-flight request and open connection to finish, stop the
        janitor (final sweep), then drain the engine.
        """
        if self._listener is None:
            raise RuntimeError("server not started")
        self._draining = True
        self._loop.remove_reader(self._listener.fileno())
        self._listener.close()
        await self.admission.drained()
        await self._conns_idle.wait()
        await self.janitor.stop()
        self.result = self.engine.drain()
        return self.result

    # -- endpoint handlers ---------------------------------------------------
    def _invoke(self, request: Request) -> Union[Reply, Awaitable[Reply]]:
        """``POST /invoke``: schedule one invocation and hold for service.

        With ``time_scale == 0`` and a free admission slot the decision is
        made and answered synchronously; a request that must queue for a
        slot, or hold its connection, returns a coroutine instead.
        """
        if self._draining:
            raise HttpError(503, "server is draining")
        payload = request.json()
        function = payload.get("function")
        if not isinstance(function, (str, int)):
            raise HttpError(400, "body must carry 'function' (name or id)")
        exec_s = payload.get("exec_s")
        if exec_s is not None and not isinstance(exec_s, (int, float)):
            raise HttpError(400, "'exec_s' must be a number")
        started = time.monotonic()
        if self.time_scale:
            return self._invoke_held(function, exec_s, started)
        try:
            admitted = self.admission.try_acquire()
        except AdmissionRejected as exc:
            self.stats.on_reject()
            raise HttpError(429, str(exc)) from None
        if not admitted:
            return self._invoke_held(function, exec_s, started)
        try:
            outcome = self._decide(function, exec_s)
        finally:
            self.admission.release()
        self.stats.on_wall_latency(time.monotonic() - started)
        return 200, outcome.to_json()

    async def _invoke_held(
        self, function: Union[str, int], exec_s, started: float
    ) -> Reply:
        """``/invoke`` that waits: queue for a slot, hold for the service
        time scaled by ``time_scale``, then answer."""
        try:
            async with self.admission.slot():
                outcome = self._decide(function, exec_s)
                hold_s = outcome.service_time_s * self.time_scale
                if hold_s > 0:
                    await asyncio.sleep(hold_s)
        except AdmissionRejected as exc:
            self.stats.on_reject()
            raise HttpError(429, str(exc)) from None
        self.stats.on_wall_latency(time.monotonic() - started)
        return 200, outcome.to_json()

    def _decide(self, function: Union[str, int], exec_s) -> ServeOutcome:
        """Submit one admitted request to the engine and account it."""
        try:
            outcome = self.engine.submit(function, exec_time_s=exec_s)
        except KeyError as exc:
            raise HttpError(404, str(exc)) from None
        except ValueError as exc:
            raise HttpError(400, str(exc)) from None
        except ServeClosed as exc:
            raise HttpError(503, str(exc)) from None
        self.stats.on_decision(outcome.record)
        return outcome

    def _get_stats(self, request: Request) -> Reply:
        """``GET /stats``: the bounded session statistics snapshot."""
        payload = self.stats.snapshot(self.engine)
        payload["admission"] = {
            "inflight": self.admission.inflight,
            "peak_inflight": self.admission.peak_inflight,
            "max_inflight": self.admission.max_inflight,
            "accepted": self.admission.accepted,
            "waited": self.admission.waited,
            "rejected": self.admission.rejected,
        }
        return 200, payload

    def _healthz(self, request: Request) -> Reply:
        """``GET /healthz``: live invariant-monitor checkpoint."""
        report = self.engine.health()
        return (200 if report["healthy"] else 500), report

    def _swap_scheduler(self, request: Request) -> Reply:
        """``POST /scheduler``: hot-swap the decision policy."""
        payload = request.json()
        key = payload.get("scheduler")
        if not isinstance(key, str):
            raise HttpError(400, "body must carry 'scheduler' (registry key)")
        try:
            previous = self.engine.swap_scheduler(key)
        except KeyError as exc:
            raise HttpError(400, str(exc)) from None
        return 200, {"scheduler": key, "previous": previous}

    # -- connection plumbing -------------------------------------------------
    def _accept(self) -> None:
        """Listening socket readable: accept one connection and serve what
        it has already sent."""
        try:
            sock, _ = self._listener.accept()
        except (BlockingIOError, InterruptedError, ConnectionAbortedError):
            return
        except OSError:
            # Out of descriptors (or buffers): stop polling the listener
            # for a moment instead of spinning on a readiness that cannot
            # be served.
            self._loop.remove_reader(self._listener.fileno())
            self._loop.call_later(_ACCEPT_RETRY_S, self._resume_accept)
            return
        sock.setblocking(False)
        self._active_conns += 1
        self._conns_idle.clear()
        self._receive(_Connection(sock))

    def _resume_accept(self) -> None:
        if not self._draining:
            self._loop.add_reader(self._listener.fileno(), self._accept)

    def _receive(self, conn: _Connection) -> None:
        """Take what is queued on ``conn``; serve the request once it is
        complete, else wait for more with a reader on the socket."""
        try:
            data = conn.sock.recv(_RECV_BYTES)
        except (BlockingIOError, InterruptedError):
            self._read_more(conn)
            return
        except OSError:
            self._close(conn)
            return
        if not data:
            # The peer closed its side: nothing sent is a silent close; a
            # partial request is answered, for a peer that only half-closed.
            if not conn.data:
                self._close(conn)
            else:
                part = "body" if b"\r\n\r\n" in conn.data else "head"
                self._reply_error(
                    conn, HttpError(400, f"truncated request {part}"))
            return
        conn.data += data
        try:
            request = read_request(conn.data)
            if request is None:
                self._read_more(conn)
                return
            result = self.router.dispatch(request)
            if not isinstance(result, tuple):
                self._stop_reading(conn)
                task = self._loop.create_task(self._finish(conn, result))
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)
                return
            response = json_response(*result)
        except Exception as exc:
            self._reply_error(conn, exc)
            return
        self._send(conn, response)

    def _read_more(self, conn: _Connection) -> None:
        """Call :meth:`_receive` again when more of the request arrives."""
        if not conn.reading:
            conn.reading = True
            self._loop.add_reader(conn.fd, self._receive, conn)

    def _stop_reading(self, conn: _Connection) -> None:
        if conn.reading:
            conn.reading = False
            self._loop.remove_reader(conn.fd)

    async def _finish(self, conn: _Connection, pending) -> None:
        """Await a handler that must wait, then answer on ``conn``."""
        try:
            status, payload = await pending
            response = json_response(status, payload)
        except asyncio.CancelledError:
            self._close(conn)
            raise
        except Exception as exc:
            self._reply_error(conn, exc)
            return
        self._send(conn, response)

    def _reply_error(self, conn: _Connection, exc: Exception) -> None:
        """Answer a failed request: its HTTP status, or 500 if unexpected."""
        if isinstance(exc, HttpError):
            if exc.status >= 500 or exc.status == 404:
                self.stats.on_error()
            status, payload = exc.status, {"error": exc.message}
        else:
            self.stats.on_error()
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        self._send(conn, json_response(status, payload))

    def _send(self, conn: _Connection, response: bytes) -> None:
        """Send ``response`` and close; a writer takes over what the
        kernel does not accept at once."""
        self._stop_reading(conn)
        try:
            sent = conn.sock.send(response)
        except (BlockingIOError, InterruptedError):
            sent = 0
        except OSError:
            self._close(conn)
            return
        if sent == len(response):
            self._close(conn)
            return
        conn.out = memoryview(response)[sent:]
        self._loop.add_writer(conn.fd, self._flush, conn)

    def _flush(self, conn: _Connection) -> None:
        """Socket writable: send more of the pending response."""
        try:
            sent = conn.sock.send(conn.out)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close(conn)
            return
        conn.out = conn.out[sent:]
        if not conn.out:
            self._close(conn)

    def _close(self, conn: _Connection) -> None:
        """Unregister and close ``conn``; the last one sets the idle event."""
        self._stop_reading(conn)
        if conn.out is not None:
            self._loop.remove_writer(conn.fd)
        conn.sock.close()
        self._active_conns -= 1
        if self._active_conns == 0:
            self._conns_idle.set()
