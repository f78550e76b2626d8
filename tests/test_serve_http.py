"""End-to-end HTTP tests for the serving plane: every endpoint and status
code, admission-control rejection, and the headline acceptance check --
64 concurrent in-flight requests with live invariant monitors clean.  Then
the request parser's split property (any cut of a request's bytes parses
as the whole does), the connection path at the socket level, the literal
response bytes, and the admission-wait counter of ``/stats``.

pytest-asyncio is not a dependency, so each test is a synchronous function
running its async body through ``asyncio.run``.  Engines take a scripted
:class:`VirtualClock` as their wall source so arrival stamps are
deterministic; only connection holds (``time_scale``) consume real time.
"""

import asyncio
import json
import socket

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.eventloop import VirtualClock
from repro.cluster.simulator import SimulationConfig
from repro.serve import DecisionRecorder, ServeEngine, ServePlane, http_json
from repro.serve.client import http_json as client_http_json
from repro.serve.router import HttpError, Request, read_request


def _plane(config=None, *, engine_kwargs=None, **plane_kwargs):
    """Build an (engine, plane, clock) triple on a free port (unstarted)."""
    clock = VirtualClock()
    config = config or SimulationConfig(pool_capacity_mb=8192.0, n_workers=2)
    engine = ServeEngine(config, wall=clock, **(engine_kwargs or {}))
    plane = ServePlane(engine, **plane_kwargs)
    return engine, plane, clock


async def _serving(plane, body):
    """Start ``plane``, run ``body()``, always shut down cleanly."""
    await plane.start()
    try:
        return await body()
    finally:
        if not plane.engine.closed:
            await plane.stop()


class TestEndpoints:
    def test_invoke_returns_decision(self):
        engine, plane, clock = _plane()

        async def body():
            clock.advance_to(1.0)
            status, payload = await http_json(
                plane.host, plane.port, "POST", "/invoke",
                {"function": "hello-python", "exec_s": 0.25},
            )
            assert status == 200
            assert payload["function"] == "hello-python"
            assert payload["cold_start"] is True
            assert payload["arrival_t"] == 1.0
            assert payload["exec_time_s"] == 0.25
            return payload

        asyncio.run(_serving(plane, body))

    def test_invoke_by_numeric_id(self):
        engine, plane, _ = _plane()

        async def body():
            status, payload = await http_json(
                plane.host, plane.port, "POST", "/invoke", {"function": 4}
            )
            assert status == 200 and payload["function"] == "hello-python"

        asyncio.run(_serving(plane, body))

    def test_error_statuses(self):
        engine, plane, _ = _plane()

        async def body():
            host, port = plane.host, plane.port
            # 404: unknown function name.
            status, payload = await http_json(
                host, port, "POST", "/invoke", {"function": "no-such-fn"}
            )
            assert status == 404 and "error" in payload
            # 400: missing / mistyped fields.
            status, _ = await http_json(host, port, "POST", "/invoke", {})
            assert status == 400
            status, _ = await http_json(
                host, port, "POST", "/invoke",
                {"function": "hello-python", "exec_s": "fast"},
            )
            assert status == 400
            # 404: unknown path; 405: wrong method on a known path.
            status, _ = await http_json(host, port, "GET", "/nope")
            assert status == 404
            status, _ = await http_json(host, port, "GET", "/invoke")
            assert status == 405
            # 400: malformed JSON body.
            reader, writer = await asyncio.open_connection(host, port)
            raw = b"not json"
            writer.write(
                b"POST /invoke HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: %d\r\nConnection: close\r\n\r\n%s"
                % (len(raw), raw)
            )
            await writer.drain()
            response = await reader.read()
            writer.close()
            assert b"400" in response.split(b"\r\n", 1)[0]

        asyncio.run(_serving(plane, body))

    def test_stats_and_scheduler_swap(self):
        engine, plane, clock = _plane()

        async def body():
            host, port = plane.host, plane.port
            clock.advance_to(1.0)
            await http_json(host, port, "POST", "/invoke",
                            {"function": "hello-python", "exec_s": 0.1})
            status, payload = await http_json(
                host, port, "POST", "/scheduler", {"scheduler": "greedy"}
            )
            assert status == 200
            assert payload == {"scheduler": "greedy", "previous": "lru"}
            status, _ = await http_json(
                host, port, "POST", "/scheduler", {"scheduler": "bogus"}
            )
            assert status == 400

            status, stats = await http_json(host, port, "GET", "/stats")
            assert status == 200
            assert stats["scheduler"] == "greedy"
            assert stats["scheduler_swaps"] == 1
            assert stats["requests"] == 1
            assert stats["cold_starts"] == 1
            assert stats["startup_latency"]["count"] == 1
            assert stats["wall_latency"]["count"] == 1
            assert stats["admission"]["accepted"] == 1
            assert json.dumps(stats)  # entire snapshot is JSON-clean

        asyncio.run(_serving(plane, body))

    def test_healthz_reports_monitor_state(self):
        config = SimulationConfig(
            pool_capacity_mb=8192.0, n_workers=2, verify=True
        )
        engine, plane, clock = _plane(config)

        async def body():
            host, port = plane.host, plane.port
            clock.advance_to(1.0)
            await http_json(host, port, "POST", "/invoke",
                            {"function": "hello-python"})
            status, report = await http_json(host, port, "GET", "/healthz")
            assert status == 200
            assert report["healthy"] and report["verified"]
            # Corrupt the books: the live monitors must turn the page red.
            engine.sim.lifecycle.created_count += 1
            status, report = await http_json(host, port, "GET", "/healthz")
            assert status == 500
            assert not report["healthy"]
            assert "conservation" in report["violation"]
            # Restore so shutdown-time verification stays clean.
            engine.sim.lifecycle.created_count -= 1

        asyncio.run(_serving(plane, body))

    def test_rejects_with_429_when_admission_full(self):
        engine, plane, clock = _plane(
            time_scale=0.2, max_inflight=2, max_queue=0
        )

        async def body():
            host, port = plane.host, plane.port
            clock.advance_to(1.0)

            async def invoke():
                return await http_json(
                    host, port, "POST", "/invoke",
                    {"function": "hello-python", "exec_s": 1.0},
                )

            # Two requests occupy both slots (held ~0.5s wall each)...
            first_two = [asyncio.create_task(invoke()) for _ in range(2)]
            await asyncio.sleep(0.15)
            # ...so the third finds no slot and no queue.
            status, payload = await invoke()
            assert status == 429 and "error" in payload
            assert all(s == 200 for s, _ in await asyncio.gather(*first_two))

            status, stats = await http_json(host, port, "GET", "/stats")
            assert stats["rejected"] == 1
            assert stats["admission"]["rejected"] == 1
            assert stats["admission"]["max_inflight"] == 2

        asyncio.run(_serving(plane, body))

    def test_503_while_draining(self):
        engine, plane, _ = _plane()

        async def body():
            plane._draining = True
            status, payload = await http_json(
                plane.host, plane.port, "POST", "/invoke",
                {"function": "hello-python"},
            )
            assert status == 503 and "drain" in payload["error"]
            plane._draining = False

        asyncio.run(_serving(plane, body))

    def test_client_alias_is_the_package_export(self):
        assert http_json is client_http_json


class TestConcurrency:
    def test_sustains_64_concurrent_inflight_with_clean_monitors(self):
        """Acceptance: >= 64 requests simultaneously in flight, invariant
        monitors live the whole time, every request served."""
        config = SimulationConfig(
            pool_capacity_mb=300_000.0,
            n_workers=4,
            worker_concurrency=16,
            verify=True,
            bounded_telemetry=True,
        )
        engine, plane, clock = _plane(
            config,
            engine_kwargs={"recorder": DecisionRecorder()},
            time_scale=0.08,  # ~0.3-0.6s wall holds; plenty of overlap
        )
        assert plane.admission.max_inflight == 64

        async def body():
            host, port = plane.host, plane.port
            clock.advance_to(1.0)

            async def invoke(i):
                return await http_json(
                    host, port, "POST", "/invoke",
                    {"function": ("hello-python", "hello-node",
                                  "hello-go", "hello-java")[i % 4],
                     "exec_s": 2.0},
                    timeout_s=60.0,
                )

            results = await asyncio.gather(*(invoke(i) for i in range(64)))
            assert all(status == 200 for status, _ in results)

            status, report = await http_json(host, port, "GET", "/healthz")
            assert status == 200 and report["healthy"]
            status, stats = await http_json(host, port, "GET", "/stats")
            assert stats["requests"] == 64
            assert stats["admission"]["peak_inflight"] >= 64
            assert stats["errors"] == 0

        asyncio.run(_serving(plane, body))
        # The session recorded every decision; replay must agree.
        from repro.serve import replay_recording

        report = replay_recording(engine.recorder.lines(), verify=True)
        assert report.ok, str(report.divergence)
        assert report.n_decisions == 64


class TestCliServeWiring:
    def test_cmd_serve_builds_and_drains(self, tmp_path, monkeypatch, capsys):
        """`repro serve` wires config flags through to a live plane and
        prints the drained summary when interrupted."""
        from repro import cli

        record = tmp_path / "session.jsonl"

        # cmd_serve parks on the *first* Event.wait (its forever-wait);
        # interrupt only that one so the shutdown path's own Event waits
        # (connection drain, admission drain) still work.
        real_wait = asyncio.Event.wait
        calls = {"n": 0}

        async def fake_wait(self):
            calls["n"] += 1
            if calls["n"] == 1:
                raise KeyboardInterrupt
            return await real_wait(self)

        monkeypatch.setattr(asyncio.Event, "wait", fake_wait, raising=True)
        rc = cli.main([
            "serve", "--port", "0", "--scheduler", "keepalive",
            "--workers", "2", "--concurrency", "4",
            "--keepalive", "30", "--record", str(record),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "serving" in out.lower()
        assert record.exists()
        header = json.loads(record.read_text().splitlines()[0])
        assert header["scheduler"] == "keepalive"
        assert header["worker_concurrency"] == 4


# ---------------------------------------------------------------------------
# The request parser: a pure function over the bytes received so far
# ---------------------------------------------------------------------------


_MAX = 64 * 1024


def _parse(data):
    """``read_request`` folded to a comparable value: ``None`` (need
    more), the ``Request``, or ``(status, message)`` of its ``HttpError``."""
    try:
        return read_request(data)
    except HttpError as exc:
        return (exc.status, exc.message)


def _fed_in_pieces(data, cuts):
    """Feed ``data`` cumulatively, cut at ``cuts``; the first decided result
    (or ``None`` if the whole buffer is still incomplete)."""
    for end in sorted(set(cuts)) + [len(data)]:
        outcome = _parse(data[:end])
        if outcome is not None:
            return outcome, end
    return None, len(data)


_token = st.text(alphabet="abcdefghijklmnopqrstuvwxyz-/", min_size=1,
                 max_size=8)


@st.composite
def _requests(draw):
    """Request bytes: well formed, or with one of the faults the parser
    must turn into a 4xx, or truncated, with optional trailing bytes."""
    method = draw(st.sampled_from(["GET", "POST", "PUT"]))
    path = "/" + draw(_token) + draw(st.sampled_from(["", "?q=1"]))
    body = draw(st.binary(max_size=64))
    fault = draw(st.sampled_from([
        None, "no_length", "negative", "non_numeric", "oversized_body",
        "oversized_head", "request_line", "header_line", "truncated",
    ]))
    request_line = f"{method} {path} HTTP/1.1"
    if fault == "request_line":
        request_line = draw(st.sampled_from(
            [f"{method} {path}", f"{method}  {path} HTTP/1.1", "", "GET"]
        ))
    headers = [f"Host: {draw(_token)}"]
    if fault == "header_line":
        headers.append(draw(_token).replace(":", ""))
    if fault == "oversized_head":
        headers.append("X-Pad: " + "p" * _MAX)
    length = str(len(body))
    if fault == "negative":
        length = "-" + str(draw(st.integers(1, 99)))
    elif fault == "non_numeric":
        length = draw(st.sampled_from(["ten", "1.5", "", "0x10"]))
    elif fault == "oversized_body":
        length = str(_MAX + draw(st.integers(1, 10)))
    if fault == "no_length":
        body = b""
    else:
        headers.append(f"Content-Length: {length}")
    data = ("\r\n".join([request_line] + headers) + "\r\n\r\n").encode(
        "latin-1") + body
    if fault == "truncated":
        data = data[:draw(st.integers(0, len(data) - 1))]
    elif draw(st.booleans()):
        data += draw(st.binary(min_size=1, max_size=32))  # trailing bytes
    return data


class TestParserSplits:
    @settings(max_examples=300, deadline=None)
    @given(draw=st.data())
    def test_any_split_gives_the_whole_buffers_result(self, draw):
        """Cut anywhere, fed cumulatively, a request parses to the same
        ``Request`` or the same 4xx as the whole buffer; nothing else is
        ever raised, and a decision is never taken before its bytes."""
        data = draw.draw(_requests())
        cuts = draw.draw(st.lists(st.integers(0, len(data)), max_size=8))
        whole = _parse(data)
        if isinstance(whole, tuple):
            assert 400 <= whole[0] < 500
        else:
            assert whole is None or isinstance(whole, Request)
        assert _fed_in_pieces(data, cuts)[0] == whole
        # Every cut of a small request; every 997th of an oversized one.
        step = 1 if len(data) < 4096 else 997
        assert _fed_in_pieces(data, range(1, len(data), step))[0] == whole

    def test_byte_by_byte_matches_whole(self):
        data = (b"POST /invoke?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 4"
                b"\r\n\r\nbodyTRAILING")
        whole = _parse(data)
        assert whole.method == "POST" and whole.path == "/invoke"
        assert whole.body == b"body"
        outcome, end = _fed_in_pieces(data, range(1, len(data)))
        assert outcome == whole
        assert end == data.index(b"TRAILING")

    @pytest.mark.parametrize("data, status, message", [
        (b"GET /\r\n\r\n", 400, "malformed request line: 'GET /'"),
        (b"GET / HTTP/1.1\r\nbogus\r\n\r\n", 400,
         "malformed header line: 'bogus'"),
        (b"POST / HTTP/1.1\r\nContent-Length: x\r\n\r\n", 400,
         "bad Content-Length: 'x'"),
        (b"POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400,
         "unacceptable Content-Length: -1"),
        (b"POST / HTTP/1.1\r\nContent-Length: 65537\r\n\r\n", 400,
         "unacceptable Content-Length: 65537"),
        (b"G" * _MAX, 400, "request head too large"),
    ], ids=["request_line", "header_line", "non_numeric_length",
            "negative_length", "oversized_body", "oversized_head"])
    def test_error_messages(self, data, status, message):
        assert _parse(data) == (status, message)

    def test_incomplete_input_needs_more(self):
        assert read_request(b"") is None
        assert read_request(b"GET / HTTP/1.1\r\nHost") is None
        assert read_request(b"G" * (_MAX - 1)) is None
        assert read_request(
            b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nabc") is None


# ---------------------------------------------------------------------------
# The connection path, at the socket level
# ---------------------------------------------------------------------------

def _raw_request(method, path, body=b""):
    return (f"{method} {path} HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode() + body


async def _exchange(plane, pieces, pause_s=0.0):
    """Write ``pieces`` on one connection (pausing between them) and read
    the whole response."""
    reader, writer = await asyncio.open_connection(plane.host, plane.port)
    for piece in pieces:
        writer.write(piece)
        await writer.drain()
        if pause_s:
            await asyncio.sleep(pause_s)
    response = await reader.read()
    writer.close()
    await writer.wait_closed()
    return response


async def _until(predicate, timeout_s=5.0):
    deadline = asyncio.get_running_loop().time() + timeout_s
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, "timed out"
        await asyncio.sleep(0.005)


_HEAD = (b"Content-Type: application/json\r\nContent-Length: %d\r\n"
         b"Connection: close\r\n\r\n")


class TestConnectionPath:
    def test_one_byte_pieces_get_the_same_response_bytes(self):
        engine, plane, _ = _plane()
        data = _raw_request("POST", "/scheduler", b'{"scheduler":"lru"}')

        async def body():
            whole = await _exchange(plane, [data])
            pieces = [data[i:i + 1] for i in range(len(data))]
            split = await _exchange(plane, pieces, pause_s=0.001)
            assert split == whole
            assert whole.startswith(b"HTTP/1.1 200 OK\r\n")
            assert plane._active_conns == 0

        asyncio.run(_serving(plane, body))

    def test_peer_closing_before_or_mid_request_leaves_nothing_open(self):
        engine, plane, _ = _plane()

        async def body():
            for sent in (b"", b"POST /invoke HTTP/1.1\r\nHo"):
                _, writer = await asyncio.open_connection(plane.host,
                                                          plane.port)
                writer.write(sent)
                await writer.drain()
                writer.close()
                await writer.wait_closed()
                await _until(lambda: plane._active_conns == 0)
            # A peer that half-closes mid-head is told so, with a 400.
            reader, writer = await asyncio.open_connection(plane.host,
                                                           plane.port)
            writer.write(b"POST /invoke HTTP/1.1\r\nHo")
            writer.write_eof()
            response = await reader.read()
            writer.close()
            assert response.startswith(b"HTTP/1.1 400 Bad Request\r\n")
            assert response.endswith(b'{"error":"truncated request head"}')
            await _until(lambda: plane._active_conns == 0)
            assert plane.stats.errors == 0
            await asyncio.wait_for(plane.stop(), timeout=5.0)

        asyncio.run(_serving(plane, body))
        assert engine.closed

    def test_immediate_invoke_creates_no_task(self):
        engine, plane, clock = _plane()
        data = _raw_request("POST", "/invoke", b'{"function":"hello-python"}')

        async def body():
            loop = asyncio.get_running_loop()
            clock.advance_to(1.0)
            reader, writer = await asyncio.open_connection(plane.host,
                                                           plane.port)
            created = []
            real = loop.create_task

            def counting(coro, **kwargs):
                created.append(coro)
                return real(coro, **kwargs)

            loop.create_task = counting
            try:
                writer.write(data)
                await writer.drain()
                response = await reader.read()
            finally:
                del loop.create_task
            writer.close()
            assert response.startswith(b"HTTP/1.1 200 OK\r\n")
            assert created == []
            assert plane.admission.accepted == 1
            assert plane.admission.waited == 0

        asyncio.run(_serving(plane, body))

    def test_held_request_keeps_its_slot_until_answered(self):
        engine, plane, clock = _plane(time_scale=0.2, max_inflight=1,
                                      max_queue=0)
        invoke = _raw_request(
            "POST", "/invoke", b'{"function":"hello-python","exec_s":1.0}')

        async def body():
            clock.advance_to(1.0)
            first = asyncio.ensure_future(_exchange(plane, [invoke]))
            await _until(lambda: plane.admission.accepted == 1)
            # Held ~0.4 s wall: the slot is taken until the answer goes out.
            await asyncio.sleep(0.1)
            assert not first.done() and plane.admission.inflight == 1
            second = await _exchange(plane, [invoke])
            assert second.startswith(b"HTTP/1.1 429 ")
            response = await first
            assert response.startswith(b"HTTP/1.1 200 OK\r\n")
            assert plane.admission.inflight == 0
            assert plane.admission.rejected == 1

        asyncio.run(_serving(plane, body))

    def test_partial_send_finishes_through_the_writer(self):
        """A response larger than the socket takes at once is sent in part,
        then finished by a writer callback before the socket closes."""
        from repro.serve.server import _Connection

        engine, plane, _ = _plane()
        response = bytes(range(256)) * 8192  # 2 MiB

        async def body():
            server_end, client_end = socket.socketpair()
            server_end.setblocking(False)
            client_end.setblocking(False)
            loop = asyncio.get_running_loop()
            plane._active_conns += 1
            plane._conns_idle.clear()
            conn = _Connection(server_end)
            plane._send(conn, response)
            assert conn.out is not None and len(conn.out) > 0
            received = bytearray()
            while True:
                chunk = await loop.sock_recv(client_end, 65536)
                if not chunk:
                    break
                received += chunk
            client_end.close()
            assert bytes(received) == response
            assert plane._active_conns == 0 and server_end.fileno() == -1

        asyncio.run(_serving(plane, body))

    @pytest.mark.parametrize("host", ["localhost", "::1"])
    def test_binds_a_name_or_an_ipv6_literal(self, host):
        if host == "::1":
            try:
                socket.socket(socket.AF_INET6).close()
            except OSError:
                pytest.skip("no IPv6 on this host")
        engine, plane, _ = _plane(host=host)

        async def body():
            status, report = await http_json(host, plane.port, "GET",
                                             "/healthz")
            assert status == 200 and report["healthy"]

        asyncio.run(_serving(plane, body))

    def test_response_bytes_are_pinned(self):
        engine, plane, clock = _plane()
        ok = (b'{"invocation_id":0,"function":"hello-python","arrival_t":1.0,'
              b'"cold_start":true,"match":"NO_MATCH","container_id":1,'
              b'"worker_id":0,"startup_latency_s":1.685,"queue_delay_s":0.0,'
              b'"exec_time_s":0.25,"service_time_s":1.935,"scheduler":"lru"}')
        cases = [
            (_raw_request("POST", "/invoke",
                          b'{"function":"hello-python","exec_s":0.25}'),
             b"200 OK", ok),
            (_raw_request("POST", "/invoke", b"{}"), b"400 Bad Request",
             b'{"error":"body must carry \'function\' (name or id)"}'),
            (_raw_request("POST", "/invoke", b'{"function":"no-such-fn"}'),
             b"404 Not Found",
             b'{"error":"\\"no FStartBench function named '
             b'\'no-such-fn\'\\""}'),
            (_raw_request("GET", "/invoke"), b"405 Method Not Allowed",
             b'{"error":"method GET not allowed"}'),
        ]

        async def body():
            clock.advance_to(1.0)
            for data, status, payload in cases:
                expected = (b"HTTP/1.1 " + status + b"\r\n"
                            + _HEAD % len(payload) + payload)
                assert await _exchange(plane, [data]) == expected

        asyncio.run(_serving(plane, body))

        engine, plane, clock = _plane(time_scale=0.2, max_inflight=1,
                                      max_queue=0)
        invoke = _raw_request(
            "POST", "/invoke", b'{"function":"hello-python","exec_s":1.0}')
        rejected = b'{"error":"1 in flight and 0 waiting; try again later"}'

        async def full():
            clock.advance_to(1.0)
            held = asyncio.ensure_future(_exchange(plane, [invoke]))
            await _until(lambda: plane.admission.inflight == 1)
            assert await _exchange(plane, [invoke]) == (
                b"HTTP/1.1 429 Too Many Requests\r\n"
                + _HEAD % len(rejected) + rejected)
            await held

        asyncio.run(_serving(plane, full))


class TestAdmissionWaits:
    def test_stats_count_requests_that_queued_for_a_slot(self):
        engine, plane, clock = _plane(
            SimulationConfig(pool_capacity_mb=300_000.0, n_workers=4),
            time_scale=0.02, max_inflight=4, max_queue=64,
        )
        fast = []
        real_try = plane.admission.try_acquire

        def counting_try():
            admitted = real_try()
            fast.append(admitted)
            return admitted

        plane.admission.try_acquire = counting_try

        async def body():
            host, port = plane.host, plane.port
            clock.advance_to(1.0)

            async def invoke(i):
                return await http_json(
                    host, port, "POST", "/invoke",
                    {"function": ("hello-python", "hello-node")[i % 2],
                     "exec_s": 1.0},
                    timeout_s=60.0,
                )

            results = await asyncio.gather(*(invoke(i) for i in range(64)))
            assert all(status == 200 for status, _ in results)
            status, stats = await http_json(host, port, "GET", "/stats")
            admission = stats["admission"]
            assert admission["waited"] > 0
            assert admission["accepted"] == 64
            assert admission["accepted"] == admission["waited"] + sum(fast)
            assert admission["rejected"] == 0
            assert admission["peak_inflight"] == 4

        asyncio.run(_serving(plane, body))

    def test_queue_is_fifo_and_a_cancelled_waiter_gives_way(self):
        from repro.serve.admission import AdmissionController, AdmissionRejected

        async def body():
            admission = AdmissionController(max_inflight=1, max_queue=2)
            assert admission.try_acquire() is True
            order = []

            async def wait(name):
                await admission.acquire()
                order.append(name)

            first = asyncio.ensure_future(wait("first"))
            second = asyncio.ensure_future(wait("second"))
            await asyncio.sleep(0)
            assert admission.waited == 2 and admission.inflight == 1
            third = asyncio.ensure_future(wait("third"))
            await asyncio.sleep(0)
            with pytest.raises(AdmissionRejected):
                await third
            # Handed the slot, then cancelled before it ran: the slot
            # passes on to the next waiter instead of leaking.
            admission.release()
            first.cancel()
            await asyncio.sleep(0)
            await asyncio.sleep(0)
            assert order == ["second"] and admission.inflight == 1
            admission.release()
            assert admission.inflight == 0
            await asyncio.wait_for(admission.drained(), timeout=1.0)
            # The cancelled waiter was accepted (handed the slot) too.
            assert (admission.accepted, admission.waited,
                    admission.rejected) == (3, 2, 1)

        asyncio.run(body())
