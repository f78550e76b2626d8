"""Server process of the ``serve-http`` workload.

Runs one :class:`~repro.serve.server.ServePlane` over the workload's
:class:`~repro.serve.engine.ServeEngine` until asked to stop.  Protocol on
standard output, one JSON object per line: ``{"port": N}`` once the socket
is bound, then -- after ``POST /perfbench/stop`` or SIGTERM -- the drained
engine summary, the process's peak RSS and CPU time, and (with
``--trace``) the folded span aggregates.  ``GET /perfbench/cpu`` answers
the process CPU time and a host-speed sample (:mod:`hostspeed`), so the
load generator can charge the server's busy time to a phase.

With ``--trace`` the span wrappers are installed before the engine is
built; every event-loop iteration becomes a top-level ``serve.loop``
span, each callback a ``serve.callback`` span, and time blocked in the
selector a ``serve.idle`` span, so idle time can be left out of the
traced wall time.

Usage: ``python3 perfbench/serve_launcher.py [--trace]``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import selectors
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.serve.engine import ServeEngine  # noqa: E402
from repro.serve.server import ServePlane  # noqa: E402

import hostspeed  # noqa: E402
import serving  # noqa: E402
import tracing  # noqa: E402


def _emit(payload) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


async def _serve(tracer, started: float, missing) -> None:
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    if tracer is not None:
        with tracer.span("serve.build"):
            engine, plane = _build()
    else:
        engine, plane = _build()

    async def stop_route(request):
        stop.set()
        return 200, {"stopping": True}

    async def cpu_route(request):
        return 200, {"cpu_s": time.process_time(),
                     "calib_s": hostspeed.sample_s()}

    plane.router.add("POST", "/perfbench/stop", stop_route)
    plane.router.add("GET", "/perfbench/cpu", cpu_route)
    await plane.start()
    _emit({"port": plane.port})
    await stop.wait()
    result = await plane.stop()
    out = {
        "summary": result.summary(),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cpu_s": time.process_time(),
    }
    if tracer is not None:
        tracer.counters["trace.window_s"] = time.perf_counter() - started
        out["trace"] = dict(tracer.dump(), missing=missing)
    _emit(out)


def _build():
    engine = ServeEngine(
        serving.serve_config(), serving.SERVE_SCHEDULER,
        keepalive_ttl_s=serving.SERVE_TTL_S,
    )
    plane = ServePlane(engine, time_scale=0.0,
                       janitor_interval_s=serving.JANITOR_INTERVAL_S)
    return engine, plane


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    tracer = None
    installation = None
    if args.trace:
        tracer = tracing.Tracer()
        installation = tracing.install(tracer, serve_loop=True)
        selector_cls = selectors.DefaultSelector
        installation._patch(
            selector_cls, "select",
            tracer.wrap(selector_cls.select, "serve.idle"),
        )
    try:
        asyncio.run(_serve(tracer, time.perf_counter(),
                           installation.missing if installation else []))
    finally:
        if installation is not None:
            installation.remove()
    return 0


if __name__ == "__main__":
    sys.exit(main())
