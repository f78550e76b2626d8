"""Online serving plane over the deterministic simulator core.

``repro serve`` turns the discrete-event simulator into a live service: a
stdlib-asyncio HTTP server accepts invocation requests, stamps them with
wall-clock arrival times, and schedules each one against a real warm pool
through the same MLCR matching, scheduler ABC, lifecycle and placement
layers the offline experiments exercise.  Because every state transition
still runs in the simulator's virtual time (the wall clock only *stamps*
arrivals), a recorded session replays byte-identically offline -- the
``serve_replay`` differential oracle asserts exactly that.

Layout:

* :mod:`~repro.serve.engine` -- the wall-time/virtual-time bridge and
  scheduling entry point (also used headlessly by replay and benchmarks);
* :mod:`~repro.serve.server` -- the asyncio HTTP plane (endpoints,
  graceful shutdown);
* :mod:`~repro.serve.router` / :mod:`~repro.serve.client` -- minimal
  stdlib HTTP plumbing;
* :mod:`~repro.serve.admission` -- bounded in-flight admission (429s);
* :mod:`~repro.serve.janitor` -- periodic keep-alive sweeps
  (scale-to-zero);
* :mod:`~repro.serve.stats` -- O(1) session statistics with mergeable
  per-worker quantile sketches (``/stats``);
* :mod:`~repro.serve.recorder` -- JSONL session recording and
  deterministic replay.
"""

from repro.serve.admission import AdmissionController, AdmissionRejected
from repro.serve.client import http_json
from repro.serve.engine import ServeClosed, ServeEngine, ServeOutcome
from repro.serve.janitor import Janitor
from repro.jsonl import Divergence
from repro.serve.recorder import (
    DecisionRecorder,
    ReplayReport,
    read_recording,
    replay_recording,
)
from repro.serve.router import HttpError, Request, Router
from repro.serve.server import ServePlane
from repro.serve.stats import ServeStats

__all__ = [
    "AdmissionController",
    "AdmissionRejected",
    "DecisionRecorder",
    "Divergence",
    "HttpError",
    "Janitor",
    "ReplayReport",
    "Request",
    "Router",
    "ServeClosed",
    "ServeEngine",
    "ServeOutcome",
    "ServePlane",
    "ServeStats",
    "http_json",
    "replay_recording",
    "read_recording",
]
