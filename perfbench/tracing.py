"""Span tracer for the benchmark's traced run.

The traced run (``--trace 1``) wraps the public functions of each layer of
the program from this file -- nothing inside ``src/repro`` changes.  Every
wrapper records a span (name, start, end, parent); spans fold on the fly
into per-``(name, parent)`` aggregates of ``[calls, total_s, child_s]``, so
memory stays bounded however many spans a workload produces.  A layer's
*self time* is its spans' total duration minus the part of that interval
its child spans cover.  Calls are counted only where the parent span
belongs to another layer, so a layer that calls itself (``PoolSet`` ->
``WarmPool`` lookups) counts once per entry.

Installation must happen before any engine is built: the simulator
captures bound methods at construction (``EventLoop(sweep=
lifecycle.expire_ttl)``), and modules hold by-value aliases of module
functions (``from repro.containers.matching import match_level``).
Methods are patched on their classes and every by-value alias found in a
loaded ``repro`` module is patched too; :meth:`Installation.remove` puts
back exactly what was there.  A target that no longer exists in the
program is skipped and listed in :attr:`Installation.missing`, so the
traced run survives refactors of the code it observes.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# Layer groups of the per-layer report.  ``UNIVERSAL_LAYERS`` run on every
# workload, so their self time is reported in the result line; the other
# layers report calls there and self time in the printed table.
UNIVERSAL_LAYERS: Tuple[str, ...] = (
    "costmodel.breakdown",
    "matching.match_level",
    "schedulers.decide",
    "schedulers.context",
    "pool.lookup",
    "pool.update",
    "eviction.select_victims",
    "eventloop.pop_next",
    "eventloop.schedule",
    "lifecycle.expire_ttl",
    "lifecycle.apply",
    "placement.admit",
    "telemetry.record",
    "telemetry.summary",
)

SCHEDULER_KEYS: Tuple[str, ...] = (
    "lru", "faascache", "keepalive", "greedy", "coldonly", "lookahead",
    "zygote", "walways", "mpc", "lending", "offline",
)

OTHER_LAYERS: Tuple[str, ...] = tuple(
    f"schedulers.decide.{key}" for key in SCHEDULER_KEYS
) + (
    "costmodel.latency_s",
    "costmodel.delta_breakdown",
    "sketches.insert",
    "lanes.lower",
    "lanes.kernel",
    "lanes.stream_run",
    "offline.fit",
    "parallel.run_grid",
    "parallel.arrival_table_memo",
    "cache.get_cell",
    "cache.put_cell",
    "workloads.generate",
    "simulator.build",
    "simulator.run",
    "simulator.run_stream",
    "schedulers.build",
    "schedulers.observe",
    "serve.loop",
    "serve.callback",
    "serve.router",
    "serve.engine.submit",
    "serve.janitor.pump",
    "serve.stats",
)


class Tracer:
    """Span stack plus folded per-``(name, parent)`` aggregates."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stack: List[list] = []
        self.agg: Dict[Tuple[str, Optional[str]], List[float]] = {}
        self.counters: Dict[str, float] = defaultdict(float)

    def _close(self, name, parent, frame, duration, count) -> None:
        if parent is not None:
            parent[1] += duration
        key = (name, parent[0] if parent is not None else None)
        rec = self.agg.get(key)
        if rec is None:
            rec = self.agg[key] = [0, 0.0, 0.0]
        rec[0] += count
        rec[1] += duration
        rec[2] += frame[1]

    def wrap(self, fn, name, count: int = 1, hook=None):
        """A traced version of the synchronous callable ``fn``.

        ``name`` is a layer name, or a callable mapping the parent span's
        name to one.  ``hook(tracer, args, result)`` runs after outermost
        calls of the layer (used for hit/miss style counters).
        """
        stack = self.stack
        clock = self.clock
        close = self._close
        dynamic = callable(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            pname = parent[0] if parent is not None else None
            span = name(pname) if dynamic else name
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                close(span, parent, frame, duration,
                      count if pname != span else 0)
            if hook is not None and pname != span:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_async(self, fn, name):
        """A traced version of the coroutine function ``fn``.

        Each synchronous step of the coroutine (one ``send`` into it) is a
        span, so spans nest correctly inside the event-loop callback that
        drives the step; time spent suspended is not attributed.
        """
        tracer = self

        async def traced(*args, **kwargs):
            return await _StepTimed(tracer, fn(*args, **kwargs), name)

        traced.__wrapped__ = fn
        return traced

    def wrap_wait(self, fn, counter: str):
        """A version of coroutine function ``fn`` whose wall time from call
        to completion -- waiting included -- adds to ``counter``."""
        tracer = self

        async def waited(*args, **kwargs):
            start = tracer.clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer.counters[counter + "_s"] += tracer.clock() - start
                tracer.counters[counter + "_n"] += 1

        waited.__wrapped__ = fn
        return waited

    def span(self, name: str):
        """Context manager recording one span (benchmark-side boundaries)."""
        return _Span(self, name)

    def dump(self) -> Dict[str, object]:
        """JSON-friendly copy of the aggregates and counters."""
        return {
            "agg": [[n, p, *rec] for (n, p), rec in self.agg.items()],
            "counters": dict(self.counters),
        }

    def merge(self, dumped: Dict[str, object]) -> None:
        """Fold a :meth:`dump` from another process into this tracer."""
        for name, parent, calls, total, child in dumped["agg"]:
            rec = self.agg.setdefault((name, parent), [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += child
        for key, value in dumped["counters"].items():
            self.counters[key] += value


class TracedIterable:
    """An iterable whose every ``next`` runs inside a span (generation
    work done lazily by an arrival stream)."""

    def __init__(self, tracer: Tracer, iterable, name: str) -> None:
        self.tracer = tracer
        self.iterable = iterable
        self.name = getattr(iterable, "name", "<stream>")
        self.span_name = name

    def __iter__(self):
        span = self.tracer.span
        with span(self.span_name):
            source = iter(self.iterable)
        while True:
            with span(self.span_name):
                try:
                    item = next(source)
                except StopIteration:
                    return
            yield item


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        stack = self.tracer.stack
        self.parent = stack[-1] if stack else None
        self.frame = [self.name, 0.0]
        stack.append(self.frame)
        self.start = self.tracer.clock()
        return self

    def __exit__(self, *exc):
        duration = self.tracer.clock() - self.start
        self.tracer.stack.pop()
        pname = self.parent[0] if self.parent is not None else None
        self.tracer._close(self.name, self.parent, self.frame, duration,
                           1 if pname != self.name else 0)
        return False


class _StepTimed:
    """Awaitable driving a coroutine one timed step at a time."""

    def __init__(self, tracer: Tracer, coro, name: str) -> None:
        self.tracer = tracer
        self.coro = coro
        self.name = name

    def __await__(self):
        tracer = self.tracer
        inner = self.coro.__await__()
        value, error, first = None, None, True
        while True:
            stack = tracer.stack
            parent = stack[-1] if stack else None
            pname = parent[0] if parent is not None else None
            frame = [self.name, 0.0]
            stack.append(frame)
            start = tracer.clock()
            try:
                if error is None:
                    yielded = inner.send(value)
                else:
                    yielded = inner.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                duration = tracer.clock() - start
                stack.pop()
                tracer._close(self.name, parent, frame, duration,
                              1 if first and pname != self.name else 0)
                first = False
            try:
                value, error = (yield yielded), None
            except GeneratorExit:
                inner.close()
                raise
            except BaseException as exc:  # delivered into the coroutine
                value, error = None, exc


# ---------------------------------------------------------------------------
# Result hooks (per-layer ratios)
# ---------------------------------------------------------------------------

def _lookup_hook(tracer: Tracer, args, result) -> None:
    if isinstance(result, tuple) and len(result) == 4:
        return  # match_depth_counts: a histogram, not a hit or miss
    hit = result[0] if isinstance(result, tuple) else result
    tracer.counters["pool.lookup.attempts"] += 1
    if hit:
        tracer.counters["pool.lookup.hits"] += 1


def _victims_hook(tracer: Tracer, args, result) -> None:
    tracer.counters["eviction.attempts"] += 1
    if result is None:
        tracer.counters["eviction.rejects"] += 1
    else:
        tracer.counters["eviction.victims"] += len(result)


def _cache_hook(tracer: Tracer, args, result) -> None:
    tracer.counters["cache.lookups"] += 1
    if result is not None:
        tracer.counters["cache.hits"] += 1


def _lru_order_layer(parent: Optional[str]) -> str:
    """``lru_order`` is part of context building unless eviction asks."""
    if parent == "eviction.select_victims":
        return "pool.lookup"
    return "schedulers.context"


# ---------------------------------------------------------------------------
# Targets
# ---------------------------------------------------------------------------

#: ``(module, attribute path, layer, count, hook)``; ``count`` 0 marks a
#: target whose time belongs to the layer but whose calls are counted by
#: another target of it.
TARGETS: Tuple[tuple, ...] = (
    ("repro.containers.costmodel", "StartupCostModel.breakdown",
     "costmodel.breakdown", 1, None),
    ("repro.containers.costmodel", "StartupCostModel.latency_s",
     "costmodel.latency_s", 1, None),
    ("repro.containers.costmodel", "StartupCostModel.delta_breakdown",
     "costmodel.delta_breakdown", 1, None),
    ("repro.containers.matching", "match_level",
     "matching.match_level", 1, None),
    ("repro.schedulers.base", "SchedulingContext.__init__",
     "schedulers.context", 1, None),
    ("repro.cluster.simulator", "ClusterSimulator._context_for",
     "schedulers.context", 1, None),
    ("repro.cluster.pool", "WarmPool.lru_order", _lru_order_layer, 0, None),
    ("repro.cluster.pool", "PoolSet.lru_order", _lru_order_layer, 0, None),
    *[
        ("repro.cluster.pool", f"{cls}.{meth}", "pool.lookup", 1,
         _lookup_hook)
        for cls, meths in (
            ("WarmPool", ("best_match", "best_exact", "exact_matches",
                          "best_at_level", "match_depth_counts")),
            ("PoolSet", ("best_match", "exact_matches",
                         "match_depth_counts")),
        )
        for meth in meths
    ],
    *[
        ("repro.cluster.pool", f"{cls}.{meth}", "pool.update", 1, None)
        for cls, meths in (
            ("WarmPool", ("add", "remove", "touch", "expire_older_than")),
            ("PoolSet", ("add", "remove", "expire_older_than")),
        )
        for meth in meths
    ],
    ("repro.cluster.eventloop", "EventLoop.pop_next",
     "eventloop.pop_next", 1, None),
    ("repro.cluster.eventloop", "EventLoop.schedule",
     "eventloop.schedule", 1, None),
    ("repro.cluster.lifecycle", "ContainerLifecycle.expire_ttl",
     "lifecycle.expire_ttl", 1, None),
    *[
        ("repro.cluster.lifecycle", f"ContainerLifecycle.{meth}",
         "lifecycle.apply", 1, None)
        for meth in ("create", "claim", "repack", "keep_alive", "destroy",
                     "prewarm", "lend")
    ],
    ("repro.cluster.placement", "PlacementEngine.admit",
     "placement.admit", 1, None),
    ("repro.cluster.sketches", "QuantileSketch.insert",
     "sketches.insert", 1, None),
    ("repro.cluster.lanes", "ArrivalTable._init_from", "lanes.lower", 1,
     None),
    ("repro.cluster.lanes", "LaneKernel.run", "lanes.kernel", 1, None),
    ("repro.cluster.lanes", "run_stream_lanes", "lanes.stream_run", 1,
     None),
    ("repro.cluster.lanes", "_Lane.summary", "telemetry.summary", 1, None),
    ("repro.cluster.lanes", "_offline_policy_for", "offline.fit", 1, None),
    ("repro.experiments.parallel", "run_grid", "parallel.run_grid", 1,
     None),
    ("repro.experiments.parallel", "cached_arrival_table",
     "parallel.arrival_table_memo", 1, None),
    ("repro.experiments.parallel", "build_scheduler", "schedulers.build", 1,
     None),
    ("repro.experiments.cache", "ExperimentCache.get_cell",
     "cache.get_cell", 1, _cache_hook),
    ("repro.experiments.cache", "ExperimentCache.put_cell",
     "cache.put_cell", 1, None),
    ("repro.workloads.fstartbench", "build_workload", "workloads.generate",
     1, None),
    ("repro.cluster.simulator", "ClusterSimulator.__init__",
     "simulator.build", 1, None),
    ("repro.cluster.simulator", "ClusterSimulator.run", "simulator.run", 1,
     None),
    ("repro.cluster.simulator", "ClusterSimulator.run_stream",
     "simulator.run_stream", 1, None),
    ("repro.serve.router", "read_request", "serve.router", 1, None),
    ("repro.serve.router", "json_response", "serve.router", 1, None),
    ("repro.serve.router", "Request.json", "serve.router", 1, None),
    ("repro.serve.engine", "ServeEngine.submit", "serve.engine.submit", 1,
     None),
    ("repro.serve.janitor", "Janitor.tick", "serve.janitor.pump", 1, None),
    *[
        ("repro.serve.stats", f"ServeStats.{meth}", "serve.stats", 1, None)
        for meth in ("on_decision", "on_wall_latency", "on_reject",
                     "on_error", "on_tick", "snapshot")
    ],
)


#: Modules imported before patching so their by-value aliases exist to be
#: patched (and restored) rather than bound later to a wrapper.
PRELOAD: Tuple[str, ...] = (
    "repro.schedulers",
    "repro.cluster.simulator",
    "repro.cluster.lanes",
    "repro.experiments.parallel",
    "repro.experiments.ext_stream_replay",
    "repro.serve.server",
)


#: Coroutine functions whose waiting time (not self time) is measured.
WAIT_TARGETS: Tuple[tuple, ...] = (
    ("repro.serve.admission", "AdmissionController.acquire",
     "serve.admission.wait"),
)


def _class_family_targets() -> List[tuple]:
    """Targets resolved from class families at install time.

    Every scheduler registry class's ``decide`` (and ``observe_workload``,
    the Offline-Q bootstrap included), every eviction policy's
    ``select_victims`` and every telemetry class's record/sample/summary
    methods -- patched on each class that defines them.
    """
    import repro.schedulers as schedulers
    from repro.cluster.eviction import EvictionPolicy
    from repro.cluster.telemetry import Telemetry
    from repro.experiments.parallel import SCHEDULER_FACTORIES

    targets = []
    for key, class_name in SCHEDULER_FACTORIES.items():
        cls = getattr(schedulers, class_name)
        targets.append((cls, "decide", f"schedulers.decide.{key}", 1, None))
        if hasattr(cls, "observe_workload"):
            layer = "offline.fit" if key == "offline" else "schedulers.observe"
            targets.append((cls, "observe_workload", layer, 1, None))

    def family(root):
        seen, todo = [], [root]
        while todo:
            cls = todo.pop()
            seen.append(cls)
            todo.extend(cls.__subclasses__())
        return seen

    for cls in family(EvictionPolicy):
        if "select_victims" in cls.__dict__ and not getattr(
            cls.__dict__["select_victims"], "__isabstractmethod__", False
        ):
            targets.append((cls, "select_victims", "eviction.select_victims",
                            1, _victims_hook))
    for cls in family(Telemetry):
        for attr, value in list(cls.__dict__.items()):
            if not inspect.isfunction(value):
                continue
            if (attr == "record_invocation_values"
                    or attr.startswith("sample_")):
                targets.append((cls, attr, "telemetry.record", 1, None))
            elif attr == "summary":
                targets.append((cls, attr, "telemetry.summary", 1, None))
    return targets


class Installation:
    """The set of patches one :func:`install` applied."""

    def __init__(self) -> None:
        self.patches: List[tuple] = []   # (owner, attr, old, had_own)
        self.missing: List[str] = []

    def _patch(self, owner, attr: str, new) -> None:
        had_own = attr in vars(owner)
        self.patches.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, new)

    def remove(self) -> None:
        """Undo every patch, newest first."""
        for owner, attr, old, had_own in reversed(self.patches):
            if had_own:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
        self.patches.clear()


def install(tracer: Tracer, serve_loop: bool = False) -> Installation:
    """Wrap every layer target; returns the :class:`Installation`.

    ``serve_loop`` additionally makes each event-loop iteration a
    top-level ``serve.loop`` span and each callback it runs a
    ``serve.callback`` span (the serving process's spans).
    """
    for module_name in PRELOAD:
        try:
            importlib.import_module(module_name)
        except ImportError:
            pass
    inst = Installation()
    resolved = []
    for module_name, path, layer, count, hook in TARGETS:
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            inst.missing.append(f"{module_name}:{path}")
            continue
        *owner_path, attr = path.split(".")
        try:
            for part in owner_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except AttributeError:
            inst.missing.append(f"{module_name}:{path}")
            continue
        resolved.append((owner, attr, original, layer, count, hook))
    for module_name, path, counter in WAIT_TARGETS:
        owner = importlib.import_module(module_name)
        cls_name, attr = path.split(".")
        owner = getattr(owner, cls_name, None)
        if owner is None or not hasattr(owner, attr):
            inst.missing.append(f"{module_name}:{path}")
            continue
        inst._patch(owner, attr, tracer.wrap_wait(getattr(owner, attr),
                                                  counter))
    for owner, attr, layer, count, hook in _class_family_targets():
        resolved.append((owner, attr, getattr(owner, attr), layer, count,
                         hook))
    if serve_loop:
        import asyncio.base_events
        import asyncio.events

        loop_cls = asyncio.base_events.BaseEventLoop
        resolved.append((loop_cls, "_run_once", loop_cls._run_once,
                         "serve.loop", 1, None))
        resolved.append((asyncio.events.Handle, "_run",
                         asyncio.events.Handle._run, "serve.callback", 1,
                         None))
    # Originals are all resolved before any patch, so a subclass that
    # inherits a patched method wraps the original, not the parent's
    # wrapper.
    for owner, attr, original, layer, count, hook in resolved:
        if inspect.iscoroutinefunction(original):
            wrapper = tracer.wrap_async(original, layer)
        else:
            wrapper = tracer.wrap(original, layer, count, hook)
        inst._patch(owner, attr, wrapper)
        if inspect.ismodule(owner):
            _patch_aliases(inst, original, wrapper, owner)
    return inst


def _patch_aliases(inst: Installation, original, wrapper, home) -> None:
    """Replace by-value imports of a module function in ``repro`` modules."""
    for name, module in list(sys.modules.items()):
        if module is None or module is home or not (
            name == "repro" or name.startswith("repro.")
        ):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                inst._patch(module, attr, wrapper)


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def layer_table(agg) -> Dict[str, Dict[str, float]]:
    """Per-layer ``calls`` / ``self_s`` / ``total_s`` from the aggregates.

    ``schedulers.decide`` is the sum over its per-key layers.
    """
    table: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    )
    for (name, parent), (calls, total, child) in agg.items():
        names = [name]
        if name.startswith("schedulers.decide."):
            names.append("schedulers.decide")
        for layer in names:
            row = table[layer]
            if parent != name and not (
                layer == "schedulers.decide"
                and (parent or "").startswith("schedulers.decide.")
            ):
                row["calls"] += calls
                row["total_s"] += total
            row["self_s"] += total - child
    return dict(table)


def root_seconds(agg) -> float:
    """Total duration of top-level spans."""
    return sum(rec[1] for (_, parent), rec in agg.items() if parent is None)


def child_calls(agg, name: str, parent: str) -> int:
    """Calls of ``name`` made directly from ``parent``."""
    rec = agg.get((name, parent))
    return int(rec[0]) if rec else 0


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when nothing was attempted."""
    return num / den if den else 0.0
