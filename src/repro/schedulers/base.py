"""Scheduler interface shared by all policies (including MLCR).

The simulator calls :meth:`Scheduler.decide` once per arriving invocation
with a :class:`SchedulingContext` -- a read-only view of the warm pool plus
the cost model -- and receives a :class:`~repro.cluster.simulator.Decision`:
either reuse a specific idle container or cold-start a new one.

Every registry policy writes its rule once, in :meth:`Scheduler.decide_pool`:
a function of the warm pool's match index, the arriving invocation (whose
``arrival_time`` is the decision time) and the cost model, returning the
container to reuse, its match level, ``preserve_image`` and any proactive
actions.  The base ``decide`` wraps that rule in a :class:`Decision`, and
the lane kernel calls the rule directly (no context), so both engines run
the same code.  Only MLCR's DRL scheduler and its online fine-tuner,
which encode the full context, override ``decide``.

Proactive policies (MPC pre-warming, Pagurus lending) attach
:class:`PrewarmRequest` / :class:`LendRequest` actions beside their
reactive pick; both engines execute them through
:meth:`~repro.cluster.lifecycle.PoolLifecycle.apply_actions` immediately
after applying the decision itself, so batch, streaming, incremental,
online serving and lane drives stay decision-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

from repro.containers.container import Container
from repro.containers.costmodel import StartupCostModel
from repro.containers.image import FunctionImage
from repro.containers.matching import MatchLevel, match_level
from repro.workloads.workload import Invocation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cluster -> base)
    from repro.cluster.eviction import EvictionPolicy
    from repro.cluster.pool import PoolSet

@dataclass(frozen=True)
class PrewarmRequest:
    """Proactive action: create an idle container for ``function_name``.

    Executed by :meth:`PoolLifecycle.prewarm` right after the decision
    carrying it is applied; the new container joins the warm pool through
    the eviction policy like any finishing container.
    """

    image: FunctionImage
    function_name: str


@dataclass(frozen=True)
class LendRequest:
    """Proactive action: re-specialize idle ``container_id`` toward
    ``function_name``'s image (Pagurus-style helping).

    Executed by :meth:`PoolLifecycle.lend`; a no-op when the donor is
    gone, incompatible, or the repack would overflow its pool shard.
    """

    container_id: int
    image: FunctionImage
    function_name: str


ProactiveAction = Union[PrewarmRequest, LendRequest]

#: What :meth:`Scheduler.decide_pool` returns: the container to reuse (None
#: for a cold start), its Table-I match level as an int, whether to keep
#: the container's own image (zygote-style ``preserve_image``) and the
#: proactive actions to run after the decision.
PoolDecision = Tuple[
    Optional[Container], int, bool, Tuple[ProactiveAction, ...]
]

#: The cold-start :data:`PoolDecision` with no actions.
COLD: PoolDecision = (None, 0, False, ())


@dataclass(frozen=True)
class Decision:
    """A scheduling decision: reuse ``container_id`` or cold-start (None).

    ``preserve_image`` requests zygote-style reuse: the container serves the
    function but keeps its own (superset) image instead of being repacked to
    the function's image, so it can keep serving the whole function family.
    Only meaningful for warm decisions.

    ``actions`` carries any proactive requests (pre-warms, lends) the
    policy wants executed alongside this decision; empty for the reactive
    baselines.
    """

    container_id: Optional[int] = None
    preserve_image: bool = False
    actions: Tuple[ProactiveAction, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.preserve_image and self.container_id is None:
            raise ValueError("preserve_image requires a warm decision")

    @property
    def is_cold(self) -> bool:
        return self.container_id is None

    @classmethod
    def cold(cls) -> "Decision":
        return cls(container_id=None)

    @classmethod
    def warm(cls, container_id: int, preserve_image: bool = False) -> "Decision":
        return cls(container_id=container_id, preserve_image=preserve_image)


@dataclass(frozen=True)
class SchedulingContext:
    """Read-only view handed to schedulers at each decision point.

    Attributes
    ----------
    now:
        Current simulation time.
    invocation:
        The arriving invocation to place.
    idle_containers:
        Idle warm containers, least-recently-used first.
    cost_model:
        The cluster's startup cost model (for latency estimation).
    pool_capacity_mb, pool_used_mb:
        Warm-pool capacity state.
    pool:
        The live warm pool -- a :class:`~repro.cluster.pool.PoolSet`, or a
        single :class:`~repro.cluster.pool.WarmPool`, which answers the
        same queries.  Its match index serves :meth:`match_counts` and
        every :meth:`Scheduler.decide_pool` rule as dictionary lookups.
    worker_loads:
        Hosted container count per worker (busy and idle alike), indexed
        by worker id.  Empty in hand-built contexts.
    queue_depths:
        Startups waiting for a worker concurrency slot, per worker.  All
        zeros unless the simulator enforces a ``worker_concurrency``
        limit; empty in hand-built contexts.
    """

    now: float
    invocation: Invocation
    idle_containers: Tuple[Container, ...]
    cost_model: StartupCostModel
    pool_capacity_mb: float
    pool_used_mb: float
    pool: "PoolSet"
    worker_loads: Tuple[int, ...] = ()
    queue_depths: Tuple[int, ...] = ()

    # -- helpers every scheduler needs -------------------------------------
    def match_of(self, container: Container) -> MatchLevel:
        """Table-I match level between the invocation and ``container``."""
        return match_level(self.invocation.spec.image, container.image)

    def estimated_latency(self, container: Optional[Container]) -> float:
        """Estimated startup latency reusing ``container`` (None = cold)."""
        match = MatchLevel.NO_MATCH if container is None else self.match_of(container)
        return self.cost_model.latency_s(
            self.invocation.spec.image, match, self.invocation.spec.function_init_s
        )

    def match_counts(self) -> Dict[MatchLevel, int]:
        """Idle-container counts per Table-I match level."""
        depth = self.pool.match_depth_counts(self.invocation.spec.image)
        return {lvl: depth[int(lvl)] for lvl in MatchLevel}


class Scheduler:
    """Base class for container-reuse scheduling policies.

    A policy implements :meth:`decide_pool` and inherits :meth:`decide`;
    only a policy that reads the whole context (MLCR's DRL scheduler and
    its fine-tuner) overrides :meth:`decide` instead.
    """

    #: Human-readable policy name used in reports and figures.
    name: str = "scheduler"

    def decide_pool(
        self,
        pool: "PoolSet",
        invocation: Invocation,
        cost_model: StartupCostModel,
    ) -> PoolDecision:
        """The policy's rule for placing ``invocation``.

        Reads ``pool``'s match-index queries (a
        :class:`~repro.cluster.pool.PoolSet` or a single
        :class:`~repro.cluster.pool.WarmPool`), the invocation -- its
        ``arrival_time`` is the decision time -- and ``cost_model``;
        returns a :data:`PoolDecision` -- :data:`COLD` for a cold start.
        """
        raise NotImplementedError(
            f"{type(self).__name__} decides from the full context"
        )

    def decide(self, ctx: SchedulingContext) -> Decision:
        """Choose a warm container (or cold start) for ``ctx.invocation``."""
        container, _match, preserve, actions = self.decide_pool(
            ctx.pool, ctx.invocation, ctx.cost_model
        )
        if container is None:
            return Decision(actions=actions)
        return Decision(container.container_id, preserve, actions)

    @staticmethod
    def make_eviction_policy() -> "EvictionPolicy":
        """The eviction policy this scheduler pairs with: LRU, unless a
        policy overrides it."""
        # Deferred: the cluster package imports this module.
        from repro.cluster.eviction import LRUEviction

        return LRUEviction()

    def reset(self) -> None:
        """Clear per-run state; called by experiment harnesses between runs."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class ExactMatchScheduler(Scheduler):
    """Reuse only a full (L3) configuration match, most recently used
    first; cold-start otherwise.  The rule of LRU, KeepAlive, FaasCache
    and MPC's reactive half, which differ only in eviction (and MPC's
    pre-warming)."""

    def decide_pool(
        self,
        pool: "PoolSet",
        invocation: Invocation,
        cost_model: StartupCostModel,
    ) -> PoolDecision:
        """MRU exact match, else cold."""
        container = pool.best_exact(invocation.spec.image)
        if container is None:
            return COLD
        return container, 3, False, ()
