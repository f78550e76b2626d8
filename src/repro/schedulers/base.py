"""Scheduler interface shared by all policies (including MLCR).

Every policy writes its rule once, in :meth:`Scheduler.decide`: a
function of the warm pool's match index, the arriving invocation (whose
``arrival_time`` is the decision time) and the cost model, returning a
:data:`PoolDecision` -- the container to reuse (None for a cold start),
``preserve_image`` and any proactive actions.  It is the one decision
interface: the lane kernel calls it on each lane's pool, and the
sequential simulator, the online serving engine and the incremental API's
callers call it with the three fields of a pending arrival's
:class:`SchedulingContext`.  So every engine runs the same code.  The
Table-I match level is not part of the decision: the lifecycle derives it
from the function and the picked container.  MLCR's DRL scheduler encodes
the same three inputs into its state vector.

Proactive policies (MPC pre-warming, Pagurus lending) attach
:class:`PrewarmRequest` / :class:`LendRequest` actions beside their
reactive pick; both engines execute them through
:meth:`~repro.cluster.lifecycle.PoolLifecycle.apply_actions` immediately
after applying the decision itself, so batch, streaming, incremental,
online serving and lane drives stay decision-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple, Union

from repro.containers.container import Container
from repro.containers.costmodel import StartupCostModel
from repro.containers.image import FunctionImage
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

#: What :meth:`Scheduler.decide` returns: the container to reuse (None for
#: a cold start), whether to keep the container's own image (zygote-style
#: ``preserve_image``) and the proactive actions to run after the decision.
PoolDecision = Tuple[Optional[Container], bool, Tuple[ProactiveAction, ...]]

#: The cold-start :data:`PoolDecision` with no actions.
COLD: PoolDecision = (None, False, ())


@dataclass(frozen=True)
class SchedulingContext:
    """One pending arrival, as the simulator's incremental API hands it out.

    The three inputs of :meth:`Scheduler.decide`: the arriving
    ``invocation``, the live warm ``pool`` (a
    :class:`~repro.cluster.pool.PoolSet`) and the cluster's
    ``cost_model``.
    """

    invocation: Invocation
    pool: "PoolSet"
    cost_model: StartupCostModel


class Scheduler:
    """Base class for container-reuse scheduling policies.

    A policy implements :meth:`decide`, the one decision interface that
    every engine calls.
    """

    #: Human-readable policy name used in reports and figures.
    name: str = "scheduler"

    def decide(
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
            f"{type(self).__name__} defines no decision rule"
        )

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

    def decide(
        self,
        pool: "PoolSet",
        invocation: Invocation,
        cost_model: StartupCostModel,
    ) -> PoolDecision:
        """MRU exact match, else cold."""
        container = pool.best_exact(invocation.spec.image)
        if container is None:
            return COLD
        return container, False, ()
