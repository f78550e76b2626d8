"""Unit tests for the baseline scheduling policies."""

import pytest

from repro.cluster.eviction import (
    FaasCacheEviction,
    LRUEviction,
    RejectNewcomerEviction,
)
from repro.schedulers import (
    ColdOnlyScheduler,
    FaasCacheScheduler,
    GreedyMatchScheduler,
    KeepAliveScheduler,
    LookaheadScheduler,
    LRUScheduler,
    PagurusLendingScheduler,
)
from repro.schedulers.base import LendRequest
from repro.workloads.workload import Workload

from conftest import (
    make_container,
    make_ctx,
    make_image,
    make_invocation,
    make_spec,
)


def ctx_for(containers, spec=None, **kw):
    spec = spec or make_spec(name="f", image=make_image("f"))
    return make_ctx(make_invocation(spec), idle_containers=containers, **kw)


class TestColdOnly:
    def test_always_cold(self):
        ctx = ctx_for([make_container(1)])
        assert ColdOnlyScheduler().decide(ctx).is_cold


class TestExactMatchers:
    """KeepAlive / LRU / FaasCache share exact-match scheduling."""

    @pytest.mark.parametrize(
        "scheduler_cls", [KeepAliveScheduler, LRUScheduler, FaasCacheScheduler]
    )
    def test_exact_match_reused(self, scheduler_cls):
        exact = make_container(1)
        partial = make_container(2, image=make_image("p",
                                                     runtime_names=("numpy",)))
        ctx = ctx_for([partial, exact])
        decision = scheduler_cls().decide(ctx)
        assert decision == decision.warm(1)

    @pytest.mark.parametrize(
        "scheduler_cls", [KeepAliveScheduler, LRUScheduler, FaasCacheScheduler]
    )
    def test_partial_match_not_used(self, scheduler_cls):
        partial = make_container(2, image=make_image("p",
                                                     runtime_names=("numpy",)))
        ctx = ctx_for([partial])
        assert scheduler_cls().decide(ctx).is_cold

    def test_mru_tie_break(self):
        older = make_container(1, last_used_at=0.0)
        newer = make_container(2, last_used_at=10.0)
        # Pool order is LRU-first: [older, newer].
        ctx = ctx_for([older, newer])
        assert LRUScheduler().decide(ctx).container_id == 2

    def test_paired_eviction_policies(self):
        assert isinstance(LRUScheduler.make_eviction_policy(), LRUEviction)
        assert isinstance(FaasCacheScheduler.make_eviction_policy(),
                          FaasCacheEviction)
        keepalive_policy = KeepAliveScheduler(ttl_s=120.0).make_eviction_policy()
        assert isinstance(keepalive_policy, RejectNewcomerEviction)
        assert keepalive_policy.ttl_s == 120.0


class TestGreedyMatch:
    def test_takes_deepest_match(self):
        c_l1 = make_container(1, image=make_image("x", lang_name="nodejs"))
        c_l2 = make_container(2, image=make_image("y",
                                                  runtime_names=("numpy",)))
        ctx = ctx_for([c_l1, c_l2])
        assert GreedyMatchScheduler().decide(ctx).container_id == 2

    def test_uses_shallow_match_when_only_option(self):
        c_l1 = make_container(1, image=make_image("x", lang_name="nodejs"))
        ctx = ctx_for([c_l1])
        assert GreedyMatchScheduler().decide(ctx).container_id == 1

    def test_cold_when_nothing_matches(self):
        other_os = make_container(1, image=make_image("o", os_name="debian"))
        ctx = ctx_for([other_os])
        assert GreedyMatchScheduler().decide(ctx).is_cold


class TestLookahead:
    def _two_arrival_workload(self):
        contested_spec = make_spec(name="later", image=make_image("f"))
        probe_spec = make_spec(
            name="now", image=make_image("probe", runtime_names=("numpy",))
        )
        inv_now = make_invocation(probe_spec, 0, arrival_time=0.0)
        inv_later = make_invocation(contested_spec, 1, arrival_time=1.0)
        return inv_now, inv_later, Workload.from_invocations(
            "w", [inv_now, inv_later]
        )

    def test_preserves_contested_container(self):
        """Fig. 2: leave the container for the deeper future match."""
        inv_now, _, workload = self._two_arrival_workload()
        contested = make_container(1)  # L3 for `later`, L2 for `now`
        scheduler = LookaheadScheduler(horizon=4)
        scheduler.observe_workload(workload)
        ctx = make_ctx(inv_now, idle_containers=[contested])
        assert scheduler.decide(ctx).is_cold

    def test_takes_container_when_no_future_contention(self):
        inv_now, _, _ = self._two_arrival_workload()
        contested = make_container(1)
        scheduler = LookaheadScheduler(horizon=4)
        scheduler.observe_workload(
            Workload.from_invocations("w", [inv_now])  # nothing follows
        )
        ctx = make_ctx(inv_now, idle_containers=[contested])
        assert LookaheadScheduler.candidates(ctx.pool, inv_now.spec.image)
        assert not scheduler.decide(ctx).is_cold

    def test_candidates_sorted_deepest_first(self):
        """The rule scans reusable containers deepest level first, then
        most recently used (greatest ``(last_used_at, container_id)``),
        whatever the pool's own order; non-matching ones are skipped."""
        nodejs = make_image("x", lang_name="nodejs")
        l1_old = make_container(1, image=nodejs, last_used_at=0.0)
        l1_new = make_container(2, image=nodejs, last_used_at=5.0)
        l1_tied = make_container(5, image=nodejs, last_used_at=5.0)
        l3 = make_container(3)
        other_os = make_container(4, image=make_image("o", os_name="debian"))
        ctx = ctx_for([l1_new, l3, other_os, l1_old, l1_tied])
        order = LookaheadScheduler.candidates(
            ctx.pool, ctx.invocation.spec.image
        )
        assert [(c.container_id, int(m)) for c, m in order] == [
            (3, 3), (5, 1), (2, 1), (1, 1)
        ]

    def test_reset_clears_future(self):
        scheduler = LookaheadScheduler()
        _, _, workload = self._two_arrival_workload()
        scheduler.observe_workload(workload)
        scheduler.reset()
        assert scheduler._future == []

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            LookaheadScheduler(horizon=-1)


class TestLendingDonor:
    def test_longest_idle_donor_at_deepest_level(self):
        """The donor scan runs least recently used first and keeps the
        first strictly deeper level; the claimed container and helpers
        idle under the threshold are skipped."""
        spec = make_spec(name="f", image=make_image("f",
                                                    runtime_names=("numpy",)))
        flask = make_image("flask")
        donors = [
            make_container(2, image=flask, last_used_at=1.0),
            make_container(4, image=make_image("n", lang_name="nodejs")),
            make_container(1, image=flask, last_used_at=0.0),
            make_container(3, image=flask, last_used_at=9.5),
        ]
        ctx = make_ctx(make_invocation(spec, arrival_time=10.0),
                       idle_containers=donors, now=10.0)
        decision = PagurusLendingScheduler(help_threshold_s=2.0).decide(ctx)
        assert decision.container_id == 3  # greedy MRU pick at L2
        assert decision.actions == (
            LendRequest(container_id=1, image=spec.image, function_name="f"),
        )


class TestSchedulingContext:
    def test_estimated_latency_orders_by_match(self):
        ctx = ctx_for([make_container(1)])
        cold = ctx.estimated_latency(None)
        warm = ctx.estimated_latency(ctx.idle_containers[0])
        assert warm < cold

    def test_match_counts(self):
        ctx = ctx_for([
            make_container(1),
            make_container(2, image=make_image("o", os_name="debian")),
        ])
        counts = ctx.match_counts()
        assert sum(counts.values()) == 2
