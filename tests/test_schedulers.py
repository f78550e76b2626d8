"""Unit tests for the baseline scheduling policies."""

import pickle
import random

import pytest

from repro.cluster.eviction import (
    FaasCacheEviction,
    LRUEviction,
    RejectNewcomerEviction,
)
from repro.cluster.pool import PoolSet, WarmPool
from repro.containers.costmodel import CostModelParams, StartupCostModel
from repro.containers.matching import MatchLevel, match_level
from repro.schedulers import (
    ColdOnlyScheduler,
    FaasCacheScheduler,
    GreedyMatchScheduler,
    KeepAliveScheduler,
    LookaheadScheduler,
    LRUScheduler,
    PagurusLendingScheduler,
)
from repro.schedulers.base import COLD, LendRequest, PrewarmRequest
from repro.schedulers.mpc import MPCScheduler
from repro.workloads.fstartbench import build_workload
from repro.workloads.workload import Workload

from conftest import (
    decide,
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
        assert decide(ColdOnlyScheduler(), ctx) == COLD


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
        assert decide(scheduler_cls(), ctx) == (exact, False, ())

    @pytest.mark.parametrize(
        "scheduler_cls", [KeepAliveScheduler, LRUScheduler, FaasCacheScheduler]
    )
    def test_partial_match_not_used(self, scheduler_cls):
        partial = make_container(2, image=make_image("p",
                                                     runtime_names=("numpy",)))
        ctx = ctx_for([partial])
        assert decide(scheduler_cls(), ctx) == COLD

    def test_mru_tie_break(self):
        older = make_container(1, last_used_at=0.0)
        newer = make_container(2, last_used_at=10.0)
        # Pool order is LRU-first: [older, newer].
        ctx = ctx_for([older, newer])
        assert decide(LRUScheduler(), ctx)[0] is newer

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
        assert decide(GreedyMatchScheduler(), ctx)[0] is c_l2

    def test_uses_shallow_match_when_only_option(self):
        c_l1 = make_container(1, image=make_image("x", lang_name="nodejs"))
        ctx = ctx_for([c_l1])
        assert decide(GreedyMatchScheduler(), ctx)[0] is c_l1

    def test_cold_when_nothing_matches(self):
        other_os = make_container(1, image=make_image("o", os_name="debian"))
        ctx = ctx_for([other_os])
        assert decide(GreedyMatchScheduler(), ctx) == COLD


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
        assert decide(scheduler, ctx) == COLD

    def test_takes_container_when_no_future_contention(self):
        inv_now, _, _ = self._two_arrival_workload()
        contested = make_container(1)
        scheduler = LookaheadScheduler(horizon=4)
        scheduler.observe_workload(
            Workload.from_invocations("w", [inv_now])  # nothing follows
        )
        ctx = make_ctx(inv_now, idle_containers=[contested])
        assert LookaheadScheduler.candidates(ctx.pool, inv_now.spec.image)
        assert decide(scheduler, ctx)[0] is contested

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
        assert scheduler._position == {}

    def test_upcoming_with_gapped_unordered_ids(self):
        """The id -> position index finds the same window as a linear
        scan when ids are gapped, out of arrival order or repeated (a
        repeated id keeps its first position)."""
        spec = make_spec(name="f", image=make_image("f"))
        ids = [40, 7, 19, 2, 7, 1000, 3]
        workload = Workload(
            name="w",
            invocations=tuple(
                make_invocation(spec, i, arrival_time=float(t))
                for t, i in enumerate(ids)
            ),
        )
        scheduler = LookaheadScheduler(horizon=3)
        scheduler.observe_workload(workload)
        for inv in workload.invocations:
            assert scheduler._upcoming(inv) == _reference_upcoming(
                workload.invocations, inv, 3
            )
        assert [i.invocation_id for i in scheduler._upcoming(
            workload.invocations[4])] == [19, 2, 7]

    def test_upcoming_unknown_id_is_empty(self):
        _, _, workload = self._two_arrival_workload()
        scheduler = LookaheadScheduler(horizon=4)
        scheduler.observe_workload(workload)
        stranger = make_invocation(make_spec(), invocation_id=99)
        assert scheduler._upcoming(stranger) == []

    @pytest.mark.parametrize(
        "name,seed",
        [("LO-Sim", 0), ("HI-Sim", 1), ("Peak", 2), ("Overall", 3),
         ("Random", 4)],
    )
    def test_matches_per_candidate_reference(self, name, seed):
        """The rule returns what the straight-line per-candidate rule
        returns at every arrival, over random sharded idle pools that
        hold same-image containers tied on ``last_used_at``."""
        workload = build_workload(name, seed=seed)
        invocations = workload.invocations[:150]
        images = [spec.image for spec in workload.function_specs()]
        scheduler = LookaheadScheduler(horizon=8)
        scheduler.observe_workload(workload)
        rule_model, reference_model = StartupCostModel(), StartupCostModel()
        rng = random.Random(seed)
        outcomes = {"warm": 0, "cold_with_candidates": 0, "tied_pick": 0}
        for inv in invocations:
            pool = PoolSet(float("inf"), n_shards=2)
            drawn = [rng.choice(images) for _ in range(rng.randint(0, 10))]
            drawn += [inv.spec.image] * rng.randint(0, 2)
            drawn += [rng.choice(images)] * 3  # a same-image run
            for cid, image in enumerate(drawn):
                pool.add(
                    make_container(cid, image=image,
                                   last_used_at=float(rng.randint(0, 1))),
                    shard_index=cid,
                )
            got = scheduler.decide(pool, inv, rule_model)
            want = _reference_decide(
                workload.invocations, 8, pool, inv, reference_model
            )
            assert _decision_key(got) == _decision_key(want)
            container = got[0]
            if container is None:
                has_candidates = bool(
                    LookaheadScheduler.candidates(pool, inv.spec.image))
                outcomes["cold_with_candidates"] += has_candidates
                continue
            outcomes["warm"] += 1
            outcomes["tied_pick"] += any(
                c is not container
                and c.image.fingerprints == container.image.fingerprints
                and c.last_used_at == container.last_used_at
                for c in pool.match_candidates(inv.spec.image, MatchLevel.L1)
            )
        assert all(outcomes.values()), outcomes

    def test_memo_follows_the_cost_model(self):
        """One scheduler deciding with two cost models of different
        parameters, alternately, returns each model's reference decision:
        savings priced under one model are never read under the other."""
        workload = build_workload("Overall", seed=5)
        images = [spec.image for spec in workload.function_specs()]
        scheduler = LookaheadScheduler(horizon=8)
        scheduler.observe_workload(workload)
        models = (
            StartupCostModel(),
            StartupCostModel(CostModelParams(
                create_s=2.0, bandwidth_mb_per_s=10.0, clean_s=0.5,
                warm_runtime_factor=0.9)),
        )
        rng = random.Random(5)
        differ = 0
        for step, inv in enumerate(workload.invocations[:150]):
            pool = _random_lookahead_pool(rng, images, inv.spec.image)
            wants = [
                _decision_key(_reference_decide(
                    workload.invocations, 8, pool, inv, model))
                for model in models
            ]
            differ += wants[0] != wants[1]
            for m in ((0, 1) if step % 2 else (1, 0)):
                got = scheduler.decide(pool, inv, models[m])
                assert _decision_key(got) == wants[m]
        assert differ

    def test_memo_is_not_pickled(self):
        """The savings memo is keyed by process-local fingerprints, so a
        pickled scheduler carries none and re-prices after unpickling."""
        inv_now, _, workload = self._two_arrival_workload()
        scheduler = LookaheadScheduler(horizon=4)
        scheduler.observe_workload(workload)
        ctx = make_ctx(inv_now, idle_containers=[make_container(1)])
        decision = decide(scheduler, ctx)
        assert scheduler._savings
        clone = pickle.loads(pickle.dumps(scheduler))
        assert clone._savings == {} and clone._priced_by is None
        assert _decision_key(decide(clone, ctx)) == _decision_key(decision)

    def test_same_name_specs_match_reference(self):
        """Specs sharing a name but not an image or init time are priced
        apart (the memo is keyed by image and init time, not by name)."""
        numpy = make_image("n", runtime_names=("numpy",))
        specs = [
            make_spec(func_id=1, name="dup", image=make_image("f"),
                      function_init_s=0.1),
            make_spec(func_id=2, name="dup", image=numpy,
                      function_init_s=3.0),
            make_spec(func_id=3, name="dup", image=make_image("f"),
                      function_init_s=4.0),
            make_spec(func_id=4, name="other",
                      image=make_image("p", runtime_names=("pandas",)),
                      function_init_s=0.5),
        ]
        rng = random.Random(11)
        invocations = [
            make_invocation(rng.choice(specs), i, arrival_time=i * 0.7,
                            execution_time_s=rng.choice((0.2, 5.0)))
            for i in range(120)
        ]
        workload = Workload.from_invocations("dup", invocations)
        images = [spec.image for spec in specs]
        scheduler = LookaheadScheduler(horizon=6)
        scheduler.observe_workload(workload)
        model = StartupCostModel()
        warm = 0
        for inv in workload.invocations:
            pool = _random_lookahead_pool(rng, images, inv.spec.image)
            got = scheduler.decide(pool, inv, model)
            want = _reference_decide(workload.invocations, 6, pool, inv,
                                     StartupCostModel())
            assert _decision_key(got) == _decision_key(want)
            warm += got[0] is not None
        assert 0 < warm < len(invocations)

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            LookaheadScheduler(horizon=-1)


def _random_lookahead_pool(rng, images, image):
    """A two-shard idle pool of up to 10 random images, up to two
    containers of ``image`` and a same-image run, tied on
    ``last_used_at``."""
    pool = PoolSet(float("inf"), n_shards=2)
    drawn = [rng.choice(images) for _ in range(rng.randint(0, 10))]
    drawn += [image] * rng.randint(0, 2)
    drawn += [rng.choice(images)] * 3
    for cid, held in enumerate(drawn):
        pool.add(make_container(cid, image=held,
                                last_used_at=float(rng.randint(0, 1))),
                 shard_index=cid)
    return pool


def _reference_upcoming(future, current, horizon):
    """Linear-scan horizon: the ``horizon`` arrivals after the first one
    whose id is ``current``'s."""
    for i, inv in enumerate(future):
        if inv.invocation_id == current.invocation_id:
            return list(future[i + 1 : i + 1 + horizon])
    return []


def _reference_saving(inv, container_image, cost_model):
    match = match_level(inv.spec.image, container_image)
    if not match.is_reusable:
        return 0.0
    cold = cost_model.latency_s(
        inv.spec.image, MatchLevel.NO_MATCH, inv.spec.function_init_s
    )
    warm = cost_model.latency_s(
        inv.spec.image, match, inv.spec.function_init_s
    )
    return cold - warm


def _reference_opportunity_loss(container, upcoming, my_image, cost_model,
                                busy_until):
    worst = 0.0
    for inv in upcoming:
        as_is = _reference_saving(inv, container.image, cost_model)
        if as_is <= 0:
            continue
        if inv.arrival_time < busy_until:
            loss = as_is
        else:
            loss = max(
                0.0, as_is - _reference_saving(inv, my_image, cost_model)
            )
        worst = max(worst, loss)
    return worst


def _reference_decide(future, horizon, pool, invocation, cost_model):
    """Lookahead's rule written per candidate: every candidate (repeated
    images included) prices every upcoming arrival from scratch."""
    spec = invocation.spec
    image = spec.image
    finit = spec.function_init_s
    upcoming = _reference_upcoming(future, invocation, horizon)
    cold_latency = cost_model.latency_s(image, MatchLevel.NO_MATCH, finit)
    scan = sorted(
        ((c, match_level(image, c.image))
         for c in pool.match_candidates(image, MatchLevel.L1)),
        key=lambda cm: (cm[1], cm[0].last_used_at, cm[0].container_id),
        reverse=True,
    )
    best, best_score = COLD, 0.0
    for container, level in scan:
        my_latency = cost_model.latency_s(image, level, finit)
        my_saving = cold_latency - my_latency
        busy_until = (
            invocation.arrival_time + my_latency + invocation.execution_time_s
        )
        loss = _reference_opportunity_loss(
            container, upcoming, image, cost_model, busy_until
        )
        score = my_saving - loss
        if score > best_score:
            best_score = score
            best = (container, False, ())
    return best


def _decision_key(decision):
    container, preserve_image, actions = decision
    return (
        None if container is None else container.container_id,
        preserve_image, actions,
    )


class TestMPCPlan:
    @pytest.mark.parametrize("budget", [1, 2])
    @pytest.mark.parametrize("n_shards", [0, 2])  # 0: a lane's WarmPool
    def test_plan_matches_straight_line_rule(self, budget, n_shards):
        """``_plan`` returns (and records) what the straight-line rule does
        at every arrival -- a per-decision forecast and the idle
        exact-match test as ``any(c is not claimed for c in
        exact_matches(image))`` -- over random pools where two functions
        share an image, so the claimed container is sometimes another
        function's only exact match and sometimes one of two."""
        flask = make_image("f")
        numpy = make_image("n", runtime_names=("numpy",))
        images = [flask, numpy,
                  make_image("p", runtime_names=("pandas",)),
                  make_image("e", lang_name="nodejs",
                             runtime_names=("express",))]
        specs = [make_spec(func_id=i, name=f"fn{i}", image=image)
                 for i, image in enumerate(
                     [flask, numpy, numpy, images[2], images[3], flask])]
        alpha, horizon_s = 0.3, 6.0
        scheduler = MPCScheduler(horizon_s=horizon_s, prewarm_budget=budget,
                                 alpha=alpha)
        model = StartupCostModel()
        rng = random.Random(budget * 10 + n_shards)
        registered, last, gap, forecast = {}, {}, {}, {}
        seen = {"claimed_only": 0, "claimed_of_two": 0, "full_plan": 0}
        now = 0.0
        for i in range(400):
            now += rng.uniform(0.1, 3.0)
            inv = make_invocation(rng.choice(specs), i, arrival_time=now)
            fn = inv.spec.name
            registered[fn] = inv.spec.image
            if fn in last:
                step = now - last[fn]
                gap[fn] = step if fn not in gap else (
                    alpha * step + (1.0 - alpha) * gap[fn])
                forecast[fn] = now + gap[fn]
            last[fn] = now
            pool = _random_mpc_pool(rng, images, inv.spec.image, n_shards)
            prewarmed_for = dict(scheduler._prewarmed_for)
            decision = scheduler.decide(pool, inv, model)
            want = _reference_plan(
                registered, forecast, prewarmed_for, budget, horizon_s,
                pool, inv, decision[0], seen)
            assert decision[2] == want
            assert scheduler._prewarmed_for == prewarmed_for
            seen["full_plan"] += len(want) == budget
        assert all(seen.values()), seen


def _random_mpc_pool(rng, images, image, n_shards):
    """A ``WarmPool`` (``n_shards == 0``) or ``PoolSet`` of up to six
    random images plus up to two containers of ``image``, tied on
    ``last_used_at``."""
    pool = (WarmPool(float("inf")) if n_shards == 0
            else PoolSet(float("inf"), n_shards=n_shards))
    drawn = [rng.choice(images) for _ in range(rng.randint(0, 6))]
    drawn += [image] * rng.randint(0, 2)
    for cid, held in enumerate(drawn):
        pool.add(make_container(cid, image=held,
                                last_used_at=float(rng.randint(0, 1))),
                 shard_index=cid)
    return pool


def _reference_plan(registered, forecast, prewarmed_for, budget, horizon_s,
                    pool, invocation, claimed, seen):
    """MPC's planning step written straight: the budget checked before
    each function, the full exact-match list built for each."""
    now = invocation.arrival_time
    deadline = now + horizon_s
    plan = []
    for fn, image in registered.items():
        if len(plan) >= budget:
            break
        if fn == invocation.spec.name:
            continue
        predicted = forecast.get(fn)
        if predicted is None or not (now < predicted <= deadline):
            continue
        if prewarmed_for.get(fn) == predicted:
            continue
        exact = pool.exact_matches(image)
        if any(c is claimed for c in exact):
            seen["claimed_only"] += len(exact) == 1
            seen["claimed_of_two"] += len(exact) == 2
        if any(c is not claimed for c in exact):
            continue
        plan.append(PrewarmRequest(image=image, function_name=fn))
        prewarmed_for[fn] = predicted
    return tuple(plan)


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
                       idle_containers=donors)
        container, _, actions = decide(
            PagurusLendingScheduler(help_threshold_s=2.0), ctx
        )
        assert container.container_id == 3  # greedy MRU pick at L2
        assert actions == (
            LendRequest(container_id=1, image=spec.image, function_name="f"),
        )
