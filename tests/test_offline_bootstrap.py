"""The Offline-Q bootstrap memo: one fit per workload object, shared by the
sequential engine and the lane kernel, never kept past its workload."""

import gc
import pickle
import weakref

import numpy as np
import pytest

from repro.cluster.lanes import ArrivalTable, LaneSpec, _Lane, _offline_policy_for
from repro.experiments.common import evaluate_scheduler, pool_sizes
from repro.schedulers import offline
from repro.schedulers.offline import OfflineQScheduler, bootstrap_policy
from repro.workloads.fstartbench import build_workload
from repro.workloads.functions import fstartbench_functions
from repro.workloads.workload import Invocation, Workload


def _small_workload(n: int = 12) -> Workload:
    specs = fstartbench_functions()
    return Workload.from_invocations("small", [
        Invocation(i, specs[i % 4], 0.5 * i, 0.1) for i in range(n)
    ])


def _same_policy(a, b) -> bool:
    return (a.states == b.states and np.array_equal(a.q, b.q, equal_nan=True)
            and (a.gamma, a.iterations, a.n_transitions)
            == (b.gamma, b.iterations, b.n_transitions))


@pytest.fixture(scope="module")
def lo_sim():
    return build_workload("LO-Sim", seed=0)


def test_one_fit_per_workload_object(lo_sim):
    assert bootstrap_policy(lo_sim) is bootstrap_policy(lo_sim)


def test_lane_and_sequential_scheduler_share_the_fit(lo_sim):
    table = ArrivalTable(lo_sim)
    lane = _Lane(LaneSpec("offline", table, pool_sizes(lo_sim)["Tight"]))
    sequential = OfflineQScheduler()
    sequential.observe_workload(lo_sim)
    assert lane.rule.__self__.policy is sequential.policy
    assert _offline_policy_for(table) is sequential.policy


def test_sequential_summaries_equal_a_refit(lo_sim, monkeypatch):
    """The memo changes no decision: every pool size's summary equals
    the one a fresh fit (memo emptied) gives."""
    capacities = pool_sizes(lo_sim)
    memoized = {label: evaluate_scheduler(OfflineQScheduler(), lo_sim, cap)
                .result.summary() for label, cap in capacities.items()}
    shared = bootstrap_policy(lo_sim)
    monkeypatch.setattr(offline, "_BOOTSTRAP_MEMO", {})
    for label, cap in capacities.items():
        offline._BOOTSTRAP_MEMO.clear()
        refit = evaluate_scheduler(OfflineQScheduler(), lo_sim, cap)
        assert bootstrap_policy(lo_sim) is not shared
        assert refit.result.summary() == memoized[label], label


def test_constructor_policy_is_never_replaced(lo_sim):
    pinned = bootstrap_policy(_small_workload())
    scheduler = OfflineQScheduler(policy=pinned)
    scheduler.observe_workload(lo_sim)
    assert scheduler.policy is pinned
    scheduler.reset()
    evaluate_scheduler(scheduler, lo_sim, pool_sizes(lo_sim)["Tight"])
    assert scheduler.policy is pinned


def test_memo_keeps_no_workload_alive():
    """Each entry lives exactly as long as its workload: the memo holds at
    most one policy per live workload."""
    gc.collect()
    before = len(offline._BOOTSTRAP_MEMO)
    refs = []
    for _ in range(5):
        workload = _small_workload()
        bootstrap_policy(workload)
        assert len(offline._BOOTSTRAP_MEMO) == before + 1
        refs.append(weakref.ref(workload))
        del workload
        gc.collect()
        assert len(offline._BOOTSTRAP_MEMO) == before
    assert all(ref() is None for ref in refs)


def test_pickled_workload_carries_no_memo():
    workload = _small_workload()
    policy = bootstrap_policy(workload)
    copy = pickle.loads(pickle.dumps(workload))
    assert copy == workload
    refit = bootstrap_policy(copy)
    assert refit is not policy
    assert _same_policy(refit, policy)
