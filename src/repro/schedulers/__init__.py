"""Container-reuse schedulers: the paper's comparison set.

Every policy writes its rule once, in ``decide_pool`` over the warm pool's
match index and the arriving invocation; the simulator reaches it through
``decide`` and the lane kernel calls it directly.

* :class:`ColdOnlyScheduler` -- always cold start (lower-bound sanity check).
* :class:`KeepAliveScheduler` -- exact-configuration reuse, 10-minute TTL,
  reject-when-full (the public-cloud default).
* :class:`LRUScheduler` -- exact-configuration reuse with LRU eviction.
* :class:`FaasCacheScheduler` -- exact-configuration reuse with greedy-dual
  eviction priorities (Fuerst & Sharma).
* :class:`GreedyMatchScheduler` -- multi-level (Table I) matching, picking
  the deepest-matching container greedily; LRU eviction.
* :class:`LookaheadScheduler` -- a clairvoyant bounded-horizon searcher used
  as an ablation upper bound (not in the paper's comparison set).
* :class:`MPCScheduler` -- keep-alive reuse plus receding-horizon proactive
  pre-warming from an EWMA arrival forecaster (Taming Cold Starts).
* :class:`PagurusLendingScheduler` -- greedy reuse plus Pagurus-style
  lending: long-idle containers are re-specialized toward other functions.
* :class:`OfflineQScheduler` -- serves a tabular Q-policy fitted offline
  from golden-trace / serve-recording JSONL (:mod:`repro.drl.offline`).
* MLCR itself lives in :mod:`repro.core` (DRL-based) and plugs into the same
  :class:`Scheduler` interface.
"""

from repro.schedulers.base import (
    Decision,
    ExactMatchScheduler,
    LendRequest,
    PrewarmRequest,
    Scheduler,
    SchedulingContext,
)
from repro.schedulers.coldonly import ColdOnlyScheduler
from repro.schedulers.keepalive import KeepAliveScheduler
from repro.schedulers.lru import LRUScheduler
from repro.schedulers.faascache import FaasCacheScheduler
from repro.schedulers.greedy import GreedyMatchScheduler
from repro.schedulers.lending import PagurusLendingScheduler
from repro.schedulers.lookahead import LookaheadScheduler
from repro.schedulers.mpc import ArrivalForecaster, MPCScheduler
from repro.schedulers.offline import OfflineQScheduler
from repro.schedulers.walways import AlwaysAdoptScheduler
from repro.schedulers.zygote import ZygoteScheduler, build_zygote_images

__all__ = [
    "Scheduler",
    "SchedulingContext",
    "Decision",
    "ExactMatchScheduler",
    "PrewarmRequest",
    "LendRequest",
    "ColdOnlyScheduler",
    "KeepAliveScheduler",
    "LRUScheduler",
    "FaasCacheScheduler",
    "GreedyMatchScheduler",
    "LookaheadScheduler",
    "ArrivalForecaster",
    "MPCScheduler",
    "PagurusLendingScheduler",
    "OfflineQScheduler",
    "AlwaysAdoptScheduler",
    "ZygoteScheduler",
    "build_zygote_images",
]
