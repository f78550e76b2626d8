"""An independent, event-driven reference of the platform model.

The paper's platform (Section III-A), cut down to what can be checked
exactly: one worker, exact-match reuse with the MRU tie rule, LRU
eviction or reject-when-full keep-alive, and an optional TTL.  It is
written from that description alone.  It imports the workload types and
the cost model, never the engines (``repro.cluster``) or the policies
(``repro.schedulers``), so a modelling bug the two engines share shows
up as a disagreement with it (``tests/test_exact_reference.py``).

Each container is an :class:`Instance` in the shape of SimFaaS's
``FunctionInstance``: a state and one next-transition query.  The loop
repeatedly takes the earliest of the next arrival and the earliest busy
instance's departure; an arrival wins a time tie.  Before either is
handled, every idle instance whose termination (idle since + TTL) lies
strictly before that time is gone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.workloads.workload import Invocation

BUSY, IDLE, GONE = "busy", "idle", "gone"


@dataclass(frozen=True)
class Policy:
    """What the reference needs to know of a policy."""

    reuse: bool                   # exact-match reuse, else always cold
    reject_when_full: bool        # KeepAlive's keep-alive, else LRU
    ttl_s: Optional[float] = None


#: The three registry policies the reference covers, as the paper and the
#: baselines' descriptions define them.
POLICIES = {
    "lru": Policy(reuse=True, reject_when_full=False),
    "keepalive": Policy(reuse=True, reject_when_full=True, ttl_s=600.0),
    "coldonly": Policy(reuse=False, reject_when_full=False),
}


class Instance:
    """One container: BUSY (starting up, then executing), IDLE, GONE."""

    def __init__(self, cid: int, image) -> None:
        self.cid = cid
        self.image = image
        self.state = BUSY
        self.idle_since = 0.0
        self.key: Tuple[float, float, int] = (0.0, 0.0, 0)

    def arrival_transition(
        self, image, t: float, startup_s: float, exec_s: float, seq: int
    ) -> None:
        """Serve an invocation arriving at ``t``: start up, then run."""
        self.image = image
        self.state = BUSY
        ready = t + startup_s
        # Departures at one time leave in the order their startups ended,
        # then in decision order.
        self.key = (ready + exec_s, ready, seq)

    def departure_transition(self) -> None:
        self.state = IDLE
        self.idle_since = self.key[0]

    def next_transition(self, ttl_s: Optional[float]) -> Optional[float]:
        """Time of this instance's next transition: its departure when
        busy, its termination when idle under a TTL, else None."""
        if self.state == BUSY:
            return self.key[0]
        if self.state == IDLE and ttl_s is not None:
            return self.idle_since + ttl_s
        return None


class Reference:
    """One run of the reference platform."""

    def __init__(
        self,
        policy: Policy,
        capacity_mb: float,
        price: Callable[[object, int], float],
    ) -> None:
        self.policy = policy
        self.capacity_mb = capacity_mb
        self.price = price            # (image, match level 0 or 3) -> s
        self.instances: List[Instance] = []
        self.pooled: List[Instance] = []   # least recently pooled first
        self.outcomes: List[Tuple[bool, int, float]] = []
        self.evictions = self.rejections = self.expirations = 0

    def run(self, invocations: Sequence[Invocation]) -> "Reference":
        pending = list(invocations)
        while True:
            busy = [i for i in self.instances if i.state == BUSY]
            leaving = min(busy, key=lambda i: i.key, default=None)
            if pending and (
                leaving is None
                or pending[0].arrival_time <= leaving.next_transition(None)
            ):
                self.arrive(pending.pop(0))
            elif leaving is not None:
                self.depart(leaving)
            else:
                return self

    def terminate_before(self, t: float) -> None:
        for inst in list(self.pooled):
            end = inst.next_transition(self.policy.ttl_s)
            if end is not None and end < t:
                self.remove(inst)
                self.expirations += 1

    def remove(self, inst: Instance) -> None:
        inst.state = GONE
        self.pooled.remove(inst)

    def arrive(self, invocation: Invocation) -> None:
        t = invocation.arrival_time
        self.terminate_before(t)
        image = invocation.spec.image
        matches = [
            i for i in self.pooled
            if self.policy.reuse and i.image.fingerprints == image.fingerprints
        ]
        if matches:
            inst = max(matches, key=lambda i: (i.idle_since, i.cid))
            self.pooled.remove(inst)
            level = 3
        else:
            inst = Instance(len(self.instances) + 1, image)
            self.instances.append(inst)
            level = 0
        startup_s = self.price(image, level)
        inst.arrival_transition(image, t, startup_s,
                                invocation.execution_time_s,
                                len(self.outcomes))
        self.outcomes.append((level == 0, inst.cid, startup_s))

    def depart(self, inst: Instance) -> None:
        t = inst.next_transition(None)
        self.terminate_before(t)
        inst.departure_transition()
        size = inst.image.memory_mb
        free = self.capacity_mb - sum(i.image.memory_mb for i in self.pooled)
        if size <= free:
            self.pooled.append(inst)
        elif self.policy.reject_when_full or size > self.capacity_mb:
            inst.state = GONE
            self.rejections += 1
        else:
            freed = 0.0
            while freed < size - free:
                victim = self.pooled[0]
                freed += victim.image.memory_mb
                self.remove(victim)
                self.evictions += 1
            self.pooled.append(inst)
