"""Off-policy Q-learning from recorded decision traces.

The golden-trace JSONL format (:mod:`repro.verify.trace`) and the serving
plane's decision recordings (:mod:`repro.serve.recorder`) are both offline
datasets: every line carries the invoked function (``fn``), whether the
start was cold (``cold``), the Table-I match level it started at (``m``)
and the startup latency paid (``lat``).  :func:`fit_from_traces` distills
them into a tabular Q-function over (function, action) pairs -- action 0
is a cold start, actions 1..3 are warm starts at match level L1..L3 --
with reward ``-lat`` and the next arriving function as the successor
state, then runs a fixed number of synchronous value-iteration sweeps.

Determinism contract (pinned by the ``offline_deterministic``
differential oracle and the shard-shuffle property suite):

* **Order independence** -- transitions are reduced to sufficient
  statistics (integer counts plus per-cell reward multisets summed with
  ``math.fsum`` over *sorted* values), so fitting the same shards in any
  order yields a bit-identical Q-table.
* **Replay determinism** -- :class:`OfflineQPolicy` is a pure lookup
  table; scheduling the same workload twice yields identical decisions.

The fitted policy drives :class:`~repro.schedulers.offline.\
OfflineQScheduler`, which masks unavailable actions per decision with the
same :func:`~repro.drl.dqn.masked_argmax` machinery as the PR-3 DQN stack.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.drl.dqn import DQNConfig
from repro.jsonl import DECISION_SCHEMA, check_object, read_object

#: Action space: cold start plus the three reusable Table-I match levels.
N_ACTIONS = 4
ACTION_COLD = 0

#: Keys a JSONL row must carry to count as one decision (golden-trace
#: lines and serve-recording decision lines both qualify; headers and
#: scheduler-swap markers do not), with the JSON kind each must hold.  A
#: match level is an action index: cold is 0, L1..L3 are 1..3.
_DECISION_SCHEMA = {key: DECISION_SCHEMA[key]
                    for key in ("fn", "cold", "m", "lat")}

TraceSource = Union[str, Path, Iterable[str]]


@dataclass(frozen=True)
class Transition:
    """One offline (s, a, r, s') sample; ``next_state`` None at episode end."""

    state: str
    action: int
    reward: float
    next_state: Optional[str]


def iter_transitions(
    lines: Iterable[str], source: str = "trace"
) -> Iterator[Transition]:
    """Parse decision lines into transitions (consecutive-pair chaining).

    Non-decision lines (trace headers, serve swap markers, blanks) are
    skipped; the final decision of a shard becomes a terminal transition.
    A line that is not a JSON object, or a decision line whose field has
    the wrong type (``"cold": "no"`` is not a cold start), raises
    ``ValueError`` naming ``source`` and the line number: skipping it
    would chain its neighbours into a transition the data never showed.
    """
    prev: Optional[Tuple[str, int, float]] = None
    for number, raw in enumerate(lines, start=1):
        raw = raw.strip()
        if not raw:
            continue
        where = f"{source}: line {number}"
        row = read_object(raw, where)
        if any(key not in row for key in _DECISION_SCHEMA):
            continue
        check_object(row, _DECISION_SCHEMA, where, closed=False)
        action = ACTION_COLD if row["cold"] else row["m"]
        state = row["fn"]
        if prev is not None:
            yield Transition(prev[0], prev[1], prev[2], state)
        prev = (state, action, -float(row["lat"]))
    if prev is not None:
        yield Transition(prev[0], prev[1], prev[2], None)


def _read_lines(source: TraceSource) -> Iterable[str]:
    """Lines of one shard: a path is read, an iterable is passed through."""
    if isinstance(source, (str, Path)):
        return Path(source).read_text().splitlines()
    return source


@dataclass(frozen=True)
class OfflineQPolicy:
    """Tabular Q-function fitted from traces (pure lookup at serve time).

    ``q[i, a]`` is the value of action ``a`` in state ``states[i]``; cells
    never observed in the data are ``NaN`` and must be masked out by the
    consumer.  ``n_transitions`` counts the samples the fit consumed.
    """

    states: Tuple[str, ...]
    q: np.ndarray
    gamma: float
    iterations: int
    n_transitions: int

    def __post_init__(self) -> None:
        if self.q.shape != (len(self.states), N_ACTIONS):
            raise ValueError("q must be (n_states, N_ACTIONS)")

    def action_values(self, function_name: str) -> Optional[np.ndarray]:
        """Q-row for ``function_name``; None for unseen functions."""
        index = self._index().get(function_name)
        if index is None:
            return None
        return self.q[index]

    def _index(self) -> Dict[str, int]:
        index = getattr(self, "_state_index", None)
        if index is None:
            index = {name: i for i, name in enumerate(self.states)}
            object.__setattr__(self, "_state_index", index)
        return index

    def save(self, path: Union[str, Path]) -> Path:
        """Serialize to ``.npz``; returns the path."""
        path = Path(path)
        meta = json.dumps({
            "gamma": self.gamma,
            "iterations": self.iterations,
            "n_transitions": self.n_transitions,
        })
        np.savez(
            path,
            states=np.array(self.states, dtype=object),
            q=self.q,
            meta=np.array(meta),
        )
        # np.savez appends .npz only when missing; normalize the return.
        return path if path.suffix == ".npz" else path.with_suffix(
            path.suffix + ".npz"
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "OfflineQPolicy":
        """Load a policy saved by :meth:`save`."""
        with np.load(path, allow_pickle=True) as data:
            meta = json.loads(str(data["meta"]))
            return cls(
                states=tuple(str(s) for s in data["states"]),
                q=np.asarray(data["q"], dtype=np.float64),
                gamma=float(meta["gamma"]),
                iterations=int(meta["iterations"]),
                n_transitions=int(meta["n_transitions"]),
            )


def fit_from_traces(
    sources: Iterable[TraceSource],
    gamma: float = DQNConfig().gamma,
    iterations: int = 50,
) -> OfflineQPolicy:
    """Fit a tabular Q-function from JSONL shards (order-independent).

    Parameters
    ----------
    sources:
        Trace shards: file paths and/or iterables of JSONL lines.  A
        line that is not a JSON object raises ``ValueError`` naming the
        path (or ``shard <index>``) and the line number.
        Transitions chain *within* a shard only, so re-ordering the
        shards -- or fitting them on different machines and merging --
        yields a bit-identical policy.
    gamma:
        Discount factor (defaults to the PR-3 DQN stack's).
    iterations:
        Synchronous value-iteration sweeps over the empirical model.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must be in [0, 1)")
    counts: Dict[Tuple[str, int], int] = {}
    rewards: Dict[Tuple[str, int], List[float]] = {}
    successors: Dict[Tuple[str, int], Dict[Optional[str], int]] = {}
    n_transitions = 0
    for index, source in enumerate(sources):
        name = (str(source) if isinstance(source, (str, Path))
                else f"shard {index}")
        for tr in iter_transitions(_read_lines(source), name):
            key = (tr.state, tr.action)
            counts[key] = counts.get(key, 0) + 1
            rewards.setdefault(key, []).append(tr.reward)
            nexts = successors.setdefault(key, {})
            nexts[tr.next_state] = nexts.get(tr.next_state, 0) + 1
            n_transitions += 1

    states = tuple(sorted(
        {s for s, _ in counts}
        | {ns for nexts in successors.values() for ns in nexts
           if ns is not None}
    ))
    state_index = {name: i for i, name in enumerate(states)}

    # Empirical MDP: mean reward (fsum over the sorted multiset, so shard
    # order cannot perturb the float sum) and successor frequencies.
    mean_reward: Dict[Tuple[str, int], float] = {
        key: math.fsum(sorted(values)) / counts[key]
        for key, values in rewards.items()
    }

    q = np.zeros((len(states), N_ACTIONS), dtype=np.float64)
    observed = np.zeros((len(states), N_ACTIONS), dtype=bool)
    for (state, action) in counts:
        observed[state_index[state], action] = True
    for _ in range(max(0, iterations)):
        # V(s') = max over *observed* actions (0 for dead-end states).
        masked = np.where(observed, q, -np.inf)
        values = np.where(
            observed.any(axis=1), masked.max(axis=1), 0.0
        )
        new_q = q.copy()
        for key in sorted(counts):
            state, action = key
            total = counts[key]
            bootstrap = 0.0
            for next_state, n in sorted(
                successors[key].items(), key=lambda kv: (kv[0] is None,
                                                         kv[0] or "")
            ):
                if next_state is not None:
                    bootstrap += (n / total) * values[state_index[next_state]]
            new_q[state_index[state], action] = (
                mean_reward[key] + gamma * bootstrap
            )
        q = new_q

    q[~observed] = np.nan
    return OfflineQPolicy(
        states=states,
        q=q,
        gamma=float(gamma),
        iterations=int(iterations),
        n_transitions=n_transitions,
    )


def trace_lines_from_result(result) -> List[str]:
    """Render a simulation result's invocations as offline JSONL lines.

    Used by :meth:`OfflineQScheduler.observe_workload` to bootstrap a
    policy from a reference rollout without touching the filesystem; the
    lines carry exactly the decision keys :func:`iter_transitions` needs.
    """
    columns = result.telemetry.invocation_columns()
    return [
        json.dumps(
            {"fn": fn, "t": t, "cold": bool(cold), "m": int(m),
             "lat": lat},
            separators=(",", ":"),
        )
        for fn, t, cold, m, lat in zip(
            columns.function_name,
            columns.arrival_time,
            columns.cold_start,
            columns.match,
            columns.startup_latency_s,
        )
    ]
