"""Policy distillation: compress the trained DQN into a µs-scale surrogate.

The deployed MLCR policy is deterministic -- ``agent.act(state, mask,
epsilon=0.0)`` is a pure function of the encoded state -- so serving does
not need the network at all: it needs any artifact that maps encoded states
to the same greedy actions.  Following the deployment argument of the
off-policy serverless-RL line (Agarwal et al., 2308.07541), this module
distills the network into a small **CART decision tree** over the raw
encoded-state features:

* :func:`collect_decisions` replays workloads through the simulator's
  incremental API with the trained scheduler, recording every
  ``(state, mask, greedy action)`` the network produces -- the
  distillation dataset is exactly the state distribution the policy
  induces on itself.
* :func:`fit_tree` grows an axis-aligned Gini-impurity tree (pure numpy,
  vectorized split scan) over those states, stored as five flat arrays --
  a :class:`TreeSurrogate` prediction is a handful of array lookups,
  roughly three orders of magnitude cheaper than the attention stack's
  matrix products.
* :class:`TreeSurrogate.act` validates the predicted action against the
  live action mask and reports ``None`` when invalid, so callers fall
  back to the full network instead of acting on a stale prediction
  (masks depend on pool state the tree never saw).

:func:`distill_scheduler` bundles the pipeline and measures in-sample
agreement; :func:`save_surrogate` / :func:`load_surrogate` persist the flat
arrays as ``.npz`` next to the network checkpoints
(:mod:`repro.core.persistence`).  The ``surrogate_vs_network`` differential
oracle enforces the ≥ 99 % agreement bar, and
:meth:`repro.core.mlcr.MLCRScheduler.attach_surrogate` wires the artifact
into the serving path with an audited disagreement counter.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.workloads.workload import Workload

#: On-disk format version of surrogate artifacts.
FORMAT_VERSION = 1


@dataclass(frozen=True)
class DistillConfig:
    """Hyperparameters of the distillation tree.

    ``max_depth`` bounds the tree; ``min_samples_leaf`` stops splits that
    would strand fewer samples.  The defaults are deliberately generous:
    in-sample fidelity is the goal (the tree is a compression of the
    network's decision surface, not a generalizing learner), and the
    ``surrogate_vs_network`` oracle enforces the agreement floor.
    """

    max_depth: int = 12
    min_samples_leaf: int = 1

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")


class TreeSurrogate:
    """A flat-array CART tree predicting greedy actions from states.

    Nodes are parallel arrays indexed by node id (root = 0): internal
    nodes carry ``feature``/``threshold`` and route to ``left`` (value
    ``<= threshold``) or ``right``; leaves have ``feature == -1`` and
    carry the predicted action in ``value``.
    """

    def __init__(
        self,
        feature: np.ndarray,
        threshold: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        value: np.ndarray,
        n_actions: int,
        state_dim: int,
    ) -> None:
        self.feature = np.asarray(feature, dtype=np.int32)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int32)
        self.right = np.asarray(right, dtype=np.int32)
        self.value = np.asarray(value, dtype=np.int32)
        self.n_actions = int(n_actions)
        self.state_dim = int(state_dim)

    @property
    def n_nodes(self) -> int:
        """Total node count (internal + leaves)."""
        return len(self.feature)

    def predict(self, state: np.ndarray) -> int:
        """Greedy action for one encoded state (scalar tree walk)."""
        feature = self.feature
        node = 0
        f = int(feature[0])
        while f >= 0:
            if state[f] <= self.threshold[node]:
                node = int(self.left[node])
            else:
                node = int(self.right[node])
            f = int(feature[node])
        return int(self.value[node])

    def predict_batch(self, states: np.ndarray) -> np.ndarray:
        """Greedy actions for ``(n, state_dim)`` states (vectorized walk)."""
        states = np.asarray(states, dtype=np.float64)
        nodes = np.zeros(len(states), dtype=np.int32)
        pending = self.feature[nodes] >= 0
        while pending.any():
            ix = np.flatnonzero(pending)
            n = nodes[ix]
            f = self.feature[n]
            go_left = states[ix, f] <= self.threshold[n]
            nodes[ix] = np.where(go_left, self.left[n], self.right[n])
            pending[ix] = self.feature[nodes[ix]] >= 0
        return self.value[nodes].astype(np.int64)

    def act(self, state: np.ndarray, mask: np.ndarray) -> Optional[int]:
        """Mask-validated action for one state.

        Returns the predicted action when the live ``mask`` allows it and
        ``None`` otherwise -- the caller's signal to fall back to the full
        network (graceful degradation instead of acting on a prediction
        the current pool state forbids).
        """
        action = self.predict(state)
        if action < len(mask) and bool(mask[action]):
            return action
        return None


@dataclass(frozen=True)
class DistillReport:
    """What the distillation produced and how faithful it is."""

    n_states: int           # distillation dataset size
    n_nodes: int            # tree size
    agreement: float        # in-sample fraction matching the network
    n_actions: int
    state_dim: int


def collect_decisions(
    scheduler,
    workloads: Sequence[Workload],
    capacity_mb: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Replay ``workloads`` with the trained scheduler, recording decisions.

    Drives the simulator's incremental API (``load`` /
    ``next_decision_point`` / ``apply_decision``) so every recorded tuple
    is a state the deployed policy actually visits.  Returns
    ``(states (n, state_dim), masks (n, n_actions) bool, actions (n,))``
    -- the network's greedy choices on its own trajectory.
    """
    from repro.cluster.simulator import ClusterSimulator, SimulationConfig

    states: List[np.ndarray] = []
    masks: List[np.ndarray] = []
    actions: List[int] = []
    for workload in workloads:
        scheduler.reset()
        sim = ClusterSimulator(
            SimulationConfig(pool_capacity_mb=capacity_mb),
            scheduler.make_eviction_policy(),
        )
        sim.load(workload)
        while True:
            ctx = sim.next_decision_point()
            if ctx is None:
                break
            encoded = scheduler.encoder.encode(
                ctx.pool, ctx.invocation, ctx.cost_model
            )
            mask = (encoded.mask if scheduler.use_mask
                    else np.ones_like(encoded.mask))
            action = scheduler.agent.act(encoded.state, mask, epsilon=0.0)
            states.append(np.asarray(encoded.state, dtype=np.float64))
            masks.append(np.asarray(mask, dtype=bool))
            actions.append(int(action))
            sim.apply_decision(encoded.decision_for(action))
        sim.finish(scheduler_name=scheduler.name)
    if not states:
        raise ValueError("no decisions collected: workloads were empty")
    return (
        np.stack(states),
        np.stack(masks),
        np.asarray(actions, dtype=np.int64),
    )


def _best_split(
    states: np.ndarray, onehot: np.ndarray
) -> Optional[Tuple[int, float]]:
    """Best ``(feature, threshold)`` by weighted Gini, or None if no split.

    ``onehot`` is the ``(n, k)`` label indicator matrix of the node's
    samples.  For every feature the candidate thresholds are the midpoints
    between consecutive distinct sorted values; left/right class counts at
    every cut come from one prefix cumsum, so the scan is vectorized per
    feature.
    """
    n, k = onehot.shape
    total = onehot.sum(axis=0)
    best: Optional[Tuple[int, float]] = None
    best_score = np.inf
    for f in range(states.shape[1]):
        column = states[:, f]
        order = np.argsort(column, kind="stable")
        sorted_vals = column[order]
        cuts = np.flatnonzero(sorted_vals[1:] > sorted_vals[:-1])
        if cuts.size == 0:
            continue
        prefix = np.cumsum(onehot[order], axis=0)
        left = prefix[cuts]                       # (cuts, k) counts <= cut
        right = total[None, :] - left
        n_left = left.sum(axis=1)
        n_right = n - n_left
        gini_left = 1.0 - ((left / n_left[:, None]) ** 2).sum(axis=1)
        gini_right = 1.0 - ((right / n_right[:, None]) ** 2).sum(axis=1)
        score = (n_left * gini_left + n_right * gini_right) / n
        ix = int(score.argmin())
        if score[ix] < best_score - 1e-15:
            cut = cuts[ix]
            best_score = float(score[ix])
            best = (f, float((sorted_vals[cut] + sorted_vals[cut + 1]) / 2.0))
    return best


def fit_tree(
    states: np.ndarray,
    actions: np.ndarray,
    n_actions: int,
    config: Optional[DistillConfig] = None,
) -> TreeSurrogate:
    """Grow a CART tree mapping encoded states to greedy actions.

    Standard top-down Gini induction with depth and leaf-size stopping
    rules; deterministic (stable sorts, first-best ties) so the same
    dataset always yields the same artifact.
    """
    config = config or DistillConfig()
    states = np.asarray(states, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.int64)
    if states.ndim != 2 or len(states) != len(actions):
        raise ValueError("states must be (n, d) aligned with actions (n,)")
    onehot = np.zeros((len(actions), n_actions), dtype=np.float64)
    onehot[np.arange(len(actions)), actions] = 1.0

    feature: List[int] = []
    threshold: List[float] = []
    left: List[int] = []
    right: List[int] = []
    value: List[int] = []

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0)
        return len(feature) - 1

    def build(ix: np.ndarray, depth: int) -> int:
        node = new_node()
        counts = onehot[ix].sum(axis=0)
        value[node] = int(counts.argmax())
        if (
            depth >= config.max_depth
            or len(ix) < 2 * config.min_samples_leaf
            or counts.max() == len(ix)  # pure
        ):
            return node
        split = _best_split(states[ix], onehot[ix])
        if split is None:
            return node
        f, t = split
        go_left = states[ix, f] <= t
        left_ix = ix[go_left]
        right_ix = ix[~go_left]
        if (
            len(left_ix) < config.min_samples_leaf
            or len(right_ix) < config.min_samples_leaf
        ):
            return node
        feature[node] = f
        threshold[node] = t
        left[node] = build(left_ix, depth + 1)
        right[node] = build(right_ix, depth + 1)
        return node

    build(np.arange(len(states)), 0)
    return TreeSurrogate(
        feature=np.array(feature), threshold=np.array(threshold),
        left=np.array(left), right=np.array(right), value=np.array(value),
        n_actions=n_actions, state_dim=states.shape[1],
    )


def distill_scheduler(
    scheduler,
    workloads: Sequence[Workload],
    capacity_mb: float,
    config: Optional[DistillConfig] = None,
) -> Tuple[TreeSurrogate, DistillReport]:
    """Full pipeline: collect decisions, fit the tree, measure agreement.

    ``scheduler`` is a trained :class:`~repro.core.mlcr.MLCRScheduler`.
    The returned report's ``agreement`` is in-sample: the fraction of
    collected states where the tree reproduces the network's greedy
    action (the quantity the ``surrogate_vs_network`` oracle bounds).
    """
    states, _masks, actions = collect_decisions(
        scheduler, workloads, capacity_mb
    )
    surrogate = fit_tree(
        states, actions, n_actions=scheduler.agent.action_dim, config=config
    )
    predicted = surrogate.predict_batch(states)
    agreement = float((predicted == actions).mean())
    report = DistillReport(
        n_states=len(states),
        n_nodes=surrogate.n_nodes,
        agreement=agreement,
        n_actions=surrogate.n_actions,
        state_dim=surrogate.state_dim,
    )
    return surrogate, report


def save_surrogate(surrogate: TreeSurrogate, path: str) -> None:
    """Persist a surrogate to ``path`` as ``.npz`` (flat arrays + meta)."""
    meta = json.dumps({
        "format_version": FORMAT_VERSION,
        "n_actions": surrogate.n_actions,
        "state_dim": surrogate.state_dim,
    })
    buffer = io.BytesIO()
    np.savez(
        buffer,
        _meta=np.frombuffer(meta.encode("utf-8"), dtype=np.uint8),
        feature=surrogate.feature,
        threshold=surrogate.threshold,
        left=surrogate.left,
        right=surrogate.right,
        value=surrogate.value,
    )
    with open(path, "wb") as fh:
        fh.write(buffer.getvalue())


def load_surrogate(path: str) -> TreeSurrogate:
    """Load a surrogate saved by :func:`save_surrogate`."""
    with np.load(path) as data:
        meta = json.loads(bytes(data["_meta"]).decode("utf-8"))
        version = meta.get("format_version")
        if version != FORMAT_VERSION:
            raise ValueError(
                f"unsupported surrogate format version {version!r}"
            )
        return TreeSurrogate(
            feature=data["feature"], threshold=data["threshold"],
            left=data["left"], right=data["right"], value=data["value"],
            n_actions=meta["n_actions"], state_dim=meta["state_dim"],
        )
