"""Unit tests for the offline Q-learning pipeline (repro.drl.offline)."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from repro.drl.offline import (
    ACTION_COLD,
    N_ACTIONS,
    OfflineQPolicy,
    Transition,
    fit_from_traces,
    iter_transitions,
    trace_lines_from_result,
)


def line(fn, cold=True, m=0, lat=1.0):
    """One decision line in the golden-trace / serve-recording schema."""
    return json.dumps({"fn": fn, "cold": cold, "m": m, "lat": lat})


class TestIterTransitions:
    def test_chains_consecutive_decisions(self):
        lines = [line("a", cold=True, lat=2.0),
                 line("b", cold=False, m=3, lat=0.1),
                 line("a", cold=False, m=2, lat=0.4)]
        got = list(iter_transitions(lines))
        assert got == [
            Transition("a", ACTION_COLD, -2.0, "b"),
            Transition("b", 3, -0.1, "a"),
            Transition("a", 2, -0.4, None),
        ]

    def test_skips_non_decision_lines(self):
        lines = ['{"version": 1, "workload": "x"}',
                 line("a"),
                 '{"swap": "greedy", "t": 3.0}',
                 "",
                 line("b", cold=False, m=1, lat=0.2)]
        got = list(iter_transitions(lines))
        assert [t.state for t in got] == ["a", "b"]
        assert got[0].next_state == "b"

    @pytest.mark.parametrize("bad, needle", [
        ("not json at all", "shard.jsonl: line 3 is not JSON"),
        ('{"fn": "b", "cold": tr', "shard.jsonl: line 3 is not JSON"),
        ("[1, 2]", "shard.jsonl: line 3 is not a JSON object: list"),
    ], ids=["not-json", "truncated", "array"])
    def test_rejects_corrupt_line(self, bad, needle):
        lines = [line("a"), "", bad, line("c")]
        with pytest.raises(ValueError, match=needle):
            list(iter_transitions(lines, "shard.jsonl"))

    @pytest.mark.parametrize("field, value, needle", [
        ("m", "x", "key 'm' is not an int match level in 0..3: 'x'"),
        ("m", 4, "key 'm' is not an int match level in 0..3: 4"),
        ("m", True, "key 'm' is not an int match level in 0..3: True"),
        ("cold", "no", "key 'cold' is not a bool: 'no'"),
        ("cold", 0, "key 'cold' is not a bool: 0"),
        ("fn", 7, "key 'fn' is not a string: 7"),
        ("lat", "1.5", "key 'lat' is not a number: '1.5'"),
        ("lat", False, "key 'lat' is not a number: False"),
        ("lat", float("nan"), "key 'lat' is not a number: nan"),
        ("lat", float("-inf"), "key 'lat' is not a number: -inf"),
    ], ids=["str-m", "m-out-of-range", "bool-m", "str-cold", "int-cold",
            "int-fn", "str-lat", "bool-lat", "nan-lat", "minus-inf-lat"])
    def test_rejects_mistyped_decision_field(self, field, value, needle):
        row = json.loads(line("b", cold=False, m=2, lat=0.5))
        row[field] = value
        lines = [line("a"), json.dumps(row), line("c")]
        with pytest.raises(ValueError,
                           match=re.escape(f"shard.jsonl: line 2 {needle}")):
            list(iter_transitions(lines, "shard.jsonl"))

    def test_empty_input(self):
        assert list(iter_transitions([])) == []


class TestFitFromTraces:
    def test_unseen_actions_are_nan(self):
        policy = fit_from_traces([[line("a", cold=True, lat=1.0)]])
        q = policy.action_values("a")
        assert q.shape == (N_ACTIONS,)
        assert not np.isnan(q[ACTION_COLD])
        assert np.isnan(q[1:]).all()

    def test_prefers_cheaper_action(self):
        lines = [line("a", cold=True, lat=5.0),
                 line("a", cold=False, m=3, lat=0.1)] * 10
        policy = fit_from_traces([lines])
        q = policy.action_values("a")
        assert q[3] > q[ACTION_COLD]

    def test_no_transitions_yields_empty_policy(self):
        policy = fit_from_traces([["{}"]])
        assert policy.states == ()
        assert policy.n_transitions == 0
        assert policy.action_values("a") is None

    def test_bad_gamma_rejected(self):
        with pytest.raises(ValueError):
            fit_from_traces([[line("a")]], gamma=1.0)

    def test_unknown_state_is_none(self):
        policy = fit_from_traces([[line("a")]])
        assert policy.action_values("never-seen") is None

    def test_accepts_path_sources(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join([line("a"), line("b", m=1)]) + "\n")
        policy = fit_from_traces([path])
        assert set(policy.states) == {"a", "b"}


class TestPolicyRoundTrip:
    def test_save_load_bitwise(self, tmp_path):
        policy = fit_from_traces([[line("a"), line("b", cold=False, m=2,
                                                   lat=0.3)]])
        path = policy.save(tmp_path / "policy")
        assert path.suffix == ".npz"
        loaded = OfflineQPolicy.load(path)
        assert loaded.states == policy.states
        assert loaded.q.tobytes() == policy.q.tobytes()
        assert loaded.gamma == policy.gamma
        assert loaded.n_transitions == policy.n_transitions

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            OfflineQPolicy(states=("a",), q=np.zeros((2, N_ACTIONS)),
                           gamma=0.9, iterations=1, n_transitions=1)


class TestTraceLinesFromResult:
    def test_lines_parse_back(self):
        from repro.cluster.simulator import ClusterSimulator, SimulationConfig
        from repro.schedulers.greedy import GreedyMatchScheduler
        from repro.workloads.fstartbench import build_workload

        workload = build_workload("LO-Sim", seed=0)
        sim = ClusterSimulator(SimulationConfig(pool_capacity_mb=2000.0))
        result = sim.run(workload, GreedyMatchScheduler())
        lines = trace_lines_from_result(result)
        assert len(lines) == len(workload)
        transitions = list(iter_transitions(lines))
        assert len(transitions) == len(workload)
        assert transitions[-1].next_state is None
