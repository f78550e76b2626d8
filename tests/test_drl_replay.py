"""Tests for the replay buffer."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.drl.replay import ReplayBuffer, Transition


def make_transition(tag: float, state_dim=4, action_dim=3, action=0,
                    done=False):
    return Transition(
        state=np.full(state_dim, tag),
        action=action,
        reward=tag,
        next_state=np.full(state_dim, tag + 0.5),
        next_mask=np.ones(action_dim, dtype=bool),
        done=done,
    )


class TestAdd:
    def test_grows_until_capacity(self):
        buf = ReplayBuffer(3, 4, 3)
        for i in range(5):
            buf.add(make_transition(float(i)))
            assert len(buf) == min(i + 1, 3)

    def test_overwrites_oldest(self):
        buf = ReplayBuffer(2, 4, 3)
        for i in range(3):
            buf.add(make_transition(float(i)))
        rng = np.random.default_rng(0)
        rewards = set()
        for _ in range(30):
            rewards.update(buf.sample(2, rng)["rewards"].tolist())
        assert 0.0 not in rewards  # the first transition was evicted
        assert rewards <= {1.0, 2.0}

    def test_dimension_validation(self):
        buf = ReplayBuffer(2, 4, 3)
        with pytest.raises(ValueError):
            buf.add(make_transition(0.0, state_dim=5))
        with pytest.raises(ValueError):
            buf.add(make_transition(0.0, action_dim=2))
        with pytest.raises(ValueError):
            buf.add(make_transition(0.0, action=7))

    def test_bad_construction(self):
        with pytest.raises(ValueError):
            ReplayBuffer(0, 4, 3)


class TestSample:
    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            ReplayBuffer(2, 4, 3).sample(1, np.random.default_rng(0))

    def test_sample_shapes(self):
        buf = ReplayBuffer(10, 4, 3)
        for i in range(5):
            buf.add(make_transition(float(i), action=i % 3, done=i == 4))
        batch = buf.sample(8, np.random.default_rng(0))
        assert batch["states"].shape == (8, 4)
        assert batch["actions"].shape == (8,)
        assert batch["next_masks"].shape == (8, 3)
        assert batch["next_masks"].dtype == bool
        assert batch["dones"].dtype == bool

    def test_sample_contents_consistent(self):
        buf = ReplayBuffer(10, 4, 3)
        buf.add(make_transition(7.0, action=2, done=True))
        batch = buf.sample(3, np.random.default_rng(0))
        np.testing.assert_allclose(batch["states"], 7.0)
        np.testing.assert_allclose(batch["next_states"], 7.5)
        assert (batch["actions"] == 2).all()
        assert batch["dones"].all()


@given(st.integers(min_value=1, max_value=20),
       st.integers(min_value=0, max_value=40))
def test_len_never_exceeds_capacity(capacity, n_adds):
    buf = ReplayBuffer(capacity, 2, 2)
    for i in range(n_adds):
        buf.add(make_transition(float(i), state_dim=2, action_dim=2))
    assert len(buf) == min(capacity, n_adds)
