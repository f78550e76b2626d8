"""Focused tests for MLCRScheduler serving behaviour and configs."""

import numpy as np
import pytest

from repro.core.config import MLCRConfig
from repro.core.mlcr import MLCRScheduler
from repro.core.state import StateEncoder
from repro.drl.dqn import DQNAgent, DQNConfig
from repro.drl.network import MLPQNetwork
from repro.schedulers.base import COLD, Scheduler

from conftest import (
    decide,
    make_container,
    make_ctx,
    make_image,
    make_invocation,
    make_spec,
)


@pytest.fixture
def scheduler():
    encoder = StateEncoder(n_slots=4)
    agent = DQNAgent(
        network_factory=lambda: MLPQNetwork(
            encoder.global_dim, encoder.slot_dim, encoder.n_slots,
            np.random.default_rng(0), hidden=16,
        ),
        config=DQNConfig(batch_size=4, buffer_capacity=32),
        rng=np.random.default_rng(1),
    )
    return MLCRScheduler(agent, encoder)


class TestServing:
    def test_decisions_always_valid(self, scheduler):
        """Whatever the (untrained) Q-values say, decisions are executable:
        warm picks are reusable pooled containers, otherwise cold."""
        containers = [
            make_container(1),
            make_container(2, image=make_image("o", os_name="debian")),
        ]
        for i in range(10):
            ctx = make_ctx(
                make_invocation(make_spec(name=f"f{i}"), invocation_id=i,
                                arrival_time=float(i)),
                idle_containers=containers,
            )
            # Only the matching container may be reused.
            assert decide(scheduler, ctx)[0] in (None, containers[0])

    def test_counts_decisions(self, scheduler):
        ctx = make_ctx(make_invocation())
        decide(scheduler, ctx)
        decide(scheduler, ctx)
        assert scheduler.decisions_made == 2

    def test_reset_clears_state(self, scheduler):
        decide(scheduler, make_ctx(make_invocation()))
        scheduler.reset()
        assert scheduler.decisions_made == 0

    def test_unmasked_serving_still_executable(self, scheduler):
        scheduler.use_mask = False
        no_match = make_container(2, image=make_image("o", os_name="debian"))
        ctx = make_ctx(make_invocation(), idle_containers=[no_match])
        # The only container is no-match: any action resolves to cold.
        assert decide(scheduler, ctx) == COLD

    def test_rule_written_in_decide(self):
        """MLCR writes its rule where every registry policy does, in
        its own ``decide``."""
        assert MLCRScheduler.decide is not Scheduler.decide


class TestConfig:
    def test_paper_scale_dimensions(self):
        cfg = MLCRConfig.paper_scale()
        assert cfg.model_dim == 512
        assert cfg.n_heads == 2
        assert cfg.n_blocks == 2

    def test_fast_shrinks_budget(self):
        base = MLCRConfig(n_episodes=30)
        fast = base.fast()
        assert fast.n_episodes < base.n_episodes

    def test_validation(self):
        with pytest.raises(ValueError):
            MLCRConfig(n_slots=0)
        with pytest.raises(ValueError):
            MLCRConfig(n_episodes=0)
        with pytest.raises(ValueError):
            MLCRConfig(shaping_coef=-1.0)
        with pytest.raises(ValueError):
            MLCRConfig(eval_every=-1)

    def test_config_hashable_for_caching(self):
        a = MLCRConfig()
        b = MLCRConfig()
        assert hash(a) == hash(b)
        assert a == b


class TestPaperScaleNetwork:
    def test_paper_dims_instantiate_and_run(self):
        """The published network dimensions build and infer correctly."""
        cfg = MLCRConfig.paper_scale()
        encoder = StateEncoder(n_slots=cfg.n_slots)
        from repro.drl.network import AttentionQNetwork

        net = AttentionQNetwork(
            global_dim=encoder.global_dim,
            slot_dim=encoder.slot_dim,
            n_slots=cfg.n_slots,
            rng=np.random.default_rng(0),
            model_dim=cfg.model_dim,
            n_heads=cfg.n_heads,
            n_blocks=cfg.n_blocks,
            head_hidden=cfg.head_hidden,
        )
        q = net.forward(np.zeros((1, net.state_dim)))
        assert q.shape == (1, cfg.n_slots + 1)
        assert np.isfinite(q).all()
