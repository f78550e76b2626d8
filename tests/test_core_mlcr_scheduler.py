"""Focused tests for MLCRScheduler serving behaviour and configs."""

import numpy as np
import pytest

from repro.core.config import MLCRConfig
from repro.core.mlcr import MLCRScheduler
from repro.core.state import StateEncoder
from repro.drl.dqn import DQNAgent, DQNConfig
from repro.drl.network import MLPQNetwork

from conftest import make_container, make_ctx, make_image, make_invocation, make_spec


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
                now=float(i),
            )
            decision = scheduler.decide(ctx)
            if not decision.is_cold:
                assert decision.container_id == 1  # only the matching one

    def test_counts_decisions(self, scheduler):
        ctx = make_ctx(make_invocation())
        scheduler.decide(ctx)
        scheduler.decide(ctx)
        assert scheduler.decisions_made == 2

    def test_reset_clears_state(self, scheduler):
        scheduler.decide(make_ctx(make_invocation()))
        scheduler.reset()
        assert scheduler.decisions_made == 0

    def test_unmasked_serving_still_executable(self, scheduler):
        scheduler.use_mask = False
        no_match = make_container(2, image=make_image("o", os_name="debian"))
        ctx = make_ctx(make_invocation(), idle_containers=[no_match])
        # The only container is no-match: any action resolves to cold.
        assert scheduler.decide(ctx).is_cold


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
            MLCRConfig(reward_scale=0.0)
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


class TestExplain:
    def test_explain_is_side_effect_free(self, scheduler):
        ctx = make_ctx(make_invocation(), idle_containers=[make_container(1)])
        before = scheduler.encoder._demand_total
        explanation = scheduler.explain(ctx)
        assert scheduler.encoder._demand_total == before
        assert scheduler.decisions_made == 0
        assert explanation.decision is not None

    def test_explain_matches_decide(self, scheduler):
        containers = [make_container(1), make_container(2)]
        ctx = make_ctx(make_invocation(), idle_containers=containers)
        explanation = scheduler.explain(ctx)
        decision = scheduler.decide(ctx)
        assert explanation.decision == decision

    def test_masked_rows_flagged(self, scheduler):
        no_match = make_container(9, image=make_image("o", os_name="debian"))
        ctx = make_ctx(make_invocation(), idle_containers=[no_match])
        explanation = scheduler.explain(ctx)
        assert explanation.rows[0].masked

    def test_render(self, scheduler):
        ctx = make_ctx(make_invocation(), idle_containers=[make_container(1)])
        text = scheduler.explain(ctx).render()
        assert "chosen:" in text and "cold" in text
