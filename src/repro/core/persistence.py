"""Save/load trained MLCR schedulers.

The paper trains offline (hours on a V100) and serves the trained model at
runtime; that workflow needs persistence.  A saved policy bundles the
Q-network weights with the architecture and encoder configuration needed to
rebuild an identical scheduler, in a single ``.npz`` file (pickle-free: only
arrays and a JSON metadata string).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from repro.core.config import MLCRConfig
from repro.core.mlcr import MLCRScheduler
from repro.core.state import StateEncoder
from repro.drl.dqn import DQNAgent, DQNConfig
from repro.drl.network import AttentionQNetwork, MLPQNetwork, QNetwork

#: The one policy file format: each attention layer's Q/K/V projections
#: fused into one ``(D, 3D)`` tensor, plus the compute dtype.  Any other
#: version (the pre-fusion version 1 included) is rejected on load.
FORMAT_VERSION = 2


def _network_factory(cfg: MLCRConfig, encoder: StateEncoder):
    from repro.drl.network import DuelingAttentionQNetwork

    def factory() -> QNetwork:
        rng = np.random.default_rng(cfg.seed + 2)
        if cfg.use_attention:
            cls = (DuelingAttentionQNetwork if cfg.use_dueling
                   else AttentionQNetwork)
            return cls(
                global_dim=encoder.global_dim,
                slot_dim=encoder.slot_dim,
                n_slots=encoder.n_slots,
                rng=rng,
                model_dim=cfg.model_dim,
                n_heads=cfg.n_heads,
                n_blocks=cfg.n_blocks,
                head_hidden=cfg.head_hidden,
                dtype=cfg.np_dtype,
            )
        return MLPQNetwork(
            global_dim=encoder.global_dim,
            slot_dim=encoder.slot_dim,
            n_slots=encoder.n_slots,
            rng=rng,
            hidden=cfg.model_dim * 2,
            dtype=cfg.np_dtype,
        )

    return factory


def save_scheduler(
    scheduler: MLCRScheduler,
    config: MLCRConfig,
    path: Union[str, Path],
) -> Path:
    """Serialize a trained scheduler to ``path`` (``.npz``).

    ``config`` must be the configuration the scheduler was trained with --
    it defines the network architecture that the weights fit.
    """
    path = Path(path)
    meta = {
        "format_version": FORMAT_VERSION,
        "n_slots": scheduler.encoder.n_slots,
        "mask_dominated": scheduler.encoder.mask_dominated,
        "use_mask": scheduler.use_mask,
        "config": {
            "n_slots": config.n_slots,
            "model_dim": config.model_dim,
            "n_heads": config.n_heads,
            "n_blocks": config.n_blocks,
            "head_hidden": config.head_hidden,
            "use_attention": config.use_attention,
            "use_dueling": config.use_dueling,
            "dtype": config.dtype,
            "seed": config.seed,
        },
    }
    arrays = {
        f"param_{key}": value
        for key, value in scheduler.agent.online.state_dict().items()
    }
    np.savez(path, _meta=np.array(json.dumps(meta)), **arrays)
    return path


def load_scheduler(path: Union[str, Path]) -> MLCRScheduler:
    """Rebuild a scheduler saved with :func:`save_scheduler`."""
    path = Path(path)
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["_meta"]))
        version = meta.get("format_version")
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported policy file version {version}")
        state = {
            key[len("param_"):]: data[key]
            for key in data.files
            if key.startswith("param_")
        }
    cfg_meta = meta["config"]
    config = MLCRConfig(
        n_slots=cfg_meta["n_slots"],
        model_dim=cfg_meta["model_dim"],
        n_heads=cfg_meta["n_heads"],
        n_blocks=cfg_meta["n_blocks"],
        head_hidden=cfg_meta["head_hidden"],
        use_attention=cfg_meta["use_attention"],
        use_dueling=cfg_meta.get("use_dueling", False),
        dtype=cfg_meta["dtype"],
        seed=cfg_meta["seed"],
    )
    encoder = StateEncoder(
        n_slots=meta["n_slots"], mask_dominated=meta["mask_dominated"]
    )
    agent = DQNAgent(
        network_factory=_network_factory(config, encoder),
        config=DQNConfig(),
        rng=np.random.default_rng(config.seed + 1),
    )
    agent.online.load_state_dict(state)
    agent.sync_target()
    return MLCRScheduler(agent, encoder, use_mask=meta["use_mask"])
