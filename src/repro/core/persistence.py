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
from repro.core.trainer import q_network_factory
from repro.drl.dqn import DQNAgent, DQNConfig

#: The one policy file format: each attention layer's Q/K/V projections
#: fused into one ``(D, 3D)`` tensor, plus the compute dtype.  Any other
#: version (the pre-fusion version 1 included) is rejected on load.
FORMAT_VERSION = 2


#: Retired options that older files may still record (at the top level or
#: in ``config``), each with the one value the code still implements.  A
#: file recording another value would serve a behaviour it was not
#: trained for, so it is rejected.
RETIRED_OPTIONS = {"mask_dominated": True, "use_dueling": False}


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
        "use_mask": scheduler.use_mask,
        "config": {
            "n_slots": config.n_slots,
            "model_dim": config.model_dim,
            "n_heads": config.n_heads,
            "n_blocks": config.n_blocks,
            "head_hidden": config.head_hidden,
            "use_attention": config.use_attention,
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
    for option, supported in RETIRED_OPTIONS.items():
        value = meta.get(option, cfg_meta.get(option, supported))
        if value != supported:
            raise ValueError(
                f"policy file sets retired option {option}={value!r}; "
                f"only {option}={supported!r} is supported"
            )
    config = MLCRConfig(
        n_slots=cfg_meta["n_slots"],
        model_dim=cfg_meta["model_dim"],
        n_heads=cfg_meta["n_heads"],
        n_blocks=cfg_meta["n_blocks"],
        head_hidden=cfg_meta["head_hidden"],
        use_attention=cfg_meta["use_attention"],
        dtype=cfg_meta["dtype"],
        seed=cfg_meta["seed"],
    )
    encoder = StateEncoder(n_slots=meta["n_slots"])
    agent = DQNAgent(
        network_factory=q_network_factory(config, encoder),
        config=DQNConfig(),
        rng=np.random.default_rng(config.seed + 1),
    )
    agent.online.load_state_dict(state)
    agent.sync_target()
    return MLCRScheduler(agent, encoder, use_mask=meta["use_mask"])
