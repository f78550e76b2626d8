"""Save/load trained MLCR schedulers.

The paper trains offline (hours on a V100) and serves the trained model at
runtime; that workflow needs persistence.  A saved policy bundles the
Q-network weights with the architecture and encoder configuration needed to
rebuild an identical scheduler, in a single ``.npz`` file (pickle-free: only
arrays and a JSON metadata string).  Both functions also take a binary file
object, so a policy can travel as bytes (the experiment grid ships policy
cells to its workers that way) without a temporary file.
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path
from typing import BinaryIO, Union

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

#: The architecture keys a file's ``config`` record must carry.
CONFIG_KEYS = ("n_slots", "model_dim", "n_heads", "n_blocks", "head_hidden",
               "use_attention", "dtype", "seed")

#: A policy file: a path, or a binary file object holding its bytes.
PolicySource = Union[str, Path, BinaryIO]


def save_scheduler(
    scheduler: MLCRScheduler,
    config: MLCRConfig,
    path: PolicySource,
) -> PolicySource:
    """Serialize a trained scheduler to ``path`` (``.npz``) and return it.

    ``config`` must be the configuration the scheduler was trained with --
    it defines the network architecture that the weights fit.  ``path``
    may be a binary file object; the bytes written are a pure function of
    the scheduler and ``config`` (the archive carries no timestamps).
    """
    if not hasattr(path, "write"):
        path = Path(path)
    meta = {
        "format_version": FORMAT_VERSION,
        "n_slots": scheduler.encoder.n_slots,
        "use_mask": scheduler.use_mask,
        "config": {key: getattr(config, key) for key in CONFIG_KEYS},
    }
    arrays = {
        f"param_{key}": value
        for key, value in scheduler.agent.online.state_dict().items()
    }
    np.savez(path, _meta=np.array(json.dumps(meta)), **arrays)
    return path


def _source_name(source: PolicySource) -> str:
    """How error messages name a policy source."""
    if hasattr(source, "read"):
        return str(getattr(source, "name", "<policy bytes>"))
    return str(source)


def _read_archive(source: PolicySource):
    """The ``(meta, state)`` pair of a policy archive.

    ``OSError``, ``EOFError``, ``zipfile.BadZipFile``, ``KeyError`` and
    ``ValueError`` escape for a missing, truncated, non-zip, pickled or
    incomplete file; :func:`load_scheduler` names the source in them.
    """
    if not hasattr(source, "read"):
        source = Path(source)
    data = np.load(source, allow_pickle=False)
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ValueError("not a policy archive (a bare .npy array)")
    with data:
        meta = json.loads(str(data["_meta"]))
        state = {
            key[len("param_"):]: data[key]
            for key in data.files
            if key.startswith("param_")
        }
    if not isinstance(meta, dict) or not isinstance(meta.get("config"), dict):
        raise ValueError("_meta is not a policy metadata record")
    return meta, state


def load_scheduler(source: PolicySource) -> MLCRScheduler:
    """Rebuild a scheduler saved with :func:`save_scheduler`.

    ``source`` is a path or a binary file object.  A missing or
    unreadable file, one that is not a policy archive (not a zip,
    truncated, pickled), one without its ``_meta`` record, a config key
    or a parameter tensor, and one holding a non-finite weight raise
    ``ValueError`` naming the source.
    """
    name = _source_name(source)
    try:
        meta, state = _read_archive(source)
    except FileNotFoundError:
        raise ValueError(f"{name}: policy file not found") from None
    except (OSError, EOFError, zipfile.BadZipFile, KeyError,
            ValueError) as exc:
        raise ValueError(f"{name}: not a readable policy file: {exc}") from None
    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"{name}: unsupported policy file version {version}")
    cfg_meta = meta["config"]
    for option, supported in RETIRED_OPTIONS.items():
        value = meta.get(option, cfg_meta.get(option, supported))
        if value != supported:
            raise ValueError(
                f"{name}: policy file sets retired option {option}={value!r}; "
                f"only {option}={supported!r} is supported"
            )
    for key in ("n_slots", "use_mask"):
        if key not in meta:
            raise ValueError(f"{name}: policy metadata lacks {key!r}")
    for key in CONFIG_KEYS:
        if key not in cfg_meta:
            raise ValueError(f"{name}: policy config lacks {key!r}")
    for key, value in state.items():
        if value.dtype.kind != "f" or not np.isfinite(value).all():
            raise ValueError(
                f"{name}: parameter {key} is not a finite float tensor"
            )
    try:
        config = MLCRConfig(**{key: cfg_meta[key] for key in CONFIG_KEYS})
        encoder = StateEncoder(n_slots=meta["n_slots"])
        agent = DQNAgent(
            network_factory=q_network_factory(config, encoder),
            config=DQNConfig(),
            rng=np.random.default_rng(config.seed + 1),
        )
        agent.online.load_state_dict(state)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            f"{name}: policy does not fit its recorded architecture: {exc}"
        ) from None
    agent.sync_target()
    return MLCRScheduler(agent, encoder, use_mask=meta["use_mask"])
