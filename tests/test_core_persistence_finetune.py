"""Tests for policy persistence."""

import json

import numpy as np
import pytest

from repro.cluster.simulator import SimulationConfig
from repro.core.config import MLCRConfig
from repro.core.mlcr import train_mlcr_scheduler
from repro.core.persistence import load_scheduler, save_scheduler
from repro.drl.dqn import DQNConfig
from repro.experiments.common import evaluate_scheduler

from test_core_env_trainer import tiny_config, tiny_workload


@pytest.fixture(scope="module")
def trained():
    cfg = tiny_config()
    scheduler, _ = train_mlcr_scheduler(
        workload_factory=lambda ep: tiny_workload(seed=ep % 2),
        sim_config=SimulationConfig(pool_capacity_mb=10_000.0),
        config=cfg,
    )
    return scheduler, cfg


class TestPersistence:
    def test_roundtrip_identical_decisions(self, trained, tmp_path):
        scheduler, cfg = trained
        path = save_scheduler(scheduler, cfg, tmp_path / "policy.npz")
        loaded = load_scheduler(path)

        wl = tiny_workload(seed=9)
        a = evaluate_scheduler(scheduler, wl, 10_000.0, "x")
        b = evaluate_scheduler(loaded, wl, 10_000.0, "x")
        assert a.total_startup_s == pytest.approx(b.total_startup_s)
        assert a.cold_starts == b.cold_starts

    def test_weights_identical(self, trained, tmp_path):
        scheduler, cfg = trained
        path = save_scheduler(scheduler, cfg, tmp_path / "p.npz")
        loaded = load_scheduler(path)
        for key, value in scheduler.agent.online.state_dict().items():
            np.testing.assert_array_equal(
                value, loaded.agent.online.state_dict()[key]
            )

    def test_path_without_suffix_returns_written_file(self, trained,
                                                      tmp_path, monkeypatch):
        """``np.savez`` appends ``.npz``; the returned path is that file,
        so ``repro train`` prints a path ``load_scheduler`` opens."""
        scheduler, cfg = trained
        monkeypatch.chdir(tmp_path)
        path = save_scheduler(scheduler, cfg, "pol")
        assert str(path) == "pol.npz"
        assert path.is_file()
        assert not (tmp_path / "pol").exists()
        loaded = load_scheduler(path)
        for key, value in scheduler.agent.online.state_dict().items():
            np.testing.assert_array_equal(
                value, loaded.agent.online.state_dict()[key]
            )

    def test_mlp_roundtrip(self, tmp_path):
        cfg = tiny_config(use_attention=False)
        scheduler, _ = train_mlcr_scheduler(
            workload_factory=lambda ep: tiny_workload(seed=0),
            sim_config=SimulationConfig(pool_capacity_mb=10_000.0),
            config=cfg,
        )
        path = save_scheduler(scheduler, cfg, tmp_path / "mlp.npz")
        loaded = load_scheduler(path)
        from repro.drl.network import MLPQNetwork

        assert isinstance(loaded.agent.online, MLPQNetwork)

    def test_bad_version_rejected(self, trained, tmp_path):
        """Only format 2 loads: the pre-fusion version 1 and unknown
        versions fail at the trust boundary."""
        scheduler, cfg = trained
        for version in (1, 99):
            path = save_scheduler(scheduler, cfg, tmp_path / f"v{version}.npz")
            data = dict(np.load(path, allow_pickle=False))
            meta = json.loads(str(data["_meta"]))
            meta["format_version"] = version
            data["_meta"] = np.array(json.dumps(meta))
            np.savez(path, **data)
            with pytest.raises(ValueError, match="unsupported policy file"):
                load_scheduler(path)

    @staticmethod
    def write_recorded_options(scheduler, cfg, path, mask_dominated,
                               use_dueling):
        """A format-2 file whose hand-written meta records the retired
        ``mask_dominated`` (top level) and ``use_dueling`` (config)."""
        meta = {
            "format_version": 2,
            "n_slots": cfg.n_slots,
            "mask_dominated": mask_dominated,
            "use_mask": True,
            "config": {
                "n_slots": cfg.n_slots,
                "model_dim": cfg.model_dim,
                "n_heads": cfg.n_heads,
                "n_blocks": cfg.n_blocks,
                "head_hidden": cfg.head_hidden,
                "use_attention": True,
                "use_dueling": use_dueling,
                "dtype": cfg.dtype,
                "seed": cfg.seed,
            },
        }
        arrays = {
            f"param_{key}": value
            for key, value in scheduler.agent.online.state_dict().items()
        }
        np.savez(path, _meta=np.array(json.dumps(meta)), **arrays)
        return path

    def test_recorded_supported_values_load(self, trained, tmp_path):
        scheduler, cfg = trained
        path = self.write_recorded_options(
            scheduler, cfg, tmp_path / "old.npz",
            mask_dominated=True, use_dueling=False,
        )
        loaded = load_scheduler(path)
        for key, value in scheduler.agent.online.state_dict().items():
            np.testing.assert_array_equal(
                value, loaded.agent.online.state_dict()[key]
            )

    @pytest.mark.parametrize("option, recorded", [
        ("mask_dominated", dict(mask_dominated=False, use_dueling=False)),
        ("use_dueling", dict(mask_dominated=True, use_dueling=True)),
    ])
    def test_retired_option_rejected(self, trained, tmp_path, option,
                                     recorded):
        scheduler, cfg = trained
        path = self.write_recorded_options(
            scheduler, cfg, tmp_path / f"{option}.npz", **recorded
        )
        with pytest.raises(ValueError, match=f"retired option {option}"):
            load_scheduler(path)
