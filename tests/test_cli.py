"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.serve.recorder import RECORDING_VERSION


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.workload == "Overall"
        assert args.scheduler == "all"
        assert args.pool == "tight"

    def test_experiment_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])


class TestCommands:
    def test_workloads_lists_all(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("LO-Sim", "HI-Sim", "Peak", "Overall"):
            assert name in out

    def test_simulate_single_scheduler(self, capsys):
        assert main([
            "simulate", "--workload", "HI-Sim", "--scheduler", "greedy",
            "--pool", "tight",
        ]) == 0
        out = capsys.readouterr().out
        assert "Greedy-Match" in out
        assert "cold" in out

    def test_simulate_all(self, capsys):
        assert main(["simulate", "--workload", "HI-Sim"]) == 0
        out = capsys.readouterr().out
        for name in ("LRU", "FaasCache", "KeepAlive", "Greedy-Match"):
            assert name in out

    def test_experiment_fig2(self, capsys):
        assert main(["experiment", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "Policy 1" in out

    def test_experiment_fig3(self, capsys):
        assert main(["experiment", "fig3"]) == 0
        assert "ubuntu" in capsys.readouterr().out

    def test_simulate_proactive_scheduler(self, capsys):
        assert main([
            "simulate", "--workload", "LO-Sim", "--scheduler", "mpc",
            "--pool", "tight",
        ]) == 0
        out = capsys.readouterr().out
        assert "MPC-Prewarm" in out

    def test_train_offline_writes_policy(self, tmp_path, capsys):
        from repro.cluster.simulator import ClusterSimulator, SimulationConfig
        from repro.drl.offline import OfflineQPolicy, trace_lines_from_result
        from repro.schedulers.greedy import GreedyMatchScheduler
        from repro.workloads.fstartbench import build_workload

        workload = build_workload("LO-Sim", seed=0)
        sim = ClusterSimulator(SimulationConfig(pool_capacity_mb=2000.0))
        result = sim.run(workload, GreedyMatchScheduler())
        trace = tmp_path / "greedy.jsonl"
        trace.write_text("\n".join(trace_lines_from_result(result)) + "\n")

        out_file = tmp_path / "q.npz"
        assert main([
            "train-offline", str(trace), "--output", str(out_file),
            "--evaluate", "LO-Sim",
        ]) == 0
        out = capsys.readouterr().out
        assert out_file.exists()
        assert "fitted" in out and "evaluation on LO-Sim" in out
        policy = OfflineQPolicy.load(out_file)
        assert policy.n_transitions == len(workload)

    def test_train_offline_empty_trace_fails(self, tmp_path, capsys):
        trace = tmp_path / "empty.jsonl"
        trace.write_text('{"version": 1}\n')
        assert main(["train-offline", str(trace),
                     "--output", str(tmp_path / "q.npz")]) == 1

    def test_train_writes_policy(self, tmp_path, capsys, monkeypatch):
        # Keep it minimal: 1-episode training on the smallest workload.
        out_file = tmp_path / "p.npz"
        assert main([
            "train", "--workload", "HI-Sim", "--episodes", "1",
            "--output", str(out_file),
        ]) == 0
        assert out_file.exists()
        from repro.core.persistence import load_scheduler

        scheduler = load_scheduler(out_file)
        assert scheduler.name == "MLCR"

    @pytest.mark.parametrize("header", [
        {"version": 99, "kind": "serve"},
        {"version": RECORDING_VERSION, "kind": "serve",
         "worker_capacity_mb": 512.0},
    ], ids=["unknown-version", "retired-worker-capacity"])
    def test_serve_replay_rejects_recording_cleanly(self, tmp_path, capsys,
                                                    header):
        recording = tmp_path / "session.jsonl"
        recording.write_text(json.dumps(header) + "\n")
        assert main(["serve-replay", str(recording)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1
        assert "Traceback" not in captured.out + captured.err
