"""Tests for the command-line interface."""

import json
import os
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.serve.recorder import RECORDING_VERSION

GOLDEN_ROOT = Path(__file__).parent / "golden_traces"
FIXTURE_POLICY = Path(__file__).parent / "fixtures" / "mlcr" / "policy.npz"

#: A complete serving-recording header (what ``DecisionRecorder`` writes).
_SERVE_HEADER = {
    "version": RECORDING_VERSION, "kind": "serve", "scheduler": "lru",
    "pool_capacity_mb": 2000.0, "n_workers": 1, "worker_concurrency": None,
    "per_worker_pools": False, "delta_pricing": False,
    "keepalive_ttl_s": 600.0,
}

_SERVE_DECISION = {
    "inv": 0, "fn": "alu", "t": 0.5, "exec": 0.1, "cold": True, "cid": 1,
    "m": 0, "lat": 2.4, "q": 0.0, "w": 0,
}


def _mistyped_header(key, value):
    """A recording whose header sets ``key`` to ``value``."""
    return [json.dumps(dict(_SERVE_HEADER, **{key: value}))]


def _mistyped_decision(key, value):
    """A recording whose one decision line sets ``key`` to ``value``."""
    return [json.dumps(_SERVE_HEADER),
            json.dumps(dict(_SERVE_DECISION, **{key: value}))]


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

    @pytest.mark.parametrize("key", ["queueing", "grid", "sharding", "all"])
    def test_experiment_takes_every_table_key(self, key):
        assert build_parser().parse_args(["experiment", key]).id == key


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

    def test_experiment_output_path_needs_all(self, tmp_path, capsys):
        assert main(["experiment", "fig2", str(tmp_path / "r.md")]) == 2
        assert "error: an output path" in capsys.readouterr().err
        assert not (tmp_path / "r.md").exists()

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

    def test_train_offline_rejects_corrupt_line(self, tmp_path, capsys):
        rows = (GOLDEN_ROOT / "lo-sim_lru.jsonl").read_text().splitlines()
        rows[2] = rows[2][:10]  # truncated mid-line
        trace = tmp_path / "torn.jsonl"
        trace.write_text("\n".join(rows) + "\n")
        out_file = tmp_path / "q.npz"
        assert main(["train-offline", str(trace),
                     "--output", str(out_file)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {trace}: line 3 is not JSON")
        assert len(captured.err.splitlines()) == 1
        assert not out_file.exists()

    def test_train_offline_rejects_mistyped_field(self, tmp_path, capsys):
        rows = (GOLDEN_ROOT / "lo-sim_lru.jsonl").read_text().splitlines()
        rows[2] = json.dumps(dict(json.loads(rows[2]), cold="no"))
        trace = tmp_path / "mistyped.jsonl"
        trace.write_text("\n".join(rows) + "\n")
        out_file = tmp_path / "q.npz"
        assert main(["train-offline", str(trace),
                     "--output", str(out_file)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {trace}: line 3 key 'cold' is not a bool: 'no'\n"
        )
        assert not out_file.exists()

    @pytest.mark.parametrize("value, shown", [
        (float("nan"), "nan"), (float("inf"), "inf"), (float("-inf"), "-inf"),
    ], ids=["nan", "inf", "minus-inf"])
    @pytest.mark.parametrize("command", ["trace", "serve-replay",
                                         "train-offline"])
    def test_non_finite_number_is_rejected(self, tmp_path, capsys, command,
                                           value, shown):
        """``json.loads`` decodes ``NaN`` / ``Infinity``; every loader
        rejects them with one error line naming the line and key."""
        if command == "serve-replay":
            rows = _mistyped_decision("t", value)
            needle = f"recording line 2 key 't' is not a number: {shown}"
        else:
            rows = (GOLDEN_ROOT / "lo-sim_lru.jsonl").read_text().splitlines()
            rows[2] = json.dumps(dict(json.loads(rows[2]), lat=value))
            needle = (f"line 3: trace line key 'lat' is not a number: {shown}"
                      if command == "trace"
                      else f"line 3 key 'lat' is not a number: {shown}")
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(rows) + "\n")
        assert "NaN" in bad.read_text() or "Infinity" in bad.read_text()
        argv = {
            "trace": ["trace", "replay", str(bad)],
            "serve-replay": ["serve-replay", str(bad)],
            "train-offline": ["train-offline", str(bad), "--output",
                              str(tmp_path / "q.npz")],
        }[command]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert needle in captured.err
        assert len(captured.err.splitlines()) == 1
        assert "Traceback" not in captured.out + captured.err

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
        # The pool was sized through the cache, so a re-run skips the
        # reference simulation.
        pools = Path(os.environ["REPRO_CACHE_DIR"]) / "pools"
        assert len(list(pools.iterdir())) == 1

    @pytest.mark.parametrize("lines, needle", [
        ([json.dumps({"version": 99, "kind": "serve"})],
         "unsupported recording version 99"),
        ([json.dumps({"version": RECORDING_VERSION, "kind": "serve",
                      "worker_capacity_mb": 512.0})],
         "retired option worker_capacity_mb=512.0"),
        (["[1,2]"], "line 1 is not a JSON object"),
        ([json.dumps({k: v for k, v in _SERVE_HEADER.items()
                      if k != "pool_capacity_mb"})],
         "line 1 is missing key 'pool_capacity_mb'"),
        ([json.dumps(_SERVE_HEADER),
          json.dumps({"inv": 0, "t": 0.5, "exec": 0.1, "cold": True,
                      "cid": 1, "m": 0, "lat": 2.4, "q": 0.0, "w": 0})],
         "line 2 is missing key 'fn'"),
        ([json.dumps(_SERVE_HEADER), "{truncated"], "line 2 is not JSON"),
        ([json.dumps(dict(_SERVE_HEADER, scheduler="nope"))],
         "line 1 key 'scheduler' names unknown scheduler 'nope'"),
        ([json.dumps(_SERVE_HEADER), json.dumps({"swap": "nope", "t": 1.0})],
         "line 2 key 'swap' names unknown scheduler 'nope'"),
        (_mistyped_header("pool_capacity_mb", "x"),
         "line 1 key 'pool_capacity_mb' is not a number: 'x'"),
        (_mistyped_header("n_workers", 2.5),
         "line 1 key 'n_workers' is not an int: 2.5"),
        (_mistyped_header("n_workers", True),
         "line 1 key 'n_workers' is not an int: True"),
        (_mistyped_header("worker_concurrency", "2"),
         "line 1 key 'worker_concurrency' is not an int or null: '2'"),
        (_mistyped_header("per_worker_pools", "no"),
         "line 1 key 'per_worker_pools' is not a bool: 'no'"),
        (_mistyped_header("delta_pricing", 0),
         "line 1 key 'delta_pricing' is not a bool: 0"),
        (_mistyped_header("keepalive_ttl_s", "600"),
         "line 1 key 'keepalive_ttl_s' is not a number or null: '600'"),
        (_mistyped_decision("t", "x"), "line 2 key 't' is not a number: 'x'"),
        (_mistyped_decision("exec", "0.1"),
         "line 2 key 'exec' is not a number: '0.1'"),
        (_mistyped_decision("fn", "f0"),
         "line 2 key 'fn' names unknown function 'f0'"),
        (_mistyped_decision("fn", 3), "line 2 key 'fn' is not a string: 3"),
        (_mistyped_decision("inv", "0"),
         "line 2 key 'inv' is not an int: '0'"),
        (_mistyped_decision("cid", 1.0),
         "line 2 key 'cid' is not an int: 1.0"),
        (_mistyped_decision("w", None), "line 2 key 'w' is not an int: None"),
        (_mistyped_decision("m", 4),
         "line 2 key 'm' is not an int match level in 0..3: 4"),
        (_mistyped_decision("cold", "yes"),
         "line 2 key 'cold' is not a bool: 'yes'"),
        (_mistyped_decision("lat", True),
         "line 2 key 'lat' is not a number: True"),
        (_mistyped_decision("q", [0.0]),
         "line 2 key 'q' is not a number: [0.0]"),
    ], ids=["unknown-version", "retired-worker-capacity", "array-header",
            "header-without-pool", "decision-without-fn", "non-json-line",
            "unknown-scheduler", "unknown-swap-scheduler", "str-capacity",
            "float-n-workers", "bool-n-workers", "str-concurrency",
            "str-per-worker-pools", "int-delta-pricing", "str-ttl",
            "str-t", "str-exec", "unknown-fn", "int-fn", "str-inv",
            "float-cid", "null-w", "m-out-of-range", "str-cold", "bool-lat",
            "list-q"])
    def test_serve_replay_rejects_recording_cleanly(self, tmp_path, capsys,
                                                    lines, needle):
        recording = tmp_path / "session.jsonl"
        recording.write_text("\n".join(lines) + "\n")
        assert main(["serve-replay", str(recording)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert needle in captured.err
        assert len(captured.err.splitlines()) == 1
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("key", ["scheduler", "workload", "pool"])
    def test_trace_replay_rejects_unknown_header_name(self, tmp_path, capsys,
                                                      key):
        rows = (GOLDEN_ROOT / "lo-sim_lru.jsonl").read_text().splitlines()
        rows[0] = json.dumps(dict(json.loads(rows[0]), **{key: "nope"}))
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(rows) + "\n")
        assert main(["trace", "replay", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"error: trace header has unknown {key} 'nope'"
        )
        assert len(captured.err.splitlines()) == 1
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("key, value, label", [
        ("version", True, "an int"),
        ("seed", "x", "an int"),
        ("seed", 1.0, "an int"),
        ("n_events", False, "an int"),
        ("workload", 3, "a string"),
        ("scheduler", None, "a string"),
        ("pool", ["Tight"], "a string"),
        ("capacity_mb", "512", "a number"),
        ("capacity_mb", True, "a number"),
    ], ids=["bool-version", "str-seed", "float-seed", "bool-n-events",
            "int-workload", "null-scheduler", "list-pool", "str-capacity",
            "bool-capacity"])
    def test_trace_replay_rejects_mistyped_header_field(self, tmp_path,
                                                        capsys, key, value,
                                                        label):
        rows = (GOLDEN_ROOT / "lo-sim_lru.jsonl").read_text().splitlines()
        rows[0] = json.dumps(dict(json.loads(rows[0]), **{key: value}))
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(rows) + "\n")
        assert main(["trace", "replay", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {bad}: line 1: trace header key {key!r} is not "
            f"{label}: {value!r}\n"
        )
        assert "Traceback" not in captured.out

    @pytest.mark.parametrize("action", ["replay", "diff"])
    @pytest.mark.parametrize("mangle, needle", [
        (lambda rows: ["not json"] + rows[1:],
         "line 1: trace header is not JSON"),
        (lambda rows: [json.dumps({"version": 99, "workload": "LO-Sim"})]
         + rows[1:], "line 1: unsupported trace format version 99"),
        (lambda rows: rows[:1] + [json.dumps(
            {k: v for k, v in json.loads(rows[1]).items() if k != "fn"})]
         + rows[2:], "line 2: trace line is missing key 'fn'"),
        (lambda rows: [json.dumps(dict(json.loads(rows[0]), extra=1))]
         + rows[1:], "line 1: trace header has unexpected key 'extra'"),
        (lambda rows: rows[:1] + [json.dumps(dict(json.loads(rows[1]),
                                                  w="0"))] + rows[2:],
         "line 2: trace line key 'w' is not an int: '0'"),
    ], ids=["non-json-header", "unknown-version", "line-without-fn",
            "header-extra-key", "line-str-worker"])
    def test_trace_rejects_malformed_file(self, tmp_path, capsys, action,
                                          mangle, needle):
        golden = GOLDEN_ROOT / "lo-sim_lru.jsonl"
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(mangle(golden.read_text().splitlines()))
                       + "\n")
        argv = (["trace", "replay", str(bad)] if action == "replay"
                else ["trace", "diff", str(golden), str(bad)])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {bad}: {needle}")
        assert len(captured.err.splitlines()) == 1


def _policy_arrays():
    """The fixture policy's arrays and its decoded ``_meta`` record."""
    with np.load(FIXTURE_POLICY, allow_pickle=False) as data:
        arrays = {key: data[key] for key in data.files}
    return arrays, json.loads(str(arrays.pop("_meta")))


def _write_policy(path, drop_meta=False, drop_config=None, drop_param=None,
                  nan_param=None):
    """Rewrite the fixture policy to ``path`` with one defect."""
    arrays, meta = _policy_arrays()
    if drop_config is not None:
        del meta["config"][drop_config]
    if drop_param is not None:
        del arrays[drop_param]
    if nan_param is not None:
        arrays[nan_param] = arrays[nan_param].copy()
        arrays[nan_param].flat[0] = np.nan
    if not drop_meta:
        arrays["_meta"] = np.array(json.dumps(meta))
    np.savez(path, **arrays)


class TestPolicyFileRejections:
    """``repro distill --policy`` and ``repro serve --policy`` end a bad
    policy file with one ``error:`` line naming it, and exit 2."""

    @pytest.mark.parametrize("command", ["distill", "serve"])
    @pytest.mark.parametrize("make, needle", [
        (None, "policy file not found"),
        (lambda path: path.write_bytes(FIXTURE_POLICY.read_bytes()[:300]),
         "not a readable policy file"),
        (lambda path: path.write_bytes(b"not a zip archive\n"),
         "not a readable policy file"),
        (lambda path: path.write_bytes(pickle.dumps({"param_0": [1.0]})),
         "not a readable policy file"),
        (lambda path: _write_policy(path, drop_meta=True),
         "_meta is not a file in the archive"),
        (lambda path: _write_policy(path, drop_config="model_dim"),
         "policy config lacks 'model_dim'"),
        (lambda path: _write_policy(path, drop_param="param_3"),
         "policy does not fit its recorded architecture"),
        (lambda path: _write_policy(path, nan_param="param_0"),
         "parameter 0 is not a finite float tensor"),
    ], ids=["missing", "truncated", "non-zip", "pickled", "no-meta",
            "no-config-key", "no-parameter", "non-finite"])
    def test_policy_commands_reject_bad_policy_file(self, tmp_path, capsys,
                                                    command, make, needle):
        bad = tmp_path / "policy.npz"
        if make is not None:
            make(bad)
        assert main([command, "--policy", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {bad}: ")
        assert needle in captured.err
        assert len(captured.err.splitlines()) == 1
        assert "Traceback" not in captured.out + captured.err
