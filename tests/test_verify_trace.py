"""Golden-trace record / replay / diff tests.

The checked-in traces under ``tests/golden_traces/`` pin the simulator's
decision-level behaviour for the golden matrix.  Replaying each one must
be bit-identical; a perturbation must be reported as the exact first
diverging event and field.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.cluster.simulator import ClusterSimulator, SimulationConfig
from repro.core.persistence import load_scheduler
from repro.jsonl import decision_line
from repro.verify.trace import (
    GOLDEN_MATRIX,
    TRACE_FORMAT_VERSION,
    Trace,
    TraceHeader,
    TraceSpec,
    diff_traces,
    golden_trace_name,
    read_trace,
    record_trace,
    replay_trace,
    write_trace,
)
from repro.workloads.fstartbench import build_workload

GOLDEN_ROOT = Path(__file__).parent / "golden_traces"
MLCR_FIXTURE_ROOT = Path(__file__).parent / "fixtures" / "mlcr"


def test_golden_matrix_files_exist():
    for workload, scheduler in GOLDEN_MATRIX:
        assert (GOLDEN_ROOT / golden_trace_name(workload, scheduler)).exists()


@pytest.mark.parametrize(
    "workload,scheduler", GOLDEN_MATRIX,
    ids=[f"{w}-{s}" for w, s in GOLDEN_MATRIX],
)
def test_golden_replay_is_bit_identical(workload, scheduler):
    path = GOLDEN_ROOT / golden_trace_name(workload, scheduler)
    golden = read_trace(path)
    assert golden.header.version == TRACE_FORMAT_VERSION
    replayed = replay_trace(golden)
    assert diff_traces(golden, replayed) is None
    # Bitwise, not just structurally: the re-recording serializes to the
    # checked-in file's text, so a serializer change cannot pass unseen.
    # (Compared as a bool: pytest's diff of two long traces that differ
    # on every line takes minutes.)
    same_text = replayed.to_jsonl() == path.read_text()
    assert same_text, f"re-recording differs from the text of {path.name}"


@pytest.mark.parametrize("workload", ["LO-Sim", "Peak"])
def test_mlcr_fixture_replay_is_bit_identical(workload):
    """The checked-in MLCR policy's decisions on its recorded cells."""
    path = MLCR_FIXTURE_ROOT / f"{workload.lower()}.jsonl"
    golden = read_trace(path)
    header = golden.header
    policy = load_scheduler(MLCR_FIXTURE_ROOT / "policy.npz")
    policy.reset()
    sim = ClusterSimulator(
        SimulationConfig(pool_capacity_mb=header.capacity_mb),
        policy.make_eviction_policy(),
    )
    result = sim.run(build_workload(header.workload, seed=header.seed),
                     policy)
    lines = tuple({"i": i, **decision_line(record)}
                  for i, record in enumerate(result.telemetry.records))
    replayed = Trace(replace(header, n_events=len(lines)), lines)
    assert diff_traces(golden, replayed) is None
    same_text = replayed.to_jsonl() == path.read_text()
    assert same_text, f"re-recording differs from the text of {path.name}"


def test_record_with_verify_changes_nothing():
    spec = TraceSpec("LO-Sim", "lru")
    plain = record_trace(spec)
    verified = record_trace(replace(spec, verify=True))
    assert diff_traces(plain, verified) is None


def test_roundtrip_through_file(tmp_path):
    trace = read_trace(GOLDEN_ROOT / golden_trace_name(*GOLDEN_MATRIX[0]))
    path = write_trace(trace, tmp_path / "t.jsonl")
    assert read_trace(path) == trace


def test_diff_reports_exact_first_divergence():
    golden = read_trace(GOLDEN_ROOT / golden_trace_name(*GOLDEN_MATRIX[0]))
    lines = list(golden.lines)
    lines[17] = {**lines[17], "lat": lines[17]["lat"] + 0.5}
    perturbed = Trace(header=golden.header, lines=tuple(lines))
    divergence = diff_traces(golden, perturbed)
    assert divergence is not None
    assert divergence.index == 17
    assert divergence.field == "lat"
    assert divergence.actual == pytest.approx(divergence.expected + 0.5)
    assert "event 17" in str(divergence)


def test_diff_reports_header_divergence():
    golden = read_trace(GOLDEN_ROOT / golden_trace_name(*GOLDEN_MATRIX[0]))
    other = Trace(
        header=replace(golden.header, seed=golden.header.seed + 1),
        lines=golden.lines,
    )
    divergence = diff_traces(golden, other)
    assert divergence.index == -1
    assert divergence.field == "seed"
    assert "header" in str(divergence)


def test_version_mismatch_rejected():
    header = TraceHeader(
        version=TRACE_FORMAT_VERSION + 1, workload="LO-Sim",
        scheduler="lru", seed=0, pool="Tight", capacity_mb=1.0, n_events=0,
    )
    with pytest.raises(ValueError, match="unsupported trace format"):
        TraceHeader.from_json(header.to_json())


def test_truncated_file_rejected(tmp_path):
    golden = read_trace(GOLDEN_ROOT / golden_trace_name(*GOLDEN_MATRIX[0]))
    text = golden.to_jsonl()
    truncated = "\n".join(text.splitlines()[:-1]) + "\n"
    path = tmp_path / "truncated.jsonl"
    path.write_text(truncated)
    with pytest.raises(ValueError, match="promises"):
        read_trace(path)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_record_replay_roundtrip(tmp_path, capsys):
    out = tmp_path / "cell.jsonl"
    assert cli_main(["trace", "record", "--workload", "LO-Sim",
                     "--scheduler", "lru", "--output", str(out)]) == 0
    assert cli_main(["trace", "replay", str(out)]) == 0
    assert "bit-identical" in capsys.readouterr().out


def test_cli_diff_detects_perturbation(tmp_path, capsys):
    golden_path = GOLDEN_ROOT / golden_trace_name(*GOLDEN_MATRIX[0])
    golden = read_trace(golden_path)
    lines = list(golden.lines)
    lines[3] = {**lines[3], "w": lines[3]["w"] + 1}
    perturbed_path = write_trace(
        Trace(header=golden.header, lines=tuple(lines)),
        tmp_path / "perturbed.jsonl",
    )
    assert cli_main(["trace", "diff", str(golden_path),
                     str(perturbed_path)]) == 1
    assert "event 3" in capsys.readouterr().out
    assert cli_main(["trace", "diff", str(golden_path),
                     str(golden_path)]) == 0
