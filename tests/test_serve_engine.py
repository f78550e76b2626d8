"""Headless ServeEngine tests: stamping, warm reuse, hot-swap, recording
and deterministic replay (no sockets involved)."""

import json

import pytest

from repro.cluster.eventloop import VirtualClock
from repro.cluster.simulator import SimulationConfig
from repro.cluster.telemetry import InvocationRecord
from repro.containers.costmodel import StartupBreakdown
from repro.containers.matching import MatchLevel
from repro.serve import (
    DecisionRecorder,
    ServeClosed,
    ServeEngine,
    ServeOutcome,
    replay_recording,
)


def _config(**overrides):
    defaults = dict(pool_capacity_mb=8192.0, n_workers=2)
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def _engine(**kwargs):
    clock = VirtualClock()
    engine = ServeEngine(_config(), wall=clock, **kwargs)
    return engine, clock


class TestSubmit:
    def test_outcome_carries_decision(self):
        engine, clock = _engine()
        clock.advance_to(1.0)
        outcome = engine.submit("hello-python")
        assert outcome.record.cold_start
        assert outcome.record.arrival_time == 1.0
        assert outcome.scheduler == "lru"
        assert outcome.exec_time_s > 0
        payload = outcome.to_json()
        assert payload["function"] == "hello-python"
        assert payload["cold_start"] is True
        assert json.dumps(payload)  # JSON-serializable throughout

    def test_warm_reuse_after_completion(self):
        engine, clock = _engine()
        clock.advance_to(1.0)
        first = engine.submit("hello-python", exec_time_s=0.1)
        done = 1.0 + first.service_time_s
        clock.advance_to(done + 1.0)
        engine.pump()  # container finishes and pools
        assert engine.pooled_containers == 1
        second = engine.submit("hello-python", exec_time_s=0.1)
        assert not second.record.cold_start
        assert second.record.container_id == first.record.container_id

    def test_function_by_id_and_unknown(self):
        engine, clock = _engine()
        assert engine.submit(4).record.function_name == "hello-python"
        with pytest.raises(KeyError):
            engine.submit("no-such-function")

    def test_stamps_are_monotone(self):
        engine, _ = _engine()
        a = engine.submit("hello-python", now=5.0)
        # A wall reading that went backwards is clamped, not rejected.
        b = engine.submit("hello-python", now=3.0)
        assert a.record.arrival_time == 5.0
        assert b.record.arrival_time == 5.0

    def test_inflight_tracks_outstanding_requests(self):
        engine, clock = _engine()
        assert engine.sim_inflight == 0
        clock.advance_to(1.0)
        engine.submit("hello-python", exec_time_s=0.2)
        engine.submit("hello-node", exec_time_s=0.2)
        assert engine.sim_inflight == 2
        clock.advance_to(60.0)
        engine.pump()
        assert engine.sim_inflight == 0


class TestRecordTypes:
    """The decision records: immutable, compared field by field, with the
    same fields, defaults, properties and JSON payload wherever built."""

    @staticmethod
    def _record(latency=3.0, queue=1.0):
        return InvocationRecord(
            invocation_id=7, function_name="hello-python",
            arrival_time=2.0, container_id=5, cold_start=True,
            match=MatchLevel.NO_MATCH, startup_latency_s=latency,
            breakdown=StartupBreakdown(create_s=latency - queue),
            execution_time_s=0.5, queue_delay_s=queue, worker_id=1,
        )

    def test_fields_in_order_with_defaults(self):
        assert InvocationRecord._fields == (
            "invocation_id", "function_name", "arrival_time",
            "container_id", "cold_start", "match", "startup_latency_s",
            "breakdown", "execution_time_s", "queue_delay_s", "worker_id",
        )
        assert ServeOutcome._fields == ("record", "scheduler")
        r = InvocationRecord(1, "f", 0.0, 1, False, MatchLevel.L3, 0.2,
                             StartupBreakdown(), 0.1)
        assert (r.queue_delay_s, r.worker_id) == (0.0, 0)

    def test_reject_attribute_assignment(self):
        r = self._record()
        outcome = ServeOutcome(record=r, scheduler="lru")
        for obj, name in ((r, "startup_latency_s"), (r, "extra"),
                          (outcome, "scheduler"), (outcome, "extra")):
            with pytest.raises(AttributeError):
                setattr(obj, name, 0)

    def test_equal_field_by_field(self):
        assert self._record() == self._record()
        assert self._record() != self._record(latency=4.0)
        assert hash(self._record()) == hash(self._record())
        same = ServeOutcome(self._record(), "lru")
        assert same == ServeOutcome(record=self._record(), scheduler="lru")
        assert same != ServeOutcome(self._record(), "greedy")

    def test_properties_and_json(self):
        r = self._record()
        assert r.finish_time == 2.0 + 3.0 + 0.5
        assert r.service_latency_s == 2.0
        outcome = ServeOutcome(r, "greedy")
        assert outcome.exec_time_s == 0.5
        assert outcome.service_time_s == 3.5
        assert outcome.to_json() == {
            "invocation_id": 7, "function": "hello-python", "arrival_t": 2.0,
            "cold_start": True, "match": "NO_MATCH", "container_id": 5,
            "worker_id": 1, "startup_latency_s": 3.0, "queue_delay_s": 1.0,
            "exec_time_s": 0.5, "service_time_s": 3.5, "scheduler": "greedy",
        }

    def test_engine_builds_what_the_keyword_constructors_build(self):
        clock = VirtualClock()
        engine = ServeEngine(_config(n_workers=1, worker_concurrency=1),
                             "greedy", wall=clock)
        engine.submit("hello-python")
        outcome = engine.submit("hello-python")
        record = outcome.record
        assert type(outcome) is ServeOutcome
        assert type(record) is InvocationRecord
        assert record.queue_delay_s > 0.0
        assert outcome == ServeOutcome(
            record=InvocationRecord(**record._asdict()), scheduler="greedy"
        )


class TestSwapAndDrain:
    def test_swap_scheduler(self):
        engine, _ = _engine()
        previous = engine.swap_scheduler("greedy")
        assert previous == "lru"
        assert engine.scheduler_key == "greedy"
        assert engine.swaps == 1
        with pytest.raises(KeyError):
            engine.swap_scheduler("nope")

    def test_drain_closes_engine(self):
        engine, clock = _engine()
        clock.advance_to(1.0)
        engine.submit("hello-python")
        result = engine.drain()
        assert result.summary()["invocations"] == 1.0
        assert engine.closed
        assert engine.pump() == 0
        with pytest.raises(ServeClosed):
            engine.submit("hello-python")
        with pytest.raises(ServeClosed):
            engine.drain()

    def test_health_without_verification(self):
        engine, _ = _engine()
        report = engine.health()
        assert report["healthy"] is True
        assert report["verified"] is False

    def test_health_with_verification(self):
        clock = VirtualClock()
        engine = ServeEngine(_config(verify=True), wall=clock)
        clock.advance_to(1.0)
        engine.submit("hello-python")
        report = engine.health()
        assert report["healthy"] is True
        assert report["verified"] is True
        assert report["violation"] is None
        assert report["checks_run"] > 0
        # Corrupt the lifecycle's books: the monitors must catch it.
        engine.sim.lifecycle.created_count += 1
        assert engine.health()["healthy"] is False
        assert "conservation" in engine.health()["violation"]


class TestRecordingReplay:
    def _record_session(self):
        recorder = DecisionRecorder()
        clock = VirtualClock()
        engine = ServeEngine(
            _config(worker_concurrency=2), scheduler="keepalive",
            wall=clock, keepalive_ttl_s=5.0, recorder=recorder,
        )
        t = 0.0
        for i in range(12):
            t += 0.4 if i % 5 else 7.0
            clock.advance_to(t)
            if i % 3 == 0:
                engine.pump()
            engine.submit(("hello-python", "hello-java")[i % 2])
            if i == 6:
                engine.swap_scheduler("greedy")
        engine.drain()
        return recorder

    def test_replay_is_byte_identical(self):
        recorder = self._record_session()
        report = replay_recording(recorder.lines(), verify=True)
        assert report.ok, str(report.divergence)
        assert report.n_decisions == 12
        assert report.n_swaps == 1

    def test_replay_detects_tampering(self):
        recorder = self._record_session()
        lines = recorder.lines()
        # Flip the recorded worker of the last decision.
        entry = json.loads(lines[-1])
        entry["w"] = (entry["w"] + 1) % 2
        lines[-1] = json.dumps(entry)
        report = replay_recording(lines)
        assert not report.ok
        assert report.divergence.field == "w"

    def test_older_key_order_still_replays(self):
        """Recordings written before the shared decision-line codec put
        ``exec`` fourth; readers are key-order free, so they replay, and
        a tampered key is still reported by its name."""
        old_order = ("inv", "fn", "t", "exec", "cold", "cid", "m", "lat",
                     "q", "w")
        lines = self._record_session().lines()
        decisions = []
        for number, line in enumerate(lines[1:], start=1):
            entry = json.loads(line)
            if "swap" not in entry:
                assert list(entry) != list(old_order)
                lines[number] = json.dumps(
                    {key: entry[key] for key in old_order},
                    separators=(",", ":"))
                decisions.append(number)
        assert replay_recording(lines).ok

        entry = json.loads(lines[decisions[-1]])
        entry["w"] = (entry["w"] + 1) % 2
        lines[decisions[-1]] = json.dumps(entry, separators=(",", ":"))
        report = replay_recording(lines)
        assert not report.ok
        assert report.divergence.field == "w"

    def test_recording_round_trips_through_a_file(self, tmp_path):
        recorder = self._record_session()
        path = tmp_path / "session.jsonl"
        path.write_text("\n".join(recorder.lines()) + "\n")
        report = replay_recording(path)
        assert report.ok and report.n_decisions == 12

    def test_blank_lines_read_the_same_from_a_path_and_lines(self,
                                                             tmp_path):
        """Blank lines are skipped from either source, and a bad line is
        numbered as the source numbers it."""
        from repro.serve.recorder import read_recording

        lines = self._record_session().lines()
        spaced = ["", lines[0], "", "  "] + lines[1:] + [""]
        path = tmp_path / "spaced.jsonl"
        path.write_text("\n".join(spaced) + "\n")
        from_path = read_recording(path)
        assert from_path == read_recording(spaced)
        assert from_path == read_recording(lines)
        assert replay_recording(path).ok

        spaced[5] = "{torn"
        path.write_text("\n".join(spaced) + "\n")
        for source in (path, spaced):
            with pytest.raises(ValueError,
                               match="recording line 6 is not JSON"):
                read_recording(source)

    def test_retired_worker_capacity_in_header(self):
        """Older headers record ``worker_capacity_mb``: null still replays,
        a bound (placed by the retired capacity filter) is rejected."""
        lines = self._record_session().lines()
        header = json.loads(lines[0])
        assert "worker_capacity_mb" not in header
        header["worker_capacity_mb"] = None
        lines[0] = json.dumps(header)
        assert replay_recording(lines).ok
        header["worker_capacity_mb"] = 512.0
        lines[0] = json.dumps(header)
        with pytest.raises(ValueError, match="worker_capacity_mb"):
            replay_recording(lines)

    def test_fault_configs_are_rejected(self):
        from repro.cluster.faults import FaultConfig

        with pytest.raises(ValueError, match="fault"):
            ServeEngine(
                _config(faults=FaultConfig(crash_prob=0.5)),
                recorder=DecisionRecorder(),
            )


class TestCli:
    def test_serve_replay_command(self, tmp_path, capsys):
        from repro.cli import main

        recorder = DecisionRecorder(tmp_path / "session.jsonl")
        clock = VirtualClock()
        engine = ServeEngine(_config(), wall=clock, recorder=recorder)
        for t in (0.5, 1.0, 9.0):
            clock.advance_to(t)
            engine.submit("hello-python")
        engine.drain()

        assert main(["serve-replay", str(tmp_path / "session.jsonl")]) == 0
        assert "3 decisions" in capsys.readouterr().out

        # Tampered recording: nonzero exit and a divergence report.
        lines = (tmp_path / "session.jsonl").read_text().splitlines()
        entry = json.loads(lines[1])
        entry["cold"] = False
        entry["cid"] = 999
        lines[1] = json.dumps(entry)
        bad = tmp_path / "tampered.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["serve-replay", str(bad)]) == 1
        assert "first divergence" in capsys.readouterr().out
