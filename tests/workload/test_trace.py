"""Tests for trace recording, persistence, and replay."""

import pytest

from repro.alloc.extent import ExtentAllocator, ExtentSizeConfig, FitPolicy
from repro.alloc.fixed import FixedBlockAllocator
from repro.core.comparison import selected_policies
from repro.core.configs import SystemConfig
from repro.core.experiments import build_profile
from repro.disk.array import StripedArray
from repro.disk.geometry import TINY_DISK
from repro.errors import ConfigurationError
from repro.fs.filesystem import FileSystem
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStream
from repro.units import KIB
from repro.workload.profiles import mini
from repro.workload.trace import Trace, TraceEvent, record_trace, replay_trace


def make_fs(allocator_factory=None, n_disks=4):
    sim = Simulator()
    array = StripedArray(sim, TINY_DISK, n_disks, 24 * KIB, KIB)
    if allocator_factory is None:
        allocator = ExtentAllocator(
            array.capacity_units,
            ExtentSizeConfig(range_means_units=(8,)),
            FitPolicy.FIRST_FIT,
            RandomStream(3),
        )
    else:
        allocator = allocator_factory(array.capacity_units)
    return sim, FileSystem(sim, array, allocator)


class TestRecording:
    def test_records_population_and_events(self):
        trace = record_trace(mini(n_files=5), duration_ms=2_000, seed=1)
        assert len(trace.initial) == 5
        assert len(trace.events) > 10
        assert trace.duration_ms <= 2_000

    def test_deterministic_per_seed(self):
        a = record_trace(mini(n_files=5), duration_ms=1_000, seed=2)
        b = record_trace(mini(n_files=5), duration_ms=1_000, seed=2)
        assert a.events == b.events
        assert a.initial == b.initial

    def test_different_seeds_differ(self):
        a = record_trace(mini(n_files=5), duration_ms=1_000, seed=1)
        b = record_trace(mini(n_files=5), duration_ms=1_000, seed=2)
        assert a.events != b.events

    def test_timestamps_monotone(self):
        trace = record_trace(mini(n_files=5), duration_ms=2_000, seed=3)
        times = [event.time_ms for event in trace.events]
        assert times == sorted(times)

    def test_operation_mix_reflects_ratios(self):
        trace = record_trace(mini(n_files=8), duration_ms=20_000, seed=4)
        counts = trace.operation_counts()
        assert counts["read"] > counts.get("delete", 0)  # 50% vs 7.5%
        assert set(counts) <= {"read", "write", "extend", "truncate", "delete"}


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        trace = record_trace(mini(n_files=4), duration_ms=1_000, seed=5)
        path = tmp_path / "trace.json"
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded.initial == trace.initial
        assert loaded.events == trace.events
        assert loaded.source == trace.source

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": 99, "initial": [], "events": []}')
        with pytest.raises(ConfigurationError):
            Trace.load(path)


class TestReplay:
    def test_replay_executes_every_event(self):
        trace = record_trace(mini(n_files=5), duration_ms=2_000, seed=6)
        sim, fs = make_fs()
        result = replay_trace(sim, fs, trace)
        assert result.operations == len(trace.events)
        assert result.completed_ms >= trace.duration_ms * 0.99
        fs.allocator.check_no_overlap()

    def test_replay_deterministic(self):
        trace = record_trace(mini(n_files=5), duration_ms=2_000, seed=7)
        outcomes = []
        for _ in range(2):
            sim, fs = make_fs()
            result = replay_trace(sim, fs, trace)
            outcomes.append((result.bytes_read, result.bytes_written,
                             result.completed_ms))
        assert outcomes[0] == outcomes[1]

    def test_same_trace_two_policies_same_demand(self):
        """The controlled-comparison property: byte-identical requests."""
        trace = record_trace(mini(n_files=5), duration_ms=2_000, seed=8)
        sim_a, fs_a = make_fs()
        result_a = replay_trace(sim_a, fs_a, trace)
        sim_b, fs_b = make_fs(
            allocator_factory=lambda units: FixedBlockAllocator(units, 4)
        )
        result_b = replay_trace(sim_b, fs_b, trace)
        assert result_a.operations == result_b.operations
        # The demand is identical; service (lag) may differ by policy.
        assert result_a.bytes_read == result_b.bytes_read

    def test_lag_reflects_contention(self):
        """A slower policy falls further behind the same trace."""
        trace = record_trace(mini(n_files=6), duration_ms=4_000, seed=9)
        sim_fast, fs_fast = make_fs(n_disks=4)
        fast = replay_trace(sim_fast, fs_fast, trace)
        sim_slow, fs_slow = make_fs(n_disks=1)
        slow = replay_trace(sim_slow, fs_slow, trace)
        assert slow.mean_lag_ms >= fast.mean_lag_ms

    def test_unknown_op_rejected(self):
        from repro.workload.trace import TraceFile

        sim, fs = make_fs()
        trace = Trace(
            initial=[TraceFile("x", 4096, 4096, 4096)],
            events=[TraceEvent(0.0, "defragment", "x", 1)],
        )
        with pytest.raises(ConfigurationError):
            replay_trace(sim, fs, trace)

    def test_event_on_unknown_file_is_skipped(self):
        # No I/O is issued, but the event is still accounted for: a file
        # the replay does not hold is one the disk had no room to create.
        sim, fs = make_fs()
        trace = Trace(events=[TraceEvent(0.0, "read", "ghost", 1024)])
        result = replay_trace(sim, fs, trace)
        assert result.operations == 1
        assert result.disk_full_events == 1
        assert result.bytes_read == 0


class TestReplayOnFullDisk:
    """A trace recorded near capacity replays to the end on every TS
    contender: population creates that fail, and the events on the files
    they would have made, count as disk-full events instead of raising."""

    @pytest.fixture(scope="class")
    def system(self):
        return SystemConfig(scale=0.02)

    @pytest.mark.parametrize("fill", [0.75, 0.9])
    def test_replay_completes_at_high_fill(self, system, fill):
        trace = record_trace(
            build_profile("TS", system, fill), duration_ms=2_000, seed=1991
        )
        failures = 0
        for policy in selected_policies("TS"):
            sim = Simulator()
            array = system.build_array(sim)
            allocator = policy.build(
                array.capacity_units,
                system.disk_unit_bytes,
                RandomStream(1991, "trace-replay").fork("alloc"),
            )
            fs = FileSystem(sim, array, allocator)
            result = replay_trace(sim, fs, trace)
            assert result.operations == len(trace.events), policy.label
            fs.allocator.check_no_overlap()
            failures += result.disk_full_events
        # The regression needs a disk that really fills up.
        assert failures > 0
