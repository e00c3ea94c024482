"""The three benchmark workloads, driven through the program's public API.

Every workload builds its inputs from the seed in its constructor (the
set-up), then runs *rounds*: one round is the whole unit of user work --
regenerating Figure 6, running the twelve allocation tests, or replaying
one trace against the four Figure 6 policies.  Every round of one run does
exactly the same operations, so rounds must return identical simulated
results; the run compares them.
"""

from __future__ import annotations

import gc
import tempfile
from dataclasses import astuple, dataclass, field

from repro.core.comparison import WORKLOADS, selected_policies
from repro.core.configs import ExperimentConfig, SystemConfig
from repro.core.experiments import (
    allocation_fill_for,
    build_profile,
    run_allocation_experiment,
    run_performance_experiment,
)
from repro.core.runner import ExperimentRunner, ExperimentTask
from repro.fs.filesystem import FileSystem
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStream
from repro.workload.driver import run_allocation_until_full
from repro.workload.trace import Trace, record_trace, replay_trace

import checks
from layers import Timer

#: Disk scale of every reduced-scale system (1.0 is the paper's 2.8 G).
SCALE = 0.02
#: Simulated-time caps of the Figure 6 measured phases, and the warm-up.
APP_CAP_MS = 20_000.0
SEQ_CAP_MS = 20_000.0
WARMUP_MS = 5_000.0
#: Length of the recorded time-sharing trace, and the initial fill of its
#: population.  The fill leaves room for the buddy system's doubling, so
#: no replay on any seed runs out of space.
TRACE_MS = 10_000.0
TRACE_FILL = 0.4

#: Short names of the four Figure 6 policies, in ``selected_policies`` order.
POLICY_KEYS = ("buddy", "restricted", "extent", "fixed")


@dataclass
class Point:
    """One unit of a round: an experiment point or one policy's replay.

    ``outcome`` is the simulated result that must repeat exactly;
    ``attempted`` and ``failed`` count operations (experiment points, or
    trace events for a replay).
    """

    label: str
    outcome: object = None
    error: str | None = None
    attempted: int = 1
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    detail: object = None  # the raw result, kept for counters and checks


@dataclass
class Round:
    wall_s: float
    ops: int
    points: list[Point]


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# fig6: regenerate Figure 6 through the experiment runner, cache cold
# ---------------------------------------------------------------------------


def _performance_outcome(result) -> tuple:
    return (
        result.application,
        result.sequential,
        tuple(sorted(result.operation_counts.items())),
        result.disk_full_events,
        result.governor_conversions,
        result.final_utilization,
    )


class Fig6:
    """The twelve Figure 6 cells (four policies x SC/TP/TS workloads, both
    §3 performance tests), run serially with a fresh result cache."""

    name = "fig6"

    def __init__(self, seed: int) -> None:
        system = SystemConfig(scale=SCALE)
        self.cells = [
            (workload, key, ExperimentConfig(
                policy=policy, workload=workload, system=system, seed=seed
            ))
            for workload in WORKLOADS
            for key, policy in zip(POLICY_KEYS, selected_policies(workload))
        ]

    def _tasks(self, **extra) -> list[ExperimentTask]:
        return [
            ExperimentTask.performance(
                config,
                app_cap_ms=APP_CAP_MS,
                seq_cap_ms=SEQ_CAP_MS,
                warmup_ms=WARMUP_MS,
                **extra,
            )
            for _, _, config in self.cells
        ]

    def prepare(self) -> None:
        pass

    def run_round(self, timer: Timer, scratch: str) -> Round:
        tasks = self._tasks()
        with tempfile.TemporaryDirectory(dir=scratch) as cache_dir:
            runner = ExperimentRunner(jobs=1, cache_dir=cache_dir)
            outcomes = timer(runner.run, tasks)
        return self._round(timer.wall_s, outcomes)

    def _round(self, wall_s: float, outcomes) -> Round:
        points = []
        ops = 0
        for (workload, key, _), outcome in zip(self.cells, outcomes):
            point = Point(f"{workload}/{key}")
            if outcome.error is not None:
                point.error = outcome.error.strip().splitlines()[-1]
            else:
                result = outcome.result
                point.outcome = _performance_outcome(result)
                point.detail = result
                ops += sum(result.operation_counts.values())
            points.append(point)
        return Round(wall_s, ops, points)

    def check(self, points: list[Point]) -> None:
        percents = {}
        for (workload, key, _), point in zip(self.cells, points):
            result = point.detail
            if result is None:
                continue
            for phase_name in ("application", "sequential"):
                phase = getattr(result, phase_name)
                point.problems += checks.bandwidth(
                    f"{point.label} {phase_name}",
                    phase.bytes_moved,
                    phase.simulated_ms,
                )
            percents[(workload, key)] = (
                result.application.percent, result.sequential.percent
            )
        if len(percents) < len(self.cells):
            return  # a failed cell already fails the round
        by_cell = {(w, k): p for (w, k, _), p in zip(self.cells, points)}
        for message, involved in checks.fig6_shapes(percents):
            for cell in involved:
                by_cell[cell].problems.append(message)

    def layer_counters(
        self, reference: Round, timer: Timer
    ) -> tuple[dict, list[Point]]:
        """Counters of a run with the metrics registry attached, and the
        untraced time to populate and prefill every cell."""
        runner = ExperimentRunner(jobs=1, use_cache=False)
        metered = self._round(0.0, runner.run(self._tasks(collect_metrics=True)))
        counters = dict.fromkeys(COUNTERS, 0)
        for point in metered.points:
            result = point.detail
            if result is None:
                continue
            snap = result.metrics
            c, totals = snap["counters"], snap["totals"]
            elapsed = (
                WARMUP_MS
                + result.application.simulated_ms
                + result.sequential.simulated_ms
            )
            busy = [v for k, v in sorted(totals.items())
                    if k.startswith("disk.busy_ms.")]
            # Busy time is charged when a request starts service, so the
            # request in flight when the run stops may end past it.
            in_flight = snap["histograms"]["disk.service_ms"]["max"] or 0.0
            point.problems += checks.drive_busy(
                point.label, busy, elapsed + in_flight
            )
            counters["engine.events"] += c["sim.events_executed"]
            counters["engine.sim_ms"] += elapsed
            counters["disk.requests"] += _sum_prefixed(c, "disk.requests.")
            counters["disk.bytes_moved"] += _sum_prefixed(c, "disk.bytes_moved.")
            counters["disk.busy_ms"] += sum(busy)
            counters["disk.queue_wait_ms"] += (
                snap["histograms"]["disk.queue_wait_ms"]["sum"]
            )
            counters["alloc.requests"] += c["alloc.requests"]
            counters["alloc.failed_requests"] += c["alloc.failed_requests"]
            counters["fs.bytes_read"] += c["fs.bytes_read"]
            counters["fs.bytes_written"] += c["fs.bytes_written"]
            counters["workload.ops"] += sum(result.operation_counts.values())
            counters["workload.disk_full_events"] += result.disk_full_events
            counters["workload.governor_conversions"] += (
                result.governor_conversions
            )
        for _, _, config in self.cells:
            timer(
                run_performance_experiment,
                config,
                warmup_ms=0.0,
                run_application=False,
                run_sequential=False,
            )
        counters["core.populate_s"] = timer.wall_s
        return counters, metered.points


def _sum_prefixed(counters: dict, prefix: str):
    return sum(v for k, v in counters.items() if k.startswith(prefix))


# ---------------------------------------------------------------------------
# alloc_frag: the §3 allocation test to first failure
# ---------------------------------------------------------------------------


class AllocFrag:
    """The four Figure 6 policies on each workload, run to the first
    allocation failure.  TS runs at the reduced scale (its cost grows with
    its file count); TP and SC run at full scale."""

    name = "alloc_frag"

    def __init__(self, seed: int) -> None:
        self.points = []
        for workload in WORKLOADS:
            system = SystemConfig(scale=SCALE if workload == "TS" else 1.0)
            for key, policy in zip(POLICY_KEYS, selected_policies(workload)):
                config = ExperimentConfig(
                    policy=policy, workload=workload, system=system, seed=seed
                )
                profile = build_profile(
                    workload, system, allocation_fill_for(workload)
                )
                population = sum(t.n_files for t in profile.types)
                self.points.append((f"{workload}/{key}", config, population))
        self.reference: dict[str, tuple] = {}

    def prepare(self) -> None:
        """Run each test once more, built from its parts, so its end state
        can be inspected; its result must equal the timed runs'."""
        self.counters = dict.fromkeys(COUNTERS, 0)
        # The collector pauses as in run_allocation_experiment, which only
        # saves time: garbage collection never changes a result.
        gc.disable()
        try:
            for label, config, _ in self.points:
                try:
                    self.reference[label] = self._inspect(label, config)
                except Exception as exc:  # noqa: BLE001 - a failed point
                    self.reference[label] = (None, [f"{label}: {_error(exc)}"])
        finally:
            gc.enable()

    def _inspect(self, label: str, config: ExperimentConfig) -> tuple:
        system = config.system
        sim = Simulator()
        array = system.build_array(sim)
        rng = RandomStream(config.seed, "allocation-experiment")
        allocator = config.policy.build(
            array.capacity_units, system.disk_unit_bytes, rng.fork("alloc")
        )
        fs = FileSystem(sim, array, allocator)
        profile = build_profile(
            config.workload, system, allocation_fill_for(config.workload)
        )
        result = run_allocation_until_full(fs, profile, seed=config.seed)
        problems, internal = checks.allocation_state(
            label, allocator, fs.files.values(), fs.unit_bytes
        )
        problems += checks.internal_fragmentation(
            label, internal, result.fragmentation.internal_fraction
        )
        counts = allocator.counters()
        self.counters["alloc.requests"] += counts["alloc.requests"]
        self.counters["alloc.failed_requests"] += counts["alloc.failed_requests"]
        return result, problems

    def run_round(self, timer: Timer, scratch: str) -> Round:
        points = []
        ops = 0
        for label, config, population in self.points:
            point = Point(label)
            try:
                result = timer(run_allocation_experiment, config)
            except Exception as exc:  # noqa: BLE001 - a failed point
                point.error = _error(exc)
            else:
                point.outcome = result
                point.detail = result
                # A test that ends during population created only the files
                # still live; otherwise it created the whole population.
                if result.operations == 0:
                    ops += result.file_count
                else:
                    ops += population + result.operations
            points.append(point)
        return Round(timer.wall_s, ops, points)

    def check(self, points: list[Point]) -> None:
        for point in points:
            result = point.detail
            if result is None:
                continue
            if not result.filled:
                point.problems.append(f"{point.label}: test ended unfilled")
            reference, problems = self.reference[point.label]
            point.problems += problems
            if result != reference:
                point.problems.append(
                    f"{point.label}: result differs from the inspected run"
                )

    def layer_counters(
        self, reference: Round, timer: Timer
    ) -> tuple[dict, list[Point]]:
        """Counters of the inspected runs, and the untraced time of the
        population phase alone (the test with its churn switched off)."""
        counters = dict(self.counters)
        counters["workload.ops"] = reference.ops
        for _, config, _ in self.points:
            timer(run_allocation_experiment, config, max_operations=0)
        counters["core.populate_s"] = timer.wall_s
        return counters, []


# ---------------------------------------------------------------------------
# trace_replay: fixed demand from one recorded time-sharing trace
# ---------------------------------------------------------------------------


@dataclass
class _Replayed:
    """What one replay leaves for the checks and the layer counters."""

    result: object
    events: int
    sim_ms: float
    drive_bytes: tuple
    drive_busy_ms: tuple
    requests: int
    queue_wait_ms: float
    alloc: dict
    fs_read: int
    fs_written: int


class TraceReplay:
    """One time-sharing trace, recorded in set-up, replayed as fast as the
    simulated disks allow against the four Figure 6 TS policies."""

    name = "trace_replay"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.system = SystemConfig(scale=SCALE)
        profile = build_profile("TS", self.system, TRACE_FILL)
        self.trace = record_trace(profile, TRACE_MS, seed=seed)
        self.policies = list(zip(POLICY_KEYS, selected_policies("TS")))

    def prepare(self) -> None:
        self.expected = checks.trace_expectations(self.trace)

    def _replay(self, policy, trace: Trace) -> _Replayed:
        """Replay ``trace`` on a fresh system and keep only its counters, so
        the simulated system is freed before the next replay starts."""
        sim = Simulator()
        array = self.system.build_array(sim)
        rng = RandomStream(self.seed, "trace-replay")
        allocator = policy.build(
            array.capacity_units, self.system.disk_unit_bytes, rng.fork("alloc")
        )
        fs = FileSystem(sim, array, allocator)
        result = replay_trace(sim, fs, trace)
        drives = fs.disk.drives
        return _Replayed(
            result=result,
            events=sim.events_executed,
            sim_ms=sim.now,
            drive_bytes=tuple(d.bytes_moved for d in drives),
            drive_busy_ms=tuple(d.busy_ms for d in drives),
            requests=sum(d.requests_served for d in drives),
            queue_wait_ms=sum(d.queue_wait.total for d in drives),
            alloc=fs.allocator.counters(),
            fs_read=fs.bytes_read,
            fs_written=fs.bytes_written,
        )

    def run_round(self, timer: Timer, scratch: str) -> Round:
        points = []
        ops = 0
        events = len(self.trace.events)
        for key, policy in self.policies:
            point = Point(f"TS/{key}", attempted=events)
            try:
                replayed = timer(self._replay, policy, self.trace)
            except Exception as exc:  # noqa: BLE001 - a failed replay
                point.error = _error(exc)
            else:
                result = replayed.result
                point.outcome = (
                    astuple(result),
                    replayed.events,
                    replayed.drive_bytes,
                    replayed.drive_busy_ms,
                )
                point.detail = replayed
                point.failed = result.disk_full_events
                ops += result.operations
            points.append(point)
            # The replayed system holds reference cycles; free it now, so
            # the peak resident set is that of one replay, as a user runs it.
            gc.collect()
        return Round(timer.wall_s, ops, points)

    def check(self, points: list[Point]) -> None:
        expected_read, expected_written = self.expected
        for point in points:
            replayed = point.detail
            if replayed is None:
                continue
            result = replayed.result
            label = point.label
            if result.operations != len(self.trace.events):
                point.problems.append(
                    f"{label}: {result.operations} operations for "
                    f"{len(self.trace.events)} trace events"
                )
            if result.bytes_written != expected_written:
                point.problems.append(
                    f"{label}: wrote {result.bytes_written} B, trace holds "
                    f"{expected_written} B"
                )
            if result.bytes_read != expected_read:
                point.problems.append(
                    f"{label}: read {result.bytes_read} B, length model "
                    f"gives {expected_read} B"
                )
            point.problems += checks.bandwidth(
                label, sum(replayed.drive_bytes), replayed.sim_ms
            )
            point.problems += checks.drive_busy(
                label, list(replayed.drive_busy_ms), replayed.sim_ms
            )

    def layer_counters(
        self, reference: Round, timer: Timer
    ) -> tuple[dict, list[Point]]:
        """Counters kept from the replays of the reference round, and the
        untraced time of allocating the trace's initial population alone."""
        counters = dict.fromkeys(COUNTERS, 0)
        for point in reference.points:
            replayed = point.detail
            if replayed is None:
                continue
            counters["engine.events"] += replayed.events
            counters["engine.sim_ms"] += replayed.sim_ms
            counters["disk.requests"] += replayed.requests
            counters["disk.bytes_moved"] += sum(replayed.drive_bytes)
            counters["disk.busy_ms"] += sum(replayed.drive_busy_ms)
            counters["disk.queue_wait_ms"] += replayed.queue_wait_ms
            counters["alloc.requests"] += replayed.alloc["alloc.requests"]
            counters["alloc.failed_requests"] += replayed.alloc[
                "alloc.failed_requests"
            ]
            counters["fs.bytes_read"] += replayed.fs_read
            counters["fs.bytes_written"] += replayed.fs_written
            counters["workload.ops"] += replayed.result.operations
            counters["workload.disk_full_events"] += (
                replayed.result.disk_full_events
            )
        population_only = Trace(initial=self.trace.initial, events=[])
        for _, policy in self.policies:
            timer(self._replay, policy, population_only)
        counters["core.populate_s"] = timer.wall_s
        return counters, []


#: Counters every workload reports in its traced run (0 where the layer
#: does no such work on that workload).
COUNTERS = (
    "engine.events",
    "engine.sim_ms",
    "disk.requests",
    "disk.bytes_moved",
    "disk.busy_ms",
    "disk.queue_wait_ms",
    "alloc.requests",
    "alloc.failed_requests",
    "fs.bytes_read",
    "fs.bytes_written",
    "workload.ops",
    "workload.disk_full_events",
    "workload.governor_conversions",
)

WORKLOAD_CLASSES = {cls.name: cls for cls in (Fig6, AllocFrag, TraceReplay)}
