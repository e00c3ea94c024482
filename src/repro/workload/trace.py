"""Trace-driven workloads (extension, paper §6).

"And as always, applying the allocation policies to genuine workloads
will yield a much more convincing argument."  This module provides the
machinery for that: an operation trace — a timestamped sequence of
(operation, file, size, offset) records — that can be *recorded* from the
stochastic workload model, saved/loaded as JSON, and *replayed* against
any file system.  Replaying one trace against several policies gives a
perfectly controlled comparison: every policy sees byte-identical
requests in the same order at the same times, so every difference in the
outcome is the allocation policy's doing.  The same format accepts traces
converted from real systems.

Trace files are JSON: a header (capacity, generator parameters) plus an
``initial`` file population and an ``events`` list.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import asdict, dataclass, field

from ..errors import ConfigurationError, DiskFullError
from ..fs.filesystem import FileSystem, FsFile
from ..sim.engine import Simulator
from ..sim.rng import RandomStream
from .filetype import FileType, Operation
from .ops import pick_offset, plan_operation, sample_initial_size
from .profiles import Profile

#: Trace format version written into every file.
TRACE_FORMAT = 1


@dataclass(frozen=True)
class TraceFile:
    """A file in the trace's initial population."""

    key: str
    size_bytes: int
    allocation_hint_bytes: int
    step_bytes: int


@dataclass(frozen=True)
class TraceEvent:
    """One operation in a trace.

    Attributes:
        time_ms: when the operation is issued.
        op: ``read`` / ``write`` / ``extend`` / ``truncate`` / ``delete``
            (a delete is immediately followed by a create of the same key
            with ``size_bytes`` as the replacement's initial size).
        key: the file the operation targets.
        size_bytes: request size.
        offset_bytes: for reads/writes; None means append/irrelevant.
    """

    time_ms: float
    op: str
    key: str
    size_bytes: int
    offset_bytes: int | None = None


@dataclass
class Trace:
    """An initial population plus a timestamped operation stream."""

    initial: list[TraceFile] = field(default_factory=list)
    events: list[TraceEvent] = field(default_factory=list)
    source: str = ""

    @property
    def duration_ms(self) -> float:
        """Timestamp of the final event (0 for an empty trace)."""
        return self.events[-1].time_ms if self.events else 0.0

    def operation_counts(self) -> dict[str, int]:
        """Events per operation type."""
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event.op] = counts.get(event.op, 0) + 1
        return counts

    # -- persistence ------------------------------------------------------------

    def save(self, path: str | pathlib.Path) -> None:
        """Write the trace as JSON."""
        payload = {
            "format": TRACE_FORMAT,
            "source": self.source,
            "initial": [asdict(f) for f in self.initial],
            "events": [asdict(e) for e in self.events],
        }
        pathlib.Path(path).write_text(json.dumps(payload))

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "Trace":
        """Read a trace written by :meth:`save`."""
        payload = json.loads(pathlib.Path(path).read_text())
        if payload.get("format") != TRACE_FORMAT:
            raise ConfigurationError(
                f"unsupported trace format {payload.get('format')!r}"
            )
        return cls(
            initial=[TraceFile(**f) for f in payload["initial"]],
            events=[TraceEvent(**e) for e in payload["events"]],
            source=payload.get("source", ""),
        )


def record_trace(
    profile: Profile,
    duration_ms: float,
    seed: int = 0,
) -> Trace:
    """Generate a trace from the stochastic workload model.

    Runs the §2.2 user-event logic *without any disk* — operations take
    zero service time, so the trace's timestamps reflect pure think-time
    arrival processes.  File lengths are tracked logically so offsets and
    truncations are consistent.  Deterministic per ``(profile, seed)``.
    """
    rng = RandomStream(seed, f"trace/{profile.name}")
    trace = Trace(source=f"{profile.name}/seed={seed}")
    lengths: dict[str, int] = {}
    cursors: dict[str, int] = {}
    keys_by_type: dict[str, list[str]] = {}

    for file_type in profile.types:
        init_rng = rng.fork(f"init/{file_type.name}")
        keys = []
        for index in range(file_type.n_files):
            key = f"{file_type.name}#{index}"
            size = sample_initial_size(init_rng, file_type)
            trace.initial.append(
                TraceFile(
                    key=key,
                    size_bytes=size,
                    allocation_hint_bytes=file_type.allocation_size_bytes,
                    step_bytes=file_type.allocation_size_bytes
                    or file_type.rw_size_bytes,
                )
            )
            lengths[key] = size
            cursors[key] = 0
            keys.append(key)
        keys_by_type[file_type.name] = keys

    # One virtual clock per user; merge-sort their events by time.
    arrivals: list[tuple[float, FileType, RandomStream]] = []
    for file_type in profile.types:
        stagger = file_type.n_users * file_type.hit_frequency_ms
        for user in range(file_type.n_users):
            user_rng = rng.fork(f"user/{file_type.name}/{user}")
            arrivals.append(
                (user_rng.uniform(0.0, max(stagger, 0.0)), file_type, user_rng)
            )

    import heapq

    heap = [(t, i) for i, (t, _, _) in enumerate(arrivals)]
    heapq.heapify(heap)
    while heap:
        time_ms, index = heapq.heappop(heap)
        if time_ms > duration_ms:
            continue
        _, file_type, user_rng = arrivals[index]
        keys = keys_by_type[file_type.name]
        if keys:
            key = user_rng.choice(keys)
            planned = plan_operation(
                user_rng, file_type, file_type.operation_weights
            )
            event = _apply_virtual(
                time_ms, key, planned.op, planned.size_bytes,
                file_type, user_rng, lengths, cursors,
            )
            trace.events.append(event)
        next_time = time_ms + user_rng.exponential(file_type.process_time_ms)
        arrivals[index] = (next_time, file_type, user_rng)
        heapq.heappush(heap, (next_time, index))
    return trace


def _apply_virtual(
    time_ms, key, op, size, file_type, rng, lengths, cursors
) -> TraceEvent:
    """Update the virtual file state and emit the trace event."""
    if op in (Operation.READ, Operation.WRITE):
        offset, cursors[key] = pick_offset(
            rng, file_type, lengths[key], cursors[key], size
        )
        if op is Operation.WRITE:
            lengths[key] = max(lengths[key], min(offset, lengths[key]) + size)
        return TraceEvent(time_ms, op.value, key, size, offset)
    if op is Operation.EXTEND:
        lengths[key] += size
        return TraceEvent(time_ms, op.value, key, size, None)
    if op is Operation.TRUNCATE:
        removed = min(file_type.truncate_size_bytes, lengths[key])
        lengths[key] -= removed
        cursors[key] = min(cursors[key], lengths[key])
        return TraceEvent(
            time_ms, op.value, key, max(1, file_type.truncate_size_bytes), None
        )
    # DELETE: replacement with a fresh initial size.
    lengths[key] = size
    cursors[key] = 0
    return TraceEvent(time_ms, op.value, key, size, None)


@dataclass
class ReplayResult:
    """Outcome of replaying a trace against one file system."""

    operations: int = 0
    disk_full_events: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    completed_ms: float = 0.0
    lag_ms_total: float = 0.0

    @property
    def mean_lag_ms(self) -> float:
        """Mean delay between an event's timestamp and its completion —
        how far the system falls behind the trace's demand."""
        return self.lag_ms_total / self.operations if self.operations else 0.0


def replay_trace(sim: Simulator, fs: FileSystem, trace: Trace) -> ReplayResult:
    """Replay a trace against a file system; returns after completion.

    The initial population is allocated instantly; events are issued at
    their recorded timestamps (never early; an op whose predecessor on the
    same file is still running waits for it — per-file ordering is
    preserved, cross-file operations overlap as they did in the source).
    On a full disk every failed allocation, including a file that could
    not be created, counts in ``disk_full_events``; events on such a file
    count there too, so ``operations`` always equals the number of events.
    """
    result = ReplayResult()
    files: dict[str, FsFile] = {}
    hints: dict[str, int] = {}
    for entry in trace.initial:
        hints[entry.key] = entry.allocation_hint_bytes
        try:
            # A file the disk has no room to create stays out of ``files``.
            files[entry.key] = fs_file = fs.create(
                size_hint_bytes=entry.allocation_hint_bytes, tag=entry.key
            )
            fs.allocate_to(
                fs_file, entry.size_bytes, step_bytes=entry.step_bytes or None
            )
        except DiskFullError:
            result.disk_full_events += 1

    busy_until: dict[str, float] = {}

    def worker(event: TraceEvent):
        delay = max(0.0, event.time_ms - sim.now)
        if delay:
            yield delay
        fs_file = files.get(event.key)
        if fs_file is None:
            # The disk was full when this file had to be (re)created.
            result.disk_full_events += 1
        else:
            try:
                if event.op == "read":
                    n = yield from fs.read(fs_file, event.offset_bytes or 0,
                                           event.size_bytes)
                    result.bytes_read += n
                elif event.op == "write":
                    n = yield from fs.write(fs_file, event.offset_bytes or 0,
                                            event.size_bytes)
                    result.bytes_written += n
                elif event.op == "extend":
                    n = yield from fs.extend(fs_file, event.size_bytes)
                    result.bytes_written += n
                elif event.op == "truncate":
                    fs.truncate(fs_file, event.size_bytes)
                elif event.op == "delete":
                    fs.delete(fs_file)
                    del files[event.key]
                    replacement = fs.create(
                        size_hint_bytes=hints[event.key], tag=event.key
                    )
                    files[event.key] = replacement
                    n = yield from fs.write(replacement, 0, event.size_bytes)
                    result.bytes_written += n
                else:
                    raise ConfigurationError(f"unknown trace op {event.op!r}")
            except DiskFullError:
                result.disk_full_events += 1
        result.operations += 1
        result.lag_ms_total += max(0.0, sim.now - event.time_ms)

    def controller():
        for event in trace.events:
            delay = max(0.0, event.time_ms - sim.now)
            if delay:
                yield delay
            # Per-file ordering: wait for this file's previous operation.
            previous = busy_until.get(event.key)
            if previous is not None and not previous.done:
                yield previous
            busy_until[event.key] = sim.process(worker(event))
        # Wait for every straggler.
        for process in list(busy_until.values()):
            if not process.done:
                yield process
        result.completed_ms = sim.now

    done = sim.process(controller())
    sim.run()
    if not done.done:  # pragma: no cover - controller always completes
        raise ConfigurationError("trace replay did not complete")
    return result
