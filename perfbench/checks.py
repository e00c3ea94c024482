"""Correctness checks computed outside the program.

Each check returns a list of failure messages (empty when it passes).  The
constants and models here are written down from the paper, not read from
the program, so a fault in the program's own bookkeeping cannot hide.
"""

from __future__ import annotations

import math

#: Table 1: eight CDC Wren IV drives, 9 tracks of 24 KiB per cylinder, a
#: 16.67 ms rotation and a 5.5 ms track-to-track seek.  Reading a whole
#: cylinder costs one rotation per track plus one track seek, so no drive
#: can sustain more than one cylinder per that time.
DISKS = 8
TRACKS_PER_CYLINDER = 9
TRACK_BYTES = 24 * 1024
ROTATION_MS = 16.67
TRACK_SEEK_MS = 5.5
PEAK_BYTES_PER_MS = DISKS * TRACKS_PER_CYLINDER * TRACK_BYTES / (
    TRACKS_PER_CYLINDER * ROTATION_MS + TRACK_SEEK_MS
)


def bandwidth(label: str, bytes_moved: float, simulated_ms: float) -> list[str]:
    """Bytes moved in a phase may not exceed the array's peak bandwidth."""
    if bytes_moved < 0 or simulated_ms < 0:
        return [f"{label}: negative bytes {bytes_moved} or time {simulated_ms}"]
    limit = PEAK_BYTES_PER_MS * simulated_ms
    if bytes_moved > limit * (1 + 1e-12):
        return [
            f"{label}: moved {bytes_moved:.0f} B in {simulated_ms:.1f} ms, "
            f"above the {limit:.0f} B peak"
        ]
    return []


def drive_busy(label: str, busy_ms: list[float], elapsed_ms: float) -> list[str]:
    """No drive can be busy for longer than the simulated time elapsed."""
    return [
        f"{label}: drive {index} busy {busy:.1f} ms of {elapsed_ms:.1f} ms"
        for index, busy in enumerate(busy_ms)
        if busy < 0 or busy > elapsed_ms * (1 + 1e-12)
    ]


# ---------------------------------------------------------------------------
# Figure 6 shapes (the assertions of benchmarks/test_fig6_comparison.py)
# ---------------------------------------------------------------------------


def fig6_shapes(
    cells: dict[tuple[str, str], tuple[float, float]],
) -> list[tuple[str, list[tuple[str, str]]]]:
    """The four Figure 6 shapes over ``(workload, policy) -> (app %, seq %)``.

    Policies are keyed ``buddy``, ``restricted``, ``extent`` and ``fixed``.
    Returns ``(message, cells involved)`` for each violated shape.
    """
    failures = []
    multiblock = ("buddy", "restricted", "extent")
    for workload in ("SC", "TP", "TS"):
        fixed = cells[(workload, "fixed")][1]
        for policy in multiblock:
            if not cells[(workload, policy)][1] > fixed:
                failures.append((
                    f"fig6 {workload}: {policy} sequential "
                    f"{cells[(workload, policy)][1]:.1f}% not above fixed "
                    f"{fixed:.1f}%",
                    [(workload, policy), (workload, "fixed")],
                ))
    for workload in ("SC", "TP"):
        best = max(cells[(workload, policy)][1] for policy in multiblock)
        if not best > 60.0:
            failures.append((
                f"fig6 {workload}: best multiblock sequential {best:.1f}% "
                "not above 60%",
                [(workload, policy) for policy in multiblock],
            ))
    for policy in multiblock + ("fixed",):
        seq = cells[("TS", policy)][1]
        if not seq < 40.0:
            failures.append((
                f"fig6 TS: {policy} sequential {seq:.1f}% not below 40%",
                [("TS", policy)],
            ))
        app, seq = cells[("TP", policy)]
        if not app < seq:
            failures.append((
                f"fig6 TP: {policy} application {app:.1f}% not below "
                f"sequential {seq:.1f}%",
                [("TP", policy)],
            ))
    return failures


# ---------------------------------------------------------------------------
# Allocation-test end state
# ---------------------------------------------------------------------------


def free_spans(allocator, state: dict) -> list[tuple[int, int]]:
    """``(start, length)`` of every free block, read from the policy's
    free structures through its state snapshot ``state``."""
    if "holes" in state:  # extent: first-fit hole list
        return [(start, length) for start, length in state["holes"]]
    if "free_by_order" in state:  # binary buddy: addresses per order
        return [
            (address, 1 << int(order))
            for order, addresses in state["free_by_order"].items()
            for address in addresses
        ]
    if "store" in state:  # restricted buddy: max-size bitmap + free lists
        store = state["store"]
        largest = allocator.config.block_sizes_units[-1]
        spans = [(slot * largest, largest) for slot in store["max_slots"]]
        for size, addresses in store["lists"].items():
            spans.extend((address, int(size)) for address in addresses)
        return spans
    if "free_blocks" in state:  # fixed block: LIFO free list
        block = state["block_units"]
        return [(address, block) for address in state["free_blocks"]]
    raise ValueError(f"no free-space model for {type(allocator).__name__}")


def smallest_block_units(allocator, state: dict) -> int:
    """The policy's allocation granule: capacity beyond the last whole
    granule cannot be allocated by any request."""
    if "block_units" in state:
        return state["block_units"]
    config = getattr(allocator, "config", None)
    sizes = getattr(config, "block_sizes_units", None)
    return sizes[0] if sizes else 1


def allocation_state(
    label: str, allocator, files, unit_bytes: int
) -> tuple[list[str], float]:
    """End state of an allocation test, recounted from the live extents.

    * live extents (data and descriptors) lie inside capacity and do not
      overlap each other or any free block;
    * live units plus free units cover capacity, leaving at most the
      tail that is smaller than the policy's allocation granule.

    Returns the failures and the internal fragmentation recomputed from
    file lengths by the paper's definition: (allocated - used) /
    allocated, descriptors counting as used.
    """
    failures: list[str] = []
    capacity = allocator.capacity_units
    live: list[tuple[int, int]] = []
    allocated = 0
    used = 0.0
    lengths = {f.handle.file_id: f.length_bytes for f in files}
    for file_id, handle in allocator.files.items():
        data = 0
        for extent in handle.extents:
            live.append((extent.start, extent.length))
            data += extent.length
        allocated += data
        if handle.descriptor is not None:
            live.append((handle.descriptor.start, handle.descriptor.length))
            allocated += handle.descriptor.length
            used += handle.descriptor.length
        used += min(float(data), lengths.get(file_id, 0) / unit_bytes)
    state = allocator.snapshot_free_state()
    free = free_spans(allocator, state)
    spans = sorted(live + free)
    for start, length in spans:
        if start < 0 or length <= 0 or start + length > capacity:
            failures.append(f"{label}: span ({start}, {length}) outside capacity")
            break
    for (start_a, length_a), (start_b, _) in zip(spans, spans[1:]):
        if start_b < start_a + length_a:
            failures.append(f"{label}: spans overlap at unit {start_b}")
            break
    live_units = sum(length for _, length in live)
    free_units = sum(length for _, length in free)
    residue = capacity - live_units - free_units
    if not 0 <= residue < smallest_block_units(allocator, state):
        failures.append(
            f"{label}: live {live_units} + free {free_units} units leave "
            f"{residue} of capacity {capacity} unaccounted"
        )
    internal = (allocated - used) / allocated if allocated else 0.0
    return failures, internal


def internal_fragmentation(label: str, expected: float, reported: float) -> list[str]:
    if not math.isclose(expected, reported, rel_tol=1e-9, abs_tol=1e-12):
        return [
            f"{label}: internal fragmentation {reported!r} != recomputed "
            f"{expected!r}"
        ]
    return []


# ---------------------------------------------------------------------------
# Trace replay: expected byte counts replayed from the trace itself
# ---------------------------------------------------------------------------


def trace_expectations(trace) -> tuple[int, int]:
    """``(bytes_read, bytes_written)`` a replay of ``trace`` must report.

    Reads are clamped to the file's length at the time of the read; a
    write past the end appends at the end; a delete re-creates the file
    with a whole-file write of the event's size.  Per-file order is the
    trace's order, which the replayer preserves.
    """
    length = {entry.key: entry.size_bytes for entry in trace.initial}
    read = written = 0
    for event in trace.events:
        key, size = event.key, event.size_bytes
        if event.op == "read":
            offset = event.offset_bytes or 0
            read += max(0, min(offset + size, length[key]) - offset)
        elif event.op == "write":
            offset = min(event.offset_bytes or 0, length[key])
            length[key] = max(length[key], offset + size)
            written += size
        elif event.op == "extend":
            length[key] += size
            written += size
        elif event.op == "truncate":
            length[key] -= min(size, length[key])
        elif event.op == "delete":
            length[key] = size
            written += size
        else:
            raise ValueError(f"unknown trace op {event.op!r}")
    return read, written
