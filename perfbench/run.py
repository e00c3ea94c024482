"""Benchmark command: end-to-end and per-layer numbers for one workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig6 --seed 1991 --seconds 25 --trace 0

``--trace 0`` repeats whole rounds of the workload for ``--seconds`` with no
instrumentation and reports the end-to-end metrics (medians over rounds,
timed in units of a fixed reference routine; host seconds go to stderr).
``--trace 1`` runs one plain round and one round under ``cProfile`` and
reports the per-layer metrics; both rounds must give identical simulated
results.  Either way every round is checked against computations made
outside the program (see ``checks.py``), and the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every check passed.

Everything runs in this one process, with no threads and no worker pool;
the only child processes are the set-up probes (a fresh interpreter that
imports the program and builds the inputs), each waited for in turn.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import pathlib
import pstats
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from layers import LAYERS, LayerProfile, Timer, reference_s

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("fig6", "alloc_frag", "trace_replay")
DEFAULT_SEED = 1991
#: Set-up probes per run; set-up time is their median.
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
#: The seven layers' self times must add up to the traced wall time within
#: this share.
ACCOUNTING_TOLERANCE = 0.05


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        type=float,
        metavar="STARTED",
        help="import the program, build the inputs, print the seconds since "
        "STARTED (a time.time() value) and exit",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def setup_seconds(workload: str, seed: int) -> float:
    """Median time from launching a fresh interpreter until it has imported
    the program and built the workload's inputs.

    The probe reports its own finish time against the launch time, so the
    figure does not depend on how promptly the parent notices its exit.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--setup-probe", repr(time.time()),
        ]
        probe = subprocess.run(
            command, cwd=ROOT, check=True, capture_output=True, text=True,
            timeout=SETUP_TIMEOUT_S,
        )
        times.append(float(probe.stdout.split()[-1]))
    return statistics.median(times)


class Tally:
    """Attempted and failed operations, and every problem seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add_round(self, workload, rnd, reference=None) -> None:
        """Check a round, compare it with ``reference``, count its points."""
        workload.check(rnd.points)
        for index, point in enumerate(rnd.points):
            if point.error is not None:
                point.problems.append(f"{point.label}: raised {point.error}")
            elif reference is not None:
                expected = reference.points[index].outcome
                if expected is not None and point.outcome != expected:
                    point.problems.append(
                        f"{point.label}: simulated result differs between "
                        "runs of the same inputs"
                    )
            self.attempted += point.attempted
            if point.problems:
                self.failed += point.attempted
                self.problems += point.problems
            else:
                self.failed += point.failed
                if point.failed:
                    self.problems.append(
                        f"{point.label}: {point.failed} operations failed"
                    )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seconds: float, scratch: str, tally: Tally) -> dict:
    """Whole rounds for ``seconds``; end-to-end medians over the rounds.

    Each round's wall time is divided by the reference routine's time,
    measured before and after the round, so the figures hold still while
    the host's speed drifts.  A round starts only if it can end in time,
    judged by the last round, so a run measures no longer than
    ``seconds`` (one round at least).
    """
    walls, relative, rates = [], [], []
    reference = None
    started = time.perf_counter()
    round_s = 0.0
    unit_before = reference_s()
    while not walls or time.perf_counter() - started + round_s <= seconds:
        round_started = time.perf_counter()
        gc.collect()
        rnd = workload.run_round(Timer(), scratch)
        unit_after = reference_s()
        unit = (unit_before + unit_after) / 2.0
        unit_before = unit_after
        tally.add_round(workload, rnd, reference)
        for point in rnd.points:
            point.detail = None  # release simulated systems between rounds
        if reference is None:
            reference = rnd
        walls.append(rnd.wall_s)
        relative.append(rnd.wall_s / unit)
        rates.append(rnd.ops / relative[-1])
        print(
            f"perfbench: round {len(walls)}: {rnd.wall_s:.3f} s, "
            f"{rnd.ops} operations, reference {unit * 1000:.1f} ms",
            file=sys.stderr,
        )
        round_s = time.perf_counter() - round_started
    print(
        f"perfbench: host time: median round {statistics.median(walls):.3f} s, "
        f"{rnd.ops / statistics.median(walls):.1f} operations/s",
        file=sys.stderr,
    )
    return {
        "wall_ref": (statistics.median(relative), "ref"),
        "fs_ops_per_ref": (statistics.median(rates), "1/ref"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def measure_layers(workload, scratch: str, tally: Tally, src_root: str) -> dict:
    """One plain round, one profiled round, then the layer counters."""
    gc.collect()
    plain = workload.run_round(Timer(), scratch)
    tally.add_round(workload, plain)
    gc.collect()
    profiler = cProfile.Profile()
    traced = workload.run_round(Timer(profiler), scratch)
    tally.add_round(workload, traced, plain)
    for point in traced.points:
        point.detail = None
    profile = LayerProfile(pstats.Stats(profiler), src_root)

    counters, extra_points = workload.layer_counters(plain, Timer())
    for point, expected in zip(extra_points, plain.points):
        if point.outcome != expected.outcome:
            point.problems.append(
                f"{point.label}: simulated result differs with the metrics "
                "registry attached"
            )
        tally.problems += point.problems
    accounted = profile.layers_s / traced.wall_s
    if abs(accounted - 1.0) > ACCOUNTING_TOLERANCE:
        tally.problems.append(
            f"layer self times add up to {profile.layers_s:.3f} s of "
            f"{traced.wall_s:.3f} s traced wall time"
        )

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (profile.self_s[layer], "s")
        metrics[f"{layer}.calls"] = (profile.calls[layer], "count")
    metrics["engine.events"] = (counters["engine.events"], "count")
    metrics["engine.events_per_s"] = (
        counters["engine.events"] / plain.wall_s, "1/s"
    )
    metrics["engine.sim_s_per_s"] = (
        counters["engine.sim_ms"] / 1000.0 / plain.wall_s, "sim_s/s"
    )
    metrics["disk.requests"] = (counters["disk.requests"], "count")
    metrics["disk.bytes_moved"] = (counters["disk.bytes_moved"], "bytes")
    metrics["disk.busy_ms"] = (counters["disk.busy_ms"], "sim_ms")
    metrics["disk.queue_wait_ms"] = (counters["disk.queue_wait_ms"], "sim_ms")
    metrics["alloc.requests"] = (counters["alloc.requests"], "count")
    metrics["alloc.failed_requests"] = (counters["alloc.failed_requests"], "count")
    metrics["fs.bytes_read"] = (counters["fs.bytes_read"], "bytes")
    metrics["fs.bytes_written"] = (counters["fs.bytes_written"], "bytes")
    metrics["workload.ops"] = (counters["workload.ops"], "count")
    metrics["workload.disk_full_events"] = (
        counters["workload.disk_full_events"], "count"
    )
    metrics["workload.governor_conversions"] = (
        counters["workload.governor_conversions"], "count"
    )
    metrics["core.populate_s"] = (counters["core.populate_s"], "s")
    metrics["trace.overhead_x"] = (traced.wall_s / plain.wall_s, "x")
    metrics["trace.accounted"] = (accounted, "ratio")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOAD_CLASSES

    workload_class = WORKLOAD_CLASSES[args.workload]
    if args.setup_probe is not None:
        workload_class(args.seed)
        print(time.time() - args.setup_probe)
        return 0

    # A terminated run still unwinds, so its scratch directory is removed
    # and a running set-up probe is killed and waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    scratch = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        setup_s = None if args.trace else setup_seconds(args.workload, args.seed)
        workload = workload_class(args.seed)
        workload.prepare()
        tally = Tally()
        if args.trace:
            metrics = measure_layers(workload, scratch, tally, str(SRC))
        else:
            metrics = measure(workload, args.seconds, scratch, tally)
            metrics["setup_s"] = (setup_s, "s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for problem in tally.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    correct = not tally.problems
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
