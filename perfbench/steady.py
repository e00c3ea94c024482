"""Steadiness check: do two sets of runs of the same code agree?

Usage (from the repository root)::

    python3 perfbench/steady.py --runs 10

Runs the benchmark command from ``BENCHMARK.json`` ``--runs`` times per set
and per workload, each run with another seed (set 1 takes seeds 1 to
``--runs``, set 2 the next ``--runs``), alternating between the two sets.  For every end-to-end metric on every workload it reports each set's
median and its spread (the distance between the first and third quartile
as a share of the median), and whether the two medians differ by no more
than the metric's bound, in either direction.  Spreads of every metric but ``setup_s`` must
stay within the bound too, and the share of failed operations must be the
same in both sets.  Exits 1 when anything disagrees.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900
FIRST_SEED = 1


def run_once(spec: dict, workload: str, seed: int) -> dict:
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {done.returncode}: "
            f"{done.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 (quartiles need two values)")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        sets: list[list[dict]] = [[], []]
        for index in range(args.runs):
            for which in (0, 1):
                seed = FIRST_SEED + index + which * args.runs
                result = run_once(spec, workload, seed)
                sets[which].append(result)
                print(
                    f"{workload} set {which + 1} seed {seed}: " + ", ".join(
                        f"{name}={value['value']:.4g}"
                        for name, value in result["metrics"].items()
                    ),
                    file=sys.stderr,
                )
        shares = [
            sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
            for runs in sets
        ]
        print(f"\n{workload}: failed share {shares[0]:.6g} / {shares[1]:.6g}")
        if shares[0] != shares[1] or not all(r["correct"] for s in sets for r in s):
            ok = False
            print("  DISAGREE: failed share or correctness differs")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            drift = worse_by(medians[0], medians[1], metric["better"])
            agree = abs(drift) <= bound and (
                name == "setup_s" or max(spreads) <= bound
            )
            ok = ok and agree
            print(
                f"  {name:14s} median {medians[0]:12.6g} / {medians[1]:12.6g}"
                f"  spread {spreads[0]:6.1%} / {spreads[1]:6.1%}"
                f"  worse by {drift:+6.1%}  bound {bound:.0%}"
                f"  {'ok' if agree else 'DISAGREE'}"
            )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
