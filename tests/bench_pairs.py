"""Paired benchmark runs of two qstar checkouts.

    python tests/bench_pairs.py PARENT_ROOT CHANGE_ROOT --workload W --pairs N --seconds S

Pair i runs ``perfbench/run.py --workload W --seed i --seconds S --trace 0``
in PARENT_ROOT and then in CHANGE_ROOT, each with its own ``perfbench/``
and ``src/``, for i = 1..N, so the runs alternate parent, change, parent,
... and both sides of a pair share a seed. Each run's end-to-end metrics
are read from the last line of its output.

For each end-to-end metric of ``BENCHMARK.json`` it prints the parent's
median and quartiles, the distance between them (IQR), the change's median,
the change of the medians relative to the parent's, and the number of pairs
in which the change reads better (ties count for neither side); then the
runs that were not correct or had failed jobs. A gain shows when the change
wins at least nine tenths of the pairs and its median differs from the
parent's by more than the parent's IQR. It exits 1 when a run fails.

run.py writes its inputs and records to ``.perfbench_out/`` in the root it
runs in. This script reads ``perfbench/`` and writes nothing there: every
run has ``PYTHONDONTWRITEBYTECODE=1``, so no interpreter writes bytecode
(``setup_s`` then includes compiling ``qstar``, on both sides alike).
Pytest does not collect it; ``test_fixture_scripts.py`` byte-compiles it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def run(root: Path, workload: str, seed: int, seconds: int) -> dict:
    """The result line of one run.py run in ``root``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{root}: run.py seed {seed} exited with {proc.returncode}")
    return json.loads(lines[-1])


def summary(metrics: list[dict], parent: list[dict], change: list[dict]) -> list[str]:
    """One line per metric: parent median, quartiles and IQR, change
    median, relative change of the medians and wins of the change."""
    lines = [f"{'metric':<16}{'parent median':>16}{'parent q1..q3':>26}{'IQR':>12}"
             f"{'change median':>16}{'change':>10}{'wins':>8}"]
    for m in metrics:
        name, sign = m["name"], 1.0 if m["better"] == "lower" else -1.0
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        q1, _, q3 = statistics.quantiles(p, n=4)
        p50, c50 = statistics.median(p), statistics.median(c)
        wins = sum(sign * (y - x) < 0 for x, y in zip(p, c))
        rel = f"{(c50 - p50) / p50:+.1%}" if p50 else "n/a"
        lines.append(f"{name:<16}{p50:>16.5g}{f'{q1:.5g}..{q3:.5g}':>26}{q3 - q1:>12.4g}"
                     f"{c50:>16.5g}{rel:>10}{f'{wins}/{len(p)}':>8}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("parent", type=Path, help="root of the parent checkout")
    p.add_argument("change", type=Path, help="root of the changed checkout")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2 for quartiles")
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]

    runs = {"parent": [], "change": []}
    for seed in range(1, args.pairs + 1):
        for side in runs:
            result = run(getattr(args, side), args.workload, seed, args.seconds)
            runs[side].append(result)
            values = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.5g}"
                              for m in metrics)
            print(f"seed {seed} {side}: {values}", flush=True)

    print(f"== {args.workload}: {args.pairs} pairs of {args.seconds} s runs, parent first")
    print("\n".join(summary(metrics, runs["parent"], runs["change"])))
    for side, results in runs.items():
        for seed, r in enumerate(results, 1):
            if not r["correct"] or r["failed"]:
                print(f"{side} seed {seed}: correct={r['correct']} "
                      f"failed={r['failed']} of {r['attempted']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
