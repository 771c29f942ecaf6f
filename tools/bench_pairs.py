"""Paired benchmark runs of a git revision against the working tree.

    python tools/bench_pairs.py REF --workload fit-scale --pairs 10 --seconds 20

Snapshots REF with ``git archive`` (as ``tools/same_outputs.py`` does) and
runs ``python3 bench/run.py --workload W --seconds T`` on that snapshot and
on the working tree (uncommitted edits included), N times each.  The side
that runs first alternates from pair to pair.  Each run's last output line
is its result object; every run's ``correct`` and ``failed`` are printed,
then, for each end-to-end metric of ``BENCHMARK.json``, the q1/median/q3 of
each side, the IQR of REF's runs as a share of their median, and in how
many pairs the working tree did better.  Exits 0 when every run was correct
with no failed operation and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from same_outputs import ROOT, snapshot


def bench_run(checkout: Path, workload: str, seconds: float) -> dict:
    """The result object of one ``bench/run.py`` run in ``checkout``."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"bench/run.py in {checkout} exited {done.returncode}: {done.stderr[-500:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="git revision to compare the working tree with")
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10, help="number of paired runs (at least 2)")
    parser.add_argument("--seconds", type=float, default=50.0, help="bench/run.py --seconds")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    runs: dict[str, list[dict]] = {"ref": [], "tree": []}
    with tempfile.TemporaryDirectory() as tmp:
        snapshot(args.ref, Path(tmp))
        checkouts = {"ref": Path(tmp), "tree": ROOT}
        for pair in range(args.pairs):
            for side in ("ref", "tree") if pair % 2 == 0 else ("tree", "ref"):
                result = bench_run(checkouts[side], args.workload, args.seconds)
                runs[side].append(result)
                print(f"pair {pair + 1} {side}: correct {result['correct']}, failed "
                      f"{result['failed']} of {result['attempted']}", flush=True)

    print(f"\n{args.workload}, {args.pairs} pairs, --seconds {args.seconds:g}: "
          f"{args.ref} against the working tree")
    print(f"{'metric':<12} {'ref q1/median/q3':>26} {'tree q1/median/q3':>26} "
          f"{'ref IQR/median':>15} {'tree better':>12}")
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        ref, tree = ([run["metrics"][name]["value"] for run in runs[side]] for side in ("ref", "tree"))
        (q1, median, q3), tree_q = (statistics.quantiles(v, n=4, method="inclusive") for v in (ref, tree))
        wins = sum((t < r) if lower else (t > r) for r, t in zip(ref, tree))
        print(f"{name:<12} {'/'.join(f'{q:.4g}' for q in (q1, median, q3)):>26} "
              f"{'/'.join(f'{q:.4g}' for q in tree_q):>26} {(q3 - q1) / median:>15.1%} "
              f"{f'{wins}/{args.pairs}':>12}")
    clean = all(run["correct"] and not run["failed"] for side in runs.values() for run in side)
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
