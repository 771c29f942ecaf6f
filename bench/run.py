"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload pipeline-ex2 --seed 1 --seconds 50 --trace 0

Run from the root of a checkout.  The workload runs in a child process
(``bench/harness.py``) so that peak memory is the workload's own; set-up
time is measured in fresh interpreters; the known-defect probe runs in one
more.  Detail (samples, environment, known defects, failures) goes to
standard output first; the last line is the result object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones, as listed in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

DEFAULT_SEED = 1
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150.0
IMPORT_CODE = (
    "import time; t = time.perf_counter(); import competing_weibull.cli; "
    "print(time.perf_counter() - t); print(competing_weibull.__file__)"
)


class BenchError(Exception):
    pass


def child_env(**extra) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("COMPETING_WEIBULL_LOG", None)
    env.update(extra)
    return env


def run_child(argv, deadline, env=None, capture=False):
    """Run a child to completion; returns (stdout, stderr, peak RSS in MB)."""
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=env or child_env(),
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=subprocess.PIPE if capture else None,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{argv[1:3]} timed out") from None
    # The child is reaped; its peak RSS is the largest of any waited-for child
    # so far, so children run in order: workload first, then the small ones.
    import resource

    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    if proc.returncode != 0:
        raise BenchError(f"{argv[1:3]} exited {proc.returncode}: {(err or '')[-500:]}")
    return out, err, rss_mb


def high_percentile(samples):
    """(percent, value) of the highest percentile with ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None, None
    pct = math.floor(100.0 * (n - 10) / n)
    ordered = sorted(samples)
    return pct, ordered[min(n - 1, max(0, math.ceil(pct / 100.0 * n) - 1))]


def describe(samples, unit):
    pct, value = high_percentile(samples)
    return {
        "median": statistics.median(samples),
        "p_high": value,
        "p_high_pct": pct,
        "n": len(samples),
        "unit": unit,
        "samples": samples,
    }


def commit_hash() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown (not a git checkout)"
    return lines[1]


def scipy_import_s(deadline) -> float:
    """Scipy's share of the package import, from ``-X importtime`` self times."""
    _, err, _ = run_child(
        [sys.executable, "-X", "importtime", "-c", "import competing_weibull.cli"],
        deadline,
        capture=True,
    )
    total_us = 0
    for line in err.splitlines():
        match = re.match(r"import time:\s+(\d+)\s+\|\s+\d+\s+\|\s*(\S+)", line)
        if match and re.match(r"scipy(\.|$)", match.group(2)):
            total_us += int(match.group(1))
    return total_us / 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="competing-weibull benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("pipeline-ex2", "fit-scale", "evaluate-5k"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small datasets, for the harness smoke test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "competing_weibull", "cli.py")):
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        report = measure(args, workdir, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    print(json.dumps(report["detail"], sort_keys=True))
    print(json.dumps(report["result"]))
    return 0


def measure(args, workdir, deadline) -> dict:
    out_path = os.path.join(workdir, "workload.json")
    harness = [sys.executable, os.path.join(BENCH_DIR, "harness.py")]
    wl_dir = os.path.join(workdir, "workload")
    os.makedirs(wl_dir)
    _, _, peak_rss_mb = run_child(
        harness + [
            "workload", "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--size", args.size,
            "--workdir", wl_dir, "--out", out_path,
        ],
        deadline,
    )
    with open(out_path, encoding="utf-8") as handle:
        wl = json.load(handle)

    setup = []
    for _ in range(SETUP_REPEATS):
        out, _, _ = run_child([sys.executable, "-c", IMPORT_CODE], deadline, capture=True)
        seconds, path = out.split()
        if not os.path.abspath(path).startswith(SRC + os.sep):
            raise BenchError(f"package imported from {path}, not {SRC}")
        setup.append(float(seconds))

    probe_dir = os.path.join(workdir, "probe")
    os.makedirs(probe_dir)
    probe_path = os.path.join(workdir, "probe.json")
    run_child(
        harness + ["probe", "--workdir", probe_dir, "--out", probe_path],
        deadline,
        env=child_env(COMPETING_WEIBULL_LOG="info"),
    )
    with open(probe_path, encoding="utf-8") as handle:
        known_defects = json.load(handle)

    timed = [p for p in wl["passes"] if not p["traced"]]
    traced = [p for p in wl["passes"] if p["traced"]]
    samples = {
        "total_s": describe([p["total_s"] for p in timed], "s"),
        "setup_s": describe(setup, "s"),
    }
    for stage in ("simulate", "fit", "predict", "evaluate"):
        samples[f"{stage}_s"] = describe([p["stages"][stage] for p in timed], "s")

    failures = list(wl["failures"])
    if args.trace:
        reported = {}
        for name in traced[0]["layers"]:
            reported[name] = statistics.median(p["layers"][name] for p in traced)
        for stage in ("simulate", "fit", "predict", "evaluate"):
            reported[f"{stage}_s"] = samples[f"{stage}_s"]["median"]
        reported["setup.scipy_import_s"] = scipy_import_s(deadline)
        overhead = [t["total_s"] - u["total_s"] for u, t in zip(timed, traced)]
        reported["trace.overhead_s"] = statistics.median(overhead)
        reported["trace.overhead_pct"] = 100.0 * reported["trace.overhead_s"] / samples[
            "total_s"]["median"]
        worst = max(p["self_sum_err_s"] for p in traced)
        if worst > 1e-6:
            failures.append(f"span self times miss the op wall time by {worst:.3g} s")
    else:
        reported = {
            "setup_s": samples["setup_s"]["median"],
            "total_s": samples["total_s"]["median"],
            "peak_rss_mb": peak_rss_mb,
        }
    metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in reported.items()}

    env = dict(wl["env"])
    env.update(
        nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)),
        machine=platform.machine(),
        commit=commit_hash(),
        seed=args.seed,
        size=args.size,
        seconds=args.seconds,
    )
    detail = {
        "workload": args.workload,
        "env": env,
        "samples": samples,
        "peak_rss_mb": peak_rss_mb,
        "known_defects": known_defects,
        "failures": failures,
        "values": timed[0]["values"],
        "em_iters": [{label: it for label, (_, it) in p["fits"].items()} for p in timed],
    }
    if traced:
        detail["trace"] = {
            "traced_total_s": [p["total_s"] for p in traced],
            "self_sum_max_err_s": max(p["self_sum_err_s"] for p in traced),
        }
    failed = wl["failed"] + (len(failures) - len(wl["failures"]))
    result = {
        "correct": not failures,
        "attempted": wl["attempted"],
        "failed": failed,
        "metrics": metrics,
    }
    return {"detail": detail, "result": result}


def unit_of(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ms") or ".em_iter_ms." in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_us_per_row"):
        return "us"
    if name == "io.bytes_written":
        return "bytes"
    if name.endswith("_per_horizon"):
        return "calls"
    if "em_iters" in name:
        return "iterations"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
