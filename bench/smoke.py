"""Smoke test for the benchmark harness; run from the root of a checkout:

    python3 bench/smoke.py

1. Runs every workload at the tiny size, untraced and traced, and checks that
   the result line carries exactly the metrics BENCHMARK.json names, each
   with its unit, and that every op passed.
2. Corrupts outputs on purpose (a fit JSON with an altered ``final_loglik``,
   a prediction with a survival above one) and checks that each is counted
   as a failed op.
3. Runs the benchmark in a directory holding only BENCHMARK.json and the
   benchmark's files, where it must fail without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import harness  # noqa: E402


def expect(ok: bool, message: str, problems: list[str]) -> None:
    print(("ok    " if ok else "FAIL  ") + message)
    if not ok:
        problems.append(message)


def check_metrics(problems: list[str]) -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    # Every workload the harness defines, including the ones BENCHMARK.json leaves out.
    for workload in harness.WORKLOADS:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            out = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            label = f"{workload} --trace {trace}"
            if out.returncode != 0:
                expect(False, f"{label}: exit {out.returncode}: {out.stderr[-300:]}", problems)
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label}: result keys", problems)
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: {result['attempted']} ops, {result['failed']} failed", problems)
            wanted = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted, f"{label}: metric names and units match BENCHMARK.json "
                   f"(missing {sorted(set(wanted) - set(got))}, extra "
                   f"{sorted(set(got) - set(wanted))})", problems)
            finite = all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                         for v in result["metrics"].values())
            expect(finite, f"{label}: every value is a finite number", problems)


def once(tamper):
    """Apply ``tamper`` to the first op it matches only."""
    done = []

    def apply(key, outputs):
        if not done and tamper(key, outputs):
            done.append(key)

    return apply


def check_corruption(problems: list[str]) -> None:
    def alter_loglik(key, outputs):
        if not key.startswith("fit:"):
            return False
        with open(outputs[0], encoding="utf-8") as handle:
            fit = json.load(handle)
        fit["final_loglik"] += 1.0
        with open(outputs[0], "w", encoding="utf-8") as handle:
            json.dump(fit, handle)
        return True

    def survival_above_one(key, outputs):
        if key != "predict":
            return False
        with open(outputs[0], encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        cells = lines[1].split(",")
        cells[1] = "1.5"
        lines[1] = ",".join(cells)
        with open(outputs[0], "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        return True

    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_work"))
    try:
        def run(name, **kwargs):
            d = os.path.join(workdir, name)
            os.makedirs(d)
            return harness.run_workload("pipeline-ex2", 1, 0.0, 0, "tiny", d, **kwargs)

        clean = run("clean")
        expect(clean["failed"] == 0, "clean tiny pipeline passes every check", problems)
        recorded = clean["passes"][0]["values"]
        tolerance = {"loglik_abs": 1e-3, "metric_abs": 1e-4}
        for name, tamper, needle in (
            ("loglik", alter_loglik, "final_loglik"),
            ("survival", survival_above_one, "survival outside [0, 1]"),
        ):
            bad = run(name, reference=recorded, tolerance=tolerance, tamper=once(tamper))
            hit = any(needle in f for f in bad["failures"])
            expect(bad["failed"] == 1 and hit,
                   f"corrupted {name} counted as one failed op: {bad['failures']}", problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_bare_directory(problems: list[str]) -> None:
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    bare = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_work"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        out = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "pipeline-ex2", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, env=env,
        )
        printed = out.stdout.strip().splitlines()
        expect(out.returncode != 0 and not printed,
               f"without the package source: exit {out.returncode}, no result printed",
               problems)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    problems: list[str] = []
    check_metrics(problems)
    check_corruption(problems)
    check_bare_directory(problems)
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
