"""Benchmark child process.

``python3 bench/harness.py workload ...`` runs one workload's timed loop in
this process and writes a JSON summary; ``python3 bench/harness.py probe ...``
runs the known-defect probe.  ``bench/run.py`` starts both, so that peak
memory belongs to the workload alone and the probe gets a fresh logging
configuration.  Only the package's public entry points are called:
``competing_weibull.cli.main`` and the public functions of its modules.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import time
import zlib

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
from tracing import Tracer, summarize  # noqa: E402

LAMBDAS = ["--lambda1", "2", "--lambda2", "1"]
PREDICT_AT = [0.5, 1.0, 2.0]

# Dataset label -> (built-in example, censoring level, rows per size).
DATASETS = {
    "ex2": (2, 0.2, {"full": 1500, "tiny": 150}),
    "ex1": (1, 0.1, {"full": 1000, "tiny": 200}),
    "ex3": (3, 0.3, {"full": 1500, "tiny": 300}),
    "ex2_15k": (2, 0.2, {"full": 15000, "tiny": 600}),
    "ex2_5k": (2, 0.2, {"full": 5000, "tiny": 400}),
}
FIT_LABELS = ("ex2", "ex1", "ex3", "ex2_15k")
STAGES = ("simulate", "fit", "predict", "evaluate")
REFERENCE_KEYS = ("final_loglik", "c_index", "iauc", "auc_by_horizon", "auc")


def data_seed(seed: int, label: str, key: int) -> int:
    """Dataset seed for input set ``key`` of a run rooted at ``seed``."""
    import numpy as np

    state = np.random.SeedSequence([seed % 2**64, zlib.crc32(label.encode()), key])
    return int(state.generate_state(1)[0])


def _check_package():
    import competing_weibull

    if not os.path.abspath(competing_weibull.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"competing_weibull imported from {competing_weibull.__file__}, not {SRC}")


class OpFailed(Exception):
    pass


class Runner:
    """Runs ops, times them, checks their outputs and counts failures.

    An op is one CLI command or one library call.  It fails on a non-zero
    exit, an exception, a broken output invariant, a departure from the
    recorded reference, or output bytes that differ from an earlier pass on
    the same inputs.
    """

    def __init__(self, reference: dict | None, tolerance: dict | None, tamper=None):
        self.reference = reference or {}
        self.tolerance = tolerance
        self.tamper = tamper
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[tuple[int, str], str] = {}
        self.tracer: Tracer | None = None
        self.op_id = 0
        self.input_key = 0
        self.record: dict = {}

    def begin_pass(self, input_key: int, traced: bool) -> None:
        self.input_key = input_key
        self.record = {
            "key": input_key,
            "traced": traced,
            "total_s": 0.0,
            "stages": dict.fromkeys(STAGES, 0.0),
            "values": {},
            "fits": {},
        }
        self.tracer = Tracer() if traced else None
        if self.tracer is not None:
            self.tracer.install()

    def end_pass(self) -> dict:
        if self.tracer is not None:
            self.tracer.uninstall()
            self.record["layers"], self.record["self_sum_err_s"] = layer_metrics(
                self.tracer, self.record["fits"]
            )
            self.tracer = None
        return self.record

    def op(self, key, stage, span, call, check, outputs=(), digest=None):
        """Run ``call`` as one timed op, then ``check`` its result untimed."""
        self.attempted += 1
        self.op_id += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.op = self.op_id
            index = tracer.enter(span)
        start = time.perf_counter()
        result, problems = None, []
        try:
            result = call()
        except (Exception, SystemExit) as exc:  # an op failure, counted below
            problems.append(f"{type(exc).__name__}: {exc}")
        finally:
            duration = time.perf_counter() - start
            if tracer is not None:
                tracer.exit(index)
                tracer.op = None
        self.record["total_s"] += duration
        self.record["stages"][stage] += duration

        values = {}
        if not problems:
            if self.tamper is not None:
                self.tamper(key, outputs)
            try:
                problems, values = check(result)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                problems = [f"output check raised {type(exc).__name__}: {exc}"]
        kept = {k: v for k, v in values.items() if k in REFERENCE_KEYS}
        recorded = self.reference.get(key) if self.input_key == 0 else None
        if not problems and recorded is not None:
            problems += checks.compare_reference(kept, recorded, self.tolerance)
        if not problems:
            out_digest = checks.digest_files(outputs) if outputs else digest(result)
            first = self.digests.setdefault((self.input_key, key), out_digest)
            if first != out_digest:
                problems.append("output bytes differ from an earlier pass on the same inputs")
        self.record["values"][key] = kept
        if "n_iters" in values:
            self.record["fits"][key.split(":")[-1]] = (self.op_id, values["n_iters"])
        if problems:
            self.failed += 1
            self.failures.append(f"pass {self.input_key} {key}: " + "; ".join(problems[:3]))
        return result

    def cli(self, key, stage, argv, check, outputs):
        from competing_weibull import cli

        def call():
            code = cli.main([str(a) for a in argv])
            if code != 0:
                raise OpFailed(f"exit code {code}")
            return code

        return self.op(key, stage, f"cli.{argv[0]}", call, lambda _: check(), outputs)

    def lib(self, key, module, name, args, kwargs, check, digest):
        def call():
            return getattr(module, name)(*args, **kwargs)

        return self.op(key, "evaluate", f"lib.{name}", call, check, digest=digest)


# -- inputs ----------------------------------------------------------------------


def write_inputs(workdir: str, label: str, size: str) -> dict:
    """Scenario and spec JSON for a dataset label; written once per run."""
    from competing_weibull import io as formats
    from competing_weibull.simulation import ScenarioSpec, builtin_scenario

    example, censoring, rows = DATASETS[label]
    base = builtin_scenario(example, censoring)
    spec_path = os.path.join(workdir, f"{label}.spec.json")
    groups = [
        {"covariates": [f"x{j + 1}" for j in g.covariate_indices]} for g in base.model.groups
    ]
    formats.atomic_write_text(spec_path, formats.canonical_json({"groups": groups}))
    n = rows[size]
    paths = {"spec": spec_path, "n": n, "groups": len(groups), "scenario": None,
             "example": example, "censoring": censoring}
    if n != base.n:
        scenario = ScenarioSpec(base.model, base.truth, n, base.target_censoring, 0)
        paths["scenario"] = os.path.join(workdir, f"{label}.scenario.json")
        formats.atomic_write_text(
            paths["scenario"], formats.canonical_json(formats.scenario_to_json(scenario))
        )
    return paths


def simulate_and_fit(run: Runner, d: str, label: str, inp: dict, seed: int):
    data = os.path.join(d, f"{label}.csv")
    fit = os.path.join(d, f"{label}.fit.json")
    eta = os.path.join(d, f"{label}.fit.eta.csv")
    source = (
        ["--scenario", inp["scenario"]]
        if inp["scenario"]
        else ["--example", inp["example"], "--censoring", inp["censoring"]]
    )
    seed_arg = ["--seed", data_seed(seed, label, run.input_key)]
    run.cli(
        f"simulate:{label}",
        "simulate",
        ["simulate", *source, *seed_arg, "--out", data],
        lambda: checks.check_dataset(data, inp["n"]),
        [data, os.path.join(d, f"{label}.truth.json")],
    )
    run.cli(
        f"fit:{label}",
        "fit",
        ["fit", "--data", data, "--spec", inp["spec"], *LAMBDAS, "--out", fit],
        lambda: checks.check_fit(fit, eta),
        [fit, eta],
    )
    return data, fit


# -- workloads -------------------------------------------------------------------


def pipeline_ex2(run: Runner, d: str, inputs: dict, seed: int, only=None):
    inp = inputs["ex2"]
    data, fit = simulate_and_fit(run, d, "ex2", inp, seed)
    pred = os.path.join(d, "pred.csv")
    report = os.path.join(d, "report.json")
    rocdir = os.path.join(d, "rocs")
    at = ",".join(f"{t:g}" for t in PREDICT_AT)
    run.cli(
        "predict",
        "predict",
        ["predict", "--fit", fit, "--data", data, "--at", at, "--out", pred],
        lambda: checks.check_predict(pred, inp["n"], PREDICT_AT, inp["groups"]),
        [pred],
    )
    run.cli(
        "evaluate",
        "evaluate",
        ["evaluate", "--fit", fit, "--data", data, "--out", report, "--rocdir", rocdir],
        lambda: checks.check_report(report, rocdir),
        [report, rocdir],
    )


def fit_scale(run: Runner, d: str, inputs: dict, seed: int, only=None):
    for label in only or ("ex1", "ex3", "ex2_15k"):
        simulate_and_fit(run, d, label, inputs[label], seed)


def _hash_value(value) -> str:
    import numpy as np

    h = hashlib.sha256()
    if hasattr(value, "fpr"):
        for part in (value.fpr, value.tpr, np.float64(value.auc)):
            h.update(np.asarray(part, dtype=float).tobytes())
    else:
        h.update(np.asarray(value, dtype=float).tobytes())
    return h.hexdigest()


def evaluate_5k(run: Runner, d: str, inputs: dict, seed: int, only=None):
    """Library evaluation of the true model on a held-out dataset."""
    from competing_weibull import metrics

    sim, scenario = inputs["heldout"]
    data = sim.data
    theta, spec = scenario.truth, scenario.model
    times, status = data.times, data.status

    grid = run.lib(
        "default_time_grid", metrics, "default_time_grid", (times, status), {},
        lambda g: ([] if len(g) >= 2 else ["grid has fewer than two horizons"], {}),
        _hash_value,
    )
    if grid is None:
        return
    markers = {}
    previous = None
    for k, t in enumerate(grid):
        t = float(t)
        markers[t] = run.lib(
            f"risk_markers:{k}", metrics, "risk_markers", (theta, spec, data.covariates),
            {"mode": "one_minus_survival", "horizon": t},
            lambda m, p=previous: (checks.check_markers(m, p), {}),
            _hash_value,
        )
        previous = markers[t]
    if any(m is None for m in markers.values()):
        return
    median_marker = markers[float(grid[len(grid) // 2])]
    for method in ("harrell", "ipcw"):
        run.lib(
            f"concordance_index:{method}", metrics, "concordance_index",
            (median_marker, times, status), {"method": method},
            lambda c: (checks.check_unit_interval("c-index", c), {"c_index": c}),
            _hash_value,
        )
    aucs = []
    for k, t in enumerate(markers):
        curve = run.lib(
            f"time_dependent_roc:{k}", metrics, "time_dependent_roc",
            (markers[t], times, status, t), {},
            lambda c: (checks.check_roc(c), {"auc": c.auc}),
            _hash_value,
        )
        if curve is not None:
            aucs.append(curve.auc)
    run.lib(
        "integrated_auc", metrics, "integrated_auc",
        (lambda t: markers[t], times, status), {"grid": list(markers)},
        lambda v: (checks.check_aucs(aucs, v), {"iauc": v}),
        _hash_value,
    )


# Workload -> (function, dataset labels, fresh inputs on every pass, replay).
# A workload that draws new datasets on every pass checks determinism by
# replaying the ``replay`` datasets of its first pass after the timed loop.
WORKLOADS = {
    "pipeline-ex2": (pipeline_ex2, ("ex2",), False, None),
    "fit-scale": (fit_scale, ("ex1", "ex3", "ex2_15k"), True, ("ex3",)),
    "evaluate-5k": (evaluate_5k, ("ex2_5k",), False, None),
}


def prepare(workload: str, workdir: str, size: str, seed: int) -> dict:
    labels = WORKLOADS[workload][1]
    if workload != "evaluate-5k":
        return {label: write_inputs(workdir, label, size) for label in labels}
    from competing_weibull.simulation import ScenarioSpec, builtin_scenario, generate

    example, censoring, rows = DATASETS["ex2_5k"]
    base = builtin_scenario(example, censoring)
    scenario = ScenarioSpec(
        base.model, base.truth, rows[size], censoring, data_seed(seed, "ex2_5k", 0)
    )
    return {"heldout": (generate(scenario), scenario)}


# -- per-layer metrics -----------------------------------------------------------


def layer_metrics(tracer: Tracer, fits: dict):
    calls, incl, self_t, child = summarize(tracer.spans)

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    m = {f"cli.{c}.self_s": self_t.get(f"cli.{c}", 0.0) for c in STAGES}
    for name in ("read_dataset_csv", "write_dataset_csv", "atomic_write_text"):
        m[f"io.{name}_s"] = incl.get(f"io.{name}", 0.0)
    m["io.rows_read"] = tracer.counters["io.rows_read"]
    m["io.bytes_written"] = tracer.counters["io.bytes_written"]
    m["simulation.generate_s"] = incl.get("simulation.generate", 0.0)
    m["estimation.fit_em_s"] = incl.get("estimation.fit_em", 0.0)
    m["estimation.fit_em.self_s"] = self_t.get("estimation.fit_em", 0.0)
    for name in ("e_step", "initialize_theta", "standard_errors"):
        m[f"estimation.{name}_s"] = incl.get(f"estimation.{name}", 0.0)
    m["estimation.e_step_calls"] = calls.get("estimation.e_step", 0)
    for label in FIT_LABELS:
        op_id, iters = fits.get(label, (None, 0))
        em = 0.0
        for name, start, end, parent, op in tracer.spans:
            if op == op_id and name == "estimation.fit_em":
                em += end - start
            elif op == op_id and name in (
                "estimation.initialize_theta",
                "estimation.standard_errors",
            ):
                em -= end - start
        m[f"estimation.em_iters.{label}"] = iters or 0
        m[f"estimation.em_iter_ms.{label}"] = ratio(em, iters, 1e3)
    for name in ("expected_survival_time", "survival", "winning_probability"):
        m[f"model.{name}_s"] = incl.get(f"model.{name}", 0.0)
        m[f"model.{name}_calls"] = calls.get(f"model.{name}", 0)
    m["model.expected_time_us_per_row"] = ratio(
        m["model.expected_survival_time_s"], m["model.expected_survival_time_calls"], 1e6
    )
    m["metrics.risk_markers.self_s"] = self_t.get("metrics.risk_markers", 0.0)
    for method in ("harrell", "ipcw"):
        m[f"metrics.concordance_index.{method}_s"] = incl.get(
            f"metrics.concordance_index.{method}", 0.0
        )
    m["metrics.time_dependent_roc_s"] = incl.get("metrics.time_dependent_roc", 0.0)
    m["metrics.time_dependent_roc_calls"] = calls.get("metrics.time_dependent_roc", 0)
    m["metrics.roc_calls_per_horizon"] = ratio(
        m["metrics.time_dependent_roc_calls"], len(tracer.roc_horizons)
    )
    m["metrics.kaplan_meier_calls"] = calls.get("metrics.kaplan_meier", 0)
    m["metrics.integrated_auc.self_s"] = self_t.get("metrics.integrated_auc", 0.0)

    # Self times within an op add up to the op's wall time.
    root_wall: dict[int, float] = {}
    op_self: dict[int, float] = {}
    for index, (name, start, end, parent, op) in enumerate(tracer.spans):
        op_self[op] = op_self.get(op, 0.0) + (end - start - child[index])
        if parent < 0:
            root_wall[op] = root_wall.get(op, 0.0) + (end - start)
    err = max((abs(op_self[op] - wall) for op, wall in root_wall.items()), default=0.0)
    return m, err


# -- entry points ----------------------------------------------------------------


def environment() -> dict:
    import ctypes
    import glob
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def run_workload(
    workload, seed, seconds, trace, size, workdir, reference=None, tolerance=None, tamper=None
):
    """The timed loop; returns a JSON-ready summary."""
    from competing_weibull import cli  # noqa: F401  (import cost stays out of the loop)

    func, _, fresh_inputs, replay = WORKLOADS[workload]
    inputs = prepare(workload, workdir, size, seed)
    run = Runner(reference, tolerance, tamper)
    passes = []

    def one_pass(key, traced, only=None):
        d = os.path.join(workdir, f"pass{len(passes)}")
        os.makedirs(d)
        run.begin_pass(key, traced)
        try:
            func(run, d, inputs, seed, only)
        finally:
            passes.append(run.end_pass())
            shutil.rmtree(d, ignore_errors=True)

    # Passes come in rounds: one untraced pass, plus a traced pass on the same
    # inputs when tracing.  Untraced runs make at least two rounds, so that
    # repeated inputs are seen twice; another round starts only when a round
    # of average length still fits in ``seconds``.
    min_rounds = 1 if trace else 2
    start = time.perf_counter()
    key = rounds = 0
    while True:
        one_pass(key, False)
        if trace:
            one_pass(key, True)
        rounds += 1
        if fresh_inputs:
            key += 1
        elapsed = time.perf_counter() - start
        if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
            break
    timed = len(passes)
    if replay and not trace:
        one_pass(0, False, only=replay)
    return {
        "passes": passes[:timed],
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
    }


def probe(workdir: str) -> dict:
    """Known defects, report-only: run in a fresh process at log level info."""
    buffer = io.StringIO()
    results = {}
    with contextlib.redirect_stderr(buffer):
        from competing_weibull import cli

        inp = write_inputs(workdir, "ex2", "tiny")
        data = os.path.join(workdir, "probe.csv")
        fit = os.path.join(workdir, "probe.fit.json")
        setup = [
            ["simulate", "--scenario", inp["scenario"], "--seed", "1", "--out", data],
            # A short EM budget: the probe needs a fit file, not a converged fit.
            ["fit", "--data", data, "--spec", inp["spec"], "--max-iters", "20", "--out", fit],
        ]
        if any(cli.main(argv) != 0 for argv in setup):
            return {"error": "probe set-up failed: " + buffer.getvalue()[-300:]}
        from competing_weibull.io import read_dataset_csv

        dataset = read_dataset_csv(data)[0]
        events = sorted(dataset.times[dataset.status == 1])
        horizon = f"{events[len(events) // 2]:.6g}"
        cases = {
            "evaluate_one_minus_survival_marker": (
                ["--marker", "one_minus_survival"],
                lambda code, err: code == 2,
                "CLI evaluate --marker one_minus_survival passes no horizon and exits 2",
            ),
            "evaluate_single_horizon_info_log": (
                ["--horizons", horizon],
                lambda code, err: "--- Logging error ---" in err,
                "with one valid horizon, the info log formats iAUC None and prints "
                "'--- Logging error ---'",
            ),
        }
        for name, (extra, present, what) in cases.items():
            buffer.seek(0)
            buffer.truncate()
            argv = ["evaluate", "--fit", fit, "--data", data, *extra,
                    "--out", os.path.join(workdir, f"{name}.json")]
            code = cli.main(argv)
            err = buffer.getvalue()
            results[name] = {
                "defect": what,
                "present": bool(present(code, err)),
                "exit_code": code,
                "stderr_tail": err.strip().splitlines()[-1:] if err.strip() else [],
            }
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("workload", "probe"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    _check_package()
    if args.mode == "probe":
        result = probe(args.workdir)
    else:
        reference = tolerance = None
        with open(REFERENCE, encoding="utf-8") as handle:
            recorded = json.load(handle)
        if recorded["seed"] == args.seed and recorded["size"] == args.size:
            reference = recorded["workloads"].get(args.workload)
            tolerance = recorded["tolerance"]
        result = run_workload(
            args.workload, args.seed, args.seconds, args.trace, args.size, args.workdir,
            reference, tolerance,
        )
        result["env"] = environment()
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
