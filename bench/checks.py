"""Output checks for benchmark ops.

Each check returns ``(problems, values)``: a list of broken invariants (empty
when the output is correct) and the values worth comparing against the
recorded reference.  The invariants hold on any seed; the reference values
apply to the default seed only (see ``compare_reference``).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

ETA_SUM_TOL = 1e-12  # fit sidecar: eta rows sum to one
PREDICT_ETA_SUM_TOL = 1e-10  # prediction CSV, as the README promises
ORDER_TOL = 1e-12  # slack for iAUC against the per-horizon AUC range


def digest_files(paths) -> str:
    """One hash over the bytes of several files (directories recursively)."""
    h = hashlib.sha256()
    for path in paths:
        files = (
            sorted(os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
            if os.path.isdir(path)
            else [path]
        )
        for name in files:
            h.update(os.path.basename(name).encode())
            with open(name, "rb") as handle:
                h.update(handle.read())
    return h.hexdigest()


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def check_dataset(path, n):
    header, rows = _read_csv(path)
    problems = []
    if header[:2] != ["time", "status"]:
        problems.append(f"dataset header {header[:2]}")
    if len(rows) != n:
        problems.append(f"dataset has {len(rows)} rows, expected {n}")
    if any(not float(r[0]) > 0 for r in rows):
        problems.append("dataset has a non-positive time")
    if any(r[1] not in ("0", "1") for r in rows):
        problems.append("dataset has a status other than 0/1")
    return problems, {}


def check_fit(fit_path, eta_path):
    with open(fit_path, encoding="utf-8") as handle:
        fit = json.load(handle)
    problems = []
    if fit.get("converged") is not True:
        problems.append("fit did not converge")
    loglik = fit.get("final_loglik")
    if not isinstance(loglik, float) or not math.isfinite(loglik):
        problems.append(f"final_loglik is {loglik!r}")
    _, rows = _read_csv(eta_path)
    worst = max(abs(sum(float(v) for v in r[:-1]) - 1.0) for r in rows)
    if worst > ETA_SUM_TOL:
        problems.append(f"eta row sums off by {worst:.3g} (> {ETA_SUM_TOL:g})")
    return problems, {"final_loglik": loglik, "n_iters": fit.get("n_iters")}


def check_predict(path, n, horizons, n_groups):
    header, rows = _read_csv(path)
    problems = []
    h = len(horizons)
    if len(rows) != n or len(header) != 1 + h + h * n_groups:
        problems.append(f"prediction shape {len(rows)}x{len(header)}")
        return problems, {}
    for i, row in enumerate(rows):
        values = [float(v) for v in row]
        expected, surv = values[0], values[1 : 1 + h]
        if not (expected > 0 and math.isfinite(expected)):
            problems.append(f"row {i}: expected time {expected!r}")
        if any(not 0.0 <= s <= 1.0 for s in surv):
            problems.append(f"row {i}: survival outside [0, 1]")
        if any(b > a for a, b in zip(surv, surv[1:])):
            problems.append(f"row {i}: survival increases across horizons")
        for k in range(h):
            etas = values[1 + h + k * n_groups : 1 + h + (k + 1) * n_groups]
            if abs(sum(etas) - 1.0) > PREDICT_ETA_SUM_TOL:
                problems.append(f"row {i}: eta at horizon {k} does not sum to 1")
        if len(problems) > 5:
            break
    return problems, {}


def check_aucs(aucs, iauc):
    """AUCs in [0, 1], and iAUC between the smallest and largest of them."""
    problems = []
    if any(not 0.0 <= a <= 1.0 for a in aucs):
        problems.append("an AUC lies outside [0, 1]")
    if iauc is None or not min(aucs) - ORDER_TOL <= iauc <= max(aucs) + ORDER_TOL:
        problems.append(f"iAUC {iauc!r} outside the per-horizon AUC range")
    return problems


def check_report(report_path, rocdir):
    with open(report_path, encoding="utf-8") as handle:
        report = json.load(handle)
    aucs = report.get("auc_by_horizon") or {}
    problems = []
    if not aucs:
        return ["report has no AUCs"], {}
    c_index = report.get("c_index")
    if not isinstance(c_index, float) or not 0.0 <= c_index <= 1.0:
        problems.append(f"c_index {c_index!r}")
    problems += check_aucs(list(aucs.values()), report.get("iauc"))
    for key, auc in aucs.items():
        roc = os.path.join(rocdir, f"roc_{key}.json")
        if not os.path.exists(roc):
            problems.append(f"missing {os.path.basename(roc)}")
            continue
        with open(roc, encoding="utf-8") as handle:
            if json.load(handle).get("auc") != auc:
                problems.append(f"roc_{key}.json disagrees with the report")
    values = {"c_index": c_index, "iauc": report.get("iauc"), "auc_by_horizon": aucs}
    return problems, values


# -- library evaluation (evaluate-5k) -----------------------------------------


def check_markers(markers, previous):
    """One-minus-survival markers: in [0, 1] and not below the previous horizon's."""
    problems = []
    if markers.min() < 0.0 or markers.max() > 1.0:
        problems.append("marker outside [0, 1]")
    if previous is not None and (markers < previous).any():
        problems.append("marker decreases with the horizon")
    return problems


def check_unit_interval(name, value):
    if not isinstance(value, float) or not 0.0 <= value <= 1.0:
        return [f"{name} {value!r} outside [0, 1]"]
    return []


def check_roc(curve):
    problems = check_unit_interval("AUC", curve.auc)
    if curve.fpr[0] != 0.0 or curve.tpr[0] != 0.0 or abs(curve.fpr[-1] - 1.0) > 1e-12:
        problems.append(f"ROC at {curve.horizon:g} does not span (0,0) to (1,1)")
    return problems


# -- reference ------------------------------------------------------------------


def compare_reference(actual, recorded, tolerance):
    """Problems where ``actual`` strays from ``recorded`` (nested dicts).

    Keys named ``final_loglik`` use ``tolerance["loglik_abs"]``; every other
    number uses ``tolerance["metric_abs"]``.
    """
    problems = []

    def walk(a, r, path):
        if isinstance(r, dict):
            if not isinstance(a, dict) or set(a) != set(r):
                problems.append(f"{path}: keys {sorted(a) if isinstance(a, dict) else a!r}")
                return
            for key in r:
                walk(a[key], r[key], f"{path}.{key}" if path else key)
        else:
            tol = tolerance["loglik_abs" if path.endswith("final_loglik") else "metric_abs"]
            if not isinstance(a, (int, float)) or abs(a - r) > tol:
                problems.append(f"{path}: {a!r} vs recorded {r!r} (tolerance {tol:g})")

    walk(actual, recorded, "")
    return problems
