"""File formats shared by the command-line tools.

Rectangular data travels as RFC-4180 CSV (UTF-8, ``.`` decimal, header row);
structured configuration and results travel as JSON with a
``format_version`` field.  All writers are atomic (temp file + rename) and
all JSON is serialized canonically (sorted keys, two-space indent, trailing
newline) so that reading a file and re-serializing it is byte-identical.
"""

from __future__ import annotations

import csv
import io as _io
import json
import os
import tempfile
from typing import Sequence

import numpy as np

from .errors import ConfigError, SpecError
from .model import Dataset, GroupParams, GroupSpec, ModelSpec, Theta
from .simulation import ScenarioSpec

FORMAT_VERSION = 1

__all__ = [
    "FORMAT_VERSION",
    "atomic_write_text",
    "canonical_json",
    "write_csv",
    "read_dataset_csv",
    "write_dataset_csv",
    "scenario_from_json",
    "scenario_to_json",
    "model_spec_from_json",
    "fit_to_json",
    "fit_from_json",
]


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def atomic_write_text(path: str, text: str) -> None:
    """Write a file all-or-nothing: no partial output on failure."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_csv(path: str, header: Sequence[str], rows) -> None:
    """Write a CSV atomically with ``\n`` line ends.

    Rows hold Python scalars (use ``ndarray.tolist()``): floats are written
    with ``str``, which for a Python float is its shortest round-trip
    ``repr``, so the values read back exactly.
    """
    buffer = _io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write_text(path, buffer.getvalue())


def _require_keys(obj: dict, required: set[str], optional: set[str], what: str):
    keys = set(obj)
    missing = required - keys
    unknown = keys - required - optional
    if missing:
        raise ConfigError(f"{what}: missing keys {sorted(missing)}")
    if unknown:
        raise ConfigError(f"{what}: unknown keys {sorted(unknown)}")


def _objects(value, what: str) -> list:
    """``value`` if it is a list of JSON objects; ConfigError otherwise."""
    if not (isinstance(value, list) and all(isinstance(entry, dict) for entry in value)):
        raise ConfigError(f"{what} must be a list of objects")
    return value


def _integer(value, what: str) -> int:
    """``value`` if it is a JSON integer (not a bool); ConfigError otherwise."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return value


def _number(value, what: str) -> float:
    """``value`` as a float if it is a JSON number (not a bool); ConfigError otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    return float(value)


def _list(value, what: str) -> list:
    """``value`` if it is a JSON list; ConfigError otherwise."""
    if not isinstance(value, list):
        raise ConfigError(f"{what}: expected a list, got {value!r}")
    return value


def _check_version(obj: dict, what: str):
    version = obj.get("format_version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ConfigError(f"{what}: unsupported format_version {version}")


# ---------------------------------------------------------------------------
# Dataset CSV: header `time,status,x1,...,xp`
# ---------------------------------------------------------------------------


def write_dataset_csv(path: str, data: Dataset, covariate_names: Sequence[str] | None = None):
    if covariate_names is None:
        covariate_names = [f"x{j + 1}" for j in range(data.p)]
    if len(covariate_names) != data.p:
        raise SpecError("covariate_names length must match the covariate count")
    rows = zip(data.times.tolist(), data.status.tolist(), data.covariates.tolist())
    write_csv(path, ["time", "status", *covariate_names], [[t, s, *x] for t, s, x in rows])


def read_dataset_csv(path: str) -> tuple[Dataset, list[str]]:
    """Read a dataset CSV; returns the data and the covariate column names."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            return _parse_dataset_csv(path, csv.reader(handle))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _parse_dataset_csv(path: str, reader) -> tuple[Dataset, list[str]]:
    try:
        header = next(reader)
    except StopIteration:
        raise ConfigError(f"{path}: empty file") from None
    if len(header) < 2 or header[0] != "time" or header[1] != "status":
        raise ConfigError(
            f"{path}: header must start with 'time,status', got {header[:2]}"
        )
    names = header[2:]
    times, status, rows = [], [], []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise ConfigError(
                f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
            )
        try:
            times.append(float(row[0]))
            event = float(row[1])
            rows.append([float(v) for v in row[2:]])
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
        if event not in (0.0, 1.0):
            raise ConfigError(f"{path}:{lineno}: status must be 0 or 1, got {row[1]!r}")
        status.append(int(event))
    if not times:
        raise ConfigError(f"{path}: no data rows")
    try:
        data = Dataset(np.asarray(times), np.asarray(status), np.asarray(rows))
    except SpecError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return data, names


# ---------------------------------------------------------------------------
# Scenario JSON
# ---------------------------------------------------------------------------


def scenario_to_json(scenario: ScenarioSpec) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "groups": [
            {
                "indices": list(group.covariate_indices),
                "alpha": params.alpha,
                "beta": [float(b) for b in params.beta],
                "sigma": params.sigma,
            }
            for group, params in zip(scenario.model.groups, scenario.truth.groups)
        ],
        "n": scenario.n,
        "p": scenario.model.p,
        "target_censoring": scenario.target_censoring,
        "seed": scenario.seed,
    }


def scenario_from_json(obj: dict) -> ScenarioSpec:
    if not isinstance(obj, dict):
        raise ConfigError("scenario JSON must be an object")
    _check_version(obj, "scenario")
    _require_keys(
        obj,
        {"groups", "n", "target_censoring", "seed"},
        {"format_version", "p"},
        "scenario",
    )
    groups, params = [], []
    for g, entry in enumerate(_objects(obj["groups"], "scenario groups")):
        what = f"scenario group {g}"
        _require_keys(entry, {"indices", "alpha", "beta", "sigma"}, set(), what)
        indices = [_integer(j, f"{what}: index") for j in _list(entry["indices"], what)]
        beta = [_number(b, f"{what}: beta") for b in _list(entry["beta"], what)]
        try:
            groups.append(GroupSpec(indices))
            params.append(
                GroupParams(
                    _number(entry["alpha"], f"{what}: alpha"),
                    beta,
                    _number(entry["sigma"], f"{what}: sigma"),
                )
            )
        except SpecError as exc:
            raise ConfigError(f"{what}: {exc}") from None
    p = obj.get("p")
    if p is None:
        p = 1 + max((g.covariate_indices[-1] for g in groups if g.covariate_indices), default=-1)
    try:
        return ScenarioSpec(
            model=ModelSpec(groups, p=_integer(p, "scenario p")),
            truth=Theta(params),
            n=_integer(obj["n"], "scenario n"),
            target_censoring=_number(obj["target_censoring"], "scenario target_censoring"),
            seed=_integer(obj["seed"], "scenario seed"),
        )
    except SpecError as exc:
        raise ConfigError(f"scenario: {exc}") from None


# ---------------------------------------------------------------------------
# Model-spec JSON for fitting: groups as covariate-name lists
# ---------------------------------------------------------------------------


def model_spec_from_json(obj: dict, covariate_names: Sequence[str]) -> ModelSpec:
    """Resolve a fit-spec JSON against the CSV header's covariate names."""
    if not isinstance(obj, dict):
        raise ConfigError("model spec JSON must be an object")
    _check_version(obj, "model spec")
    _require_keys(obj, {"groups"}, {"format_version"}, "model spec")
    index_of = {name: j for j, name in enumerate(covariate_names)}
    groups = []
    for g, entry in enumerate(_objects(obj["groups"], "model spec groups")):
        _require_keys(entry, {"covariates"}, set(), f"model spec group {g}")
        indices = []
        for name in entry["covariates"]:
            if name not in index_of:
                raise ConfigError(
                    f"model spec group {g}: covariate {name!r} not in data columns "
                    f"{list(covariate_names)}"
                )
            indices.append(index_of[name])
        try:
            groups.append(GroupSpec(sorted(indices)))
        except SpecError as exc:
            raise ConfigError(f"model spec group {g}: {exc}") from None
    try:
        return ModelSpec(groups, p=len(covariate_names))
    except SpecError as exc:
        raise ConfigError(f"model spec: {exc}") from None


# ---------------------------------------------------------------------------
# Fit result JSON
# ---------------------------------------------------------------------------


def fit_to_json(
    spec: ModelSpec,
    theta: Theta,
    covariate_names: Sequence[str],
    std_errors,
    converged: bool,
    n_iters: int,
    final_loglik: float,
    penalty: dict,
    warnings: Sequence[str] = (),
) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "covariate_names": list(covariate_names),
        "groups": [
            {
                "covariates": [covariate_names[j] for j in group.covariate_indices],
                "alpha": params.alpha,
                "beta": [float(b) for b in params.beta],
                "sigma": params.sigma,
            }
            for group, params in zip(spec.groups, theta.groups)
        ],
        "std_errors": None if std_errors is None else [float(s) for s in std_errors],
        "converged": bool(converged),
        "n_iters": int(n_iters),
        "final_loglik": float(final_loglik),
        "penalty": penalty,
        "warnings": list(warnings),
    }


def fit_from_json(obj: dict) -> tuple[ModelSpec, Theta, list[str]]:
    """Rebuild (spec, theta, covariate names) from a fit JSON object."""
    if not isinstance(obj, dict):
        raise ConfigError("fit JSON must be an object")
    _check_version(obj, "fit")
    _require_keys(
        obj,
        {"covariate_names", "groups"},
        {
            "format_version",
            "std_errors",
            "converged",
            "n_iters",
            "final_loglik",
            "penalty",
            "warnings",
        },
        "fit",
    )
    names = obj["covariate_names"]
    if not (isinstance(names, list) and all(isinstance(name, str) for name in names)):
        raise ConfigError("fit JSON: covariate_names must be a list of strings")
    groups = _objects(obj["groups"], "fit JSON groups")
    for g, entry in enumerate(groups):
        _require_keys(entry, {"covariates", "alpha", "beta", "sigma"}, set(), f"fit group {g}")
    spec = model_spec_from_json({"groups": [{"covariates": g["covariates"]} for g in groups]}, names)
    index_of = {name: j for j, name in enumerate(names)}
    try:
        params = []
        for g in groups:
            beta = list(g["beta"])
            if len(beta) != len(g["covariates"]):
                raise ConfigError("fit JSON: beta length must match covariates")
            # Betas are stored in the listed covariate order; realign to the
            # sorted column order the model uses internally.
            order = np.argsort([index_of[name] for name in g["covariates"]], kind="stable")
            params.append(
                GroupParams(g["alpha"], [beta[k] for k in order], g["sigma"])
            )
        theta = Theta(params)
        theta.validate_against(spec)
    except (SpecError, KeyError) as exc:
        raise ConfigError(f"fit JSON: {exc}") from None
    return spec, theta, names
