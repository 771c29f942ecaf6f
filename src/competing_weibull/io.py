"""File formats shared by the command-line tools.

Rectangular data travels as RFC-4180 CSV (UTF-8, ``.`` decimal, header row);
structured configuration and results travel as JSON with a
``format_version`` field.  All writers are atomic (temp file + rename) and
all JSON is serialized canonically (sorted keys, two-space indent, trailing
newline) so that reading a file and re-serializing it is byte-identical.

Every input is checked here.  A malformed one raises ConfigError naming the
CSV file and line or the JSON key path: text that is not UTF-8, invalid JSON,
or a JSON document that does not match its format's schema (``_SCENARIO``,
``_MODEL_SPEC`` or ``_FIT``, all checked by :func:`_checked`), that is, a
missing or unknown key or a value of the wrong JSON type.  The model classes
then check the values themselves (positive sigma, increasing indices, ...).
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
    "read_json",
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


def read_json(path: str):
    """Parse a JSON file; text that is not UTF-8 or not JSON is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{path}: not a UTF-8 JSON document ({exc})") from None


# A schema is ``int`` (a JSON integer, not a bool), ``float`` (a JSON number,
# not a bool), ``str``, ``object`` (anything), a one-element list (a JSON list
# of that schema) or a dict (exactly these keys; a key ending in ``?`` is
# optional).
_SCALARS = {int: (int, "an integer"), float: ((int, float), "a number"), str: (str, "a string")}

_GROUP = {"alpha": float, "beta": [float], "sigma": float}
_SCENARIO = {
    "format_version?": int,
    "groups": [{"indices": [int], **_GROUP}],
    "n": int,
    "p?": int,
    "target_censoring": float,
    "seed": int,
}
_MODEL_SPEC = {"format_version?": int, "groups": [{"covariates": [str]}]}
_FIT = {
    "format_version?": int,
    "covariate_names": [str],
    "groups": [{"covariates": [str], **_GROUP}],
    "std_errors?": object,
    "converged?": object,
    "n_iters?": object,
    "final_loglik?": object,
    "penalty?": object,
    "warnings?": object,
}


def _checked(value, schema, where: str):
    """``value`` if it matches ``schema``, with every ``float`` a Python float.

    A JSON ``0`` where the schema says ``float`` reads as ``0.0``, so a value
    written back out keeps its float form.

    A mismatch is a ConfigError naming the path, e.g.
    ``fit.groups[0].alpha must be a number, got 'abc'``.
    """
    if isinstance(schema, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be an object, got {value!r}")
        keys = {key.rstrip("?"): key for key in schema}
        missing = sorted(k for k, key in keys.items() if k == key and k not in value)
        unknown = sorted(set(value) - set(keys))
        if missing:
            raise ConfigError(f"{where}: missing keys {missing}")
        if unknown:
            raise ConfigError(f"{where}: unknown keys {unknown}")
        return {k: _checked(v, schema[keys[k]], f"{where}.{k}") for k, v in value.items()}
    if isinstance(schema, list):
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        return [_checked(v, schema[0], f"{where}[{i}]") for i, v in enumerate(value)]
    if schema is object:
        return value
    types, name = _SCALARS[schema]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"{where} must be {name}, got {value!r}")
    return float(value) if schema is float else value


def _document(obj, schema, what: str) -> dict:
    """``obj`` checked against a top-level format ``schema`` and its version."""
    obj = _checked(obj, schema, what)
    version = obj.get("format_version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ConfigError(f"{what}: unsupported format_version {version}")
    return obj


def _params_json(params: GroupParams) -> dict:
    """One group's ``_GROUP`` fields."""
    return {"alpha": params.alpha, "beta": [float(b) for b in params.beta], "sigma": params.sigma}


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
    if len(set(names)) != len(names):
        raise ConfigError(f"{path}: covariate column names {names} are not unique")
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
            {"indices": list(group.covariate_indices), **_params_json(params)}
            for group, params in zip(scenario.model.groups, scenario.truth.groups)
        ],
        "n": scenario.n,
        "p": scenario.model.p,
        "target_censoring": scenario.target_censoring,
        "seed": scenario.seed,
    }


def scenario_from_json(obj: dict) -> ScenarioSpec:
    obj = _document(obj, _SCENARIO, "scenario")
    groups, params = [], []
    for g, entry in enumerate(obj["groups"]):
        try:
            groups.append(GroupSpec(entry["indices"]))
            params.append(GroupParams(entry["alpha"], entry["beta"], entry["sigma"]))
        except SpecError as exc:
            raise ConfigError(f"scenario.groups[{g}]: {exc}") from None
    p = obj.get("p", 1 + max((j for g in groups for j in g.covariate_indices), default=-1))
    try:
        return ScenarioSpec(
            model=ModelSpec(groups, p=p),
            truth=Theta(params),
            n=obj["n"],
            target_censoring=obj["target_censoring"],
            seed=obj["seed"],
        )
    except SpecError as exc:
        raise ConfigError(f"scenario: {exc}") from None


# ---------------------------------------------------------------------------
# Model-spec JSON for fitting: groups as covariate-name lists
# ---------------------------------------------------------------------------


def _model_spec(groups: list, names: Sequence[str], what: str) -> ModelSpec:
    """Resolve each group's ``covariates`` names to indices into ``names``."""
    if len(set(names)) != len(names):
        raise ConfigError(f"{what}: covariate names {list(names)} are not unique")
    index_of = {name: j for j, name in enumerate(names)}
    specs = []
    for g, entry in enumerate(groups):
        unknown = [name for name in entry["covariates"] if name not in index_of]
        if unknown:
            raise ConfigError(
                f"{what}.groups[{g}]: covariates {unknown} not in data columns {list(names)}"
            )
        try:
            specs.append(GroupSpec(sorted(index_of[name] for name in entry["covariates"])))
        except SpecError as exc:
            raise ConfigError(f"{what}.groups[{g}]: {exc}") from None
    try:
        return ModelSpec(specs, p=len(names))
    except SpecError as exc:
        raise ConfigError(f"{what}: {exc}") from None


def model_spec_from_json(obj: dict, covariate_names: Sequence[str]) -> ModelSpec:
    """Resolve a fit-spec JSON against the CSV header's covariate names."""
    return _model_spec(_document(obj, _MODEL_SPEC, "spec")["groups"], covariate_names, "spec")


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
                **_params_json(params),
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
    obj = _document(obj, _FIT, "fit")
    names, groups = obj["covariate_names"], obj["groups"]
    spec = _model_spec(groups, names, "fit")
    params = []
    for g, entry in enumerate(groups):
        if len(entry["beta"]) != len(entry["covariates"]):
            raise ConfigError(f"fit.groups[{g}]: beta length must match covariates")
        # Betas are stored in the listed covariate order; realign to the
        # sorted column order the model uses internally.
        beta = [b for _, b in sorted(zip(map(names.index, entry["covariates"]), entry["beta"]))]
        try:
            params.append(GroupParams(entry["alpha"], beta, entry["sigma"]))
        except SpecError as exc:
            raise ConfigError(f"fit.groups[{g}]: {exc}") from None
    return spec, Theta(params), names
