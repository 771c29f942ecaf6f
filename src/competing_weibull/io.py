"""File formats shared by the command-line tools.

Rectangular data travels as RFC-4180 CSV (UTF-8, ``.`` decimal, header row);
structured configuration and results travel as JSON with a
``format_version`` field.  All writers are atomic (temp file + rename) and
all JSON is serialized canonically (sorted keys, two-space indent, trailing
newline) so that reading a file and re-serializing it is byte-identical.

Both CSV paths work on blocks of ``_CSV_CHUNK_ROWS`` records, so the text they
hold does not grow with the number of cells.  :func:`write_csv` formats a block
of its 1-D columns with one ``%`` template and streams it to the file: a
float as its shortest round-trip ``repr`` (as csv.writer writes it), an
integer or boolean as an integer.  :func:`read_dataset_csv` parses, checks
and converts a block at a time, and joins the blocks' float tables.
:func:`canonical_json` joins a list of numbers in one string operation;
everything else is encoded by the standard library, so its output equals
``json.dumps(obj, sort_keys=True, indent=2) + "\n"``.

Every input is checked here.  A malformed one raises ConfigError naming the
CSV file and line or the JSON key path: text that is not UTF-8, invalid JSON,
or a JSON document that does not match its format's schema (``_SCENARIO``,
``_MODEL_SPEC`` or ``_FIT``, all checked by :func:`_checked`), that is, a
missing or unknown key or a value of the wrong JSON type.  The model classes
then check the values themselves (positive sigma, increasing indices, ...),
and :func:`_located` turns their SpecError into a ConfigError naming the file
or key path.
"""

from __future__ import annotations

import csv
import io as _io
import json
import os
import tempfile
from contextlib import contextmanager
from itertools import chain, islice
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, SpecError
from .estimation import FitResult, PenaltyConfig
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
    """``json.dumps(obj, sort_keys=True, indent=2) + "\n"``, byte for byte."""
    return _json_text(obj, "\n") + "\n"


_NUMBER_TYPES = {float, int}


def _json_text(obj, newline: str) -> str:
    """``obj`` as the standard encoder writes it where ``newline`` (a line end
    and the indent of the enclosing value) starts each of its lines.

    The standard encoder formats indented JSON in pure Python, one value at a
    time.  Here a list of numbers is one ``join``, and ``repr``'s
    ``nan``/``inf`` are then spelled ``NaN``/``Infinity`` as the encoder
    spells them.  Containers recurse; anything else, including a dict with a
    key that is not a string, is encoded by ``json.dumps`` and re-indented,
    which is exact because JSON text has no raw line end inside a string.
    """
    inner = newline + "  "
    if isinstance(obj, (list, tuple)) and obj:
        types = set(map(type, obj))
        if types <= _NUMBER_TYPES:
            body = ("," + inner).join(map(repr, obj))
            if "n" in body:  # of number reprs, only nan and inf hold an "n"
                body = body.replace("inf", "Infinity").replace("nan", "NaN")
        else:
            body = ("," + inner).join([_json_text(item, inner) for item in obj])
        return "[" + inner + body + newline + "]"
    if isinstance(obj, dict) and obj and all(isinstance(key, str) for key in obj):
        items = [
            json.encoder.encode_basestring_ascii(key) + ": " + _json_text(value, inner)
            for key, value in sorted(obj.items())
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    return json.dumps(obj, sort_keys=True, indent=2).replace("\n", newline)


def atomic_write_text(path: str, text: str) -> None:
    """Write a file all-or-nothing: no partial output on failure.

    The file gets the mode a plain ``open`` would create it with,
    ``0o666`` less the umask, not the temporary file's ``0o600``.
    """
    _atomic_write(path, (text,))


def _atomic_write(path: str, parts: Iterable[str]) -> None:
    """:func:`atomic_write_text` of ``"".join(parts)``, one part at a time."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(parts)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# Records per block of CSV reading and writing; bounds the Python objects held at once.
_CSV_CHUNK_ROWS = 4096


def write_csv(path: str, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Write a CSV atomically with ``\n`` line ends, one 1-D array per header
    entry.

    csv.writer writes the header.  A float cell is written as its shortest
    round-trip ``repr``, as csv.writer writes a Python float, so it reads back
    exactly; an integer cell as an integer and a boolean as ``0``/``1``.  Each
    block of rows is written as soon as it is formatted.
    """
    columns = [np.asarray(column) for column in columns]
    n = columns[0].size if columns else 0
    if len(columns) != len(header) or any(column.shape != (n,) for column in columns):
        raise ValueError("write_csv needs one 1-D column per header entry, all of one length")
    columns = [c.astype(np.int8) if c.dtype == np.bool_ else c for c in columns]
    buffer = _io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow(header)
    line = ",".join(["%r"] * len(columns)) + "\n"
    chunks = ([c[i:i + _CSV_CHUNK_ROWS].tolist() for c in columns] for i in range(0, n, _CSV_CHUNK_ROWS))
    body = (line * len(chunk[0]) % tuple(chain.from_iterable(zip(*chunk))) for chunk in chunks)
    _atomic_write(path, chain((buffer.getvalue(),), body))


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
    if schema is float:
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(f"{where} must be a number, got an integer beyond the doubles") from None
    return value


def _document(obj, schema, what: str) -> dict:
    """``obj`` checked against a top-level format ``schema`` and its version."""
    obj = _checked(obj, schema, what)
    version = obj.get("format_version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ConfigError(f"{what}: unsupported format_version {version}")
    return obj


@contextmanager
def _located(where: str):
    """Turn a SpecError raised by the model classes into a ConfigError that
    names ``where``, the file or key path of the checked input."""
    try:
        yield
    except SpecError as exc:
        raise ConfigError(f"{where}: {exc}") from None


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
    write_csv(
        path, ["time", "status", *covariate_names], [data.times, data.status, *data.covariates.T]
    )


def read_dataset_csv(path: str) -> tuple[Dataset, list[str]]:
    """Read a dataset CSV one block of records at a time; returns the data and
    the covariate column names.

    A defect names the first failing record (blank records count): a wrong
    field count, then a cell that is not a float, then a status other than
    0 or 1.  Bytes that are not UTF-8, or a field longer than csv's field
    size limit, are reported after any defect in the records read before
    them.
    """
    tables, header, lineno, unreadable = [], None, 1, None
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        while True:  # over blocks; ``lineno`` is the line of the block's first record
            records: list[list[str]] = []
            try:
                records.extend(islice(reader, _CSV_CHUNK_ROWS))
            except UnicodeDecodeError as exc:
                # ``records`` keeps what was read before the failure.  ``exc.start``
                # counts from the text layer's chunk: decode again for the file offset.
                with open(path, "rb") as raw:
                    try:
                        raw.read().decode("utf-8")
                    except UnicodeDecodeError as whole:
                        exc = whole
                unreadable = ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})")
            except csv.Error as exc:
                unreadable = ConfigError(f"{path}:{lineno + len(records)}: {exc}")
            if header is None:
                if not records:
                    raise unreadable or ConfigError(f"{path}: empty file")
                header = records[0]
                if len(header) < 2 or header[0] != "time" or header[1] != "status":
                    raise ConfigError(f"{path}: header must start with 'time,status', got {header[:2]}")
                if len(set(header[2:])) != len(header) - 2:
                    raise ConfigError(f"{path}: covariate column names {header[2:]} are not unique")
                records[0] = []  # skipped as a blank record is, but counted
            tables.append(_parse_block(path, records, lineno, len(header)))
            lineno += len(records)
            if len(records) < _CSV_CHUNK_ROWS:  # the end, or a read failure
                break
    if unreadable is not None:
        raise unreadable
    table = np.concatenate(tables)
    if not len(table):
        raise ConfigError(f"{path}: no data rows")
    with _located(path):
        return Dataset(table[:, 0], table[:, 1], table[:, 2:]), header[2:]


def _parse_block(path: str, records, lineno: int, width: int) -> np.ndarray:
    """A block's float table, or a ConfigError naming its first failing record."""
    rows = list(filter(None, records))
    if set(map(len, rows)) <= {width}:
        try:
            table = np.array(list(map(float, chain.from_iterable(rows)))).reshape(len(rows), width)
        except ValueError:
            pass
        else:
            if ((table[:, 1] == 0.0) | (table[:, 1] == 1.0)).all():
                return table
    # Only a failing block is checked again, one record at a time.
    for lineno, record in enumerate(records, lineno):
        try:
            if record and len(record) != width:
                raise ValueError(f"expected {width} fields, got {len(record)}")
            if record and [float(cell) for cell in record][1] not in (0.0, 1.0):
                raise ValueError(f"status must be 0 or 1, got {record[1]!r}")
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None


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
        with _located(f"scenario.groups[{g}]"):
            groups.append(GroupSpec(entry["indices"]))
            params.append(GroupParams(entry["alpha"], entry["beta"], entry["sigma"]))
    p = obj.get("p", 1 + max((j for g in groups for j in g.covariate_indices), default=-1))
    with _located("scenario"):
        return ScenarioSpec(
            model=ModelSpec(groups, p=p),
            truth=Theta(params),
            n=obj["n"],
            target_censoring=obj["target_censoring"],
            seed=obj["seed"],
        )


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
        with _located(f"{what}.groups[{g}]"):
            specs.append(GroupSpec(sorted(index_of[name] for name in entry["covariates"])))
    with _located(what):
        return ModelSpec(specs, p=len(names))


def model_spec_from_json(obj: dict, covariate_names: Sequence[str]) -> ModelSpec:
    """Resolve a fit-spec JSON against the CSV header's covariate names."""
    return _model_spec(_document(obj, _MODEL_SPEC, "spec")["groups"], covariate_names, "spec")


# ---------------------------------------------------------------------------
# Fit result JSON
# ---------------------------------------------------------------------------


def fit_to_json(
    spec: ModelSpec, result: FitResult, covariate_names: Sequence[str], penalty: PenaltyConfig
) -> dict:
    """The fit JSON (``_FIT``) of a fit of ``spec`` with ``penalty``."""
    std_errors = result.std_errors
    return {
        "format_version": FORMAT_VERSION,
        "covariate_names": list(covariate_names),
        "groups": [
            {
                "covariates": [covariate_names[j] for j in group.covariate_indices],
                **_params_json(params),
            }
            for group, params in zip(spec.groups, result.theta_hat.groups)
        ],
        "std_errors": None if std_errors is None else [float(s) for s in std_errors],
        "converged": bool(result.converged),
        "n_iters": int(result.n_iters),
        "final_loglik": result.final_loglik,
        "penalty": {"lambda1": penalty.lambda1, "lambda2": penalty.lambda2},
        "warnings": list(result.warnings),
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
        with _located(f"fit.groups[{g}]"):
            params.append(GroupParams(entry["alpha"], beta, entry["sigma"]))
    return spec, Theta(params), names
