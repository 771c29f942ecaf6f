"""Check that the CLI writes the same bytes as at a git revision.

    python tools/same_outputs.py REF

Snapshots REF with ``git archive`` and runs one fixed set of CLI commands
on that snapshot and on the working tree (uncommitted edits included),
each in a fresh interpreter with ``OPENBLAS_NUM_THREADS=1``.  The set
covers examples 1-3 at 10%, 20% and 30% censoring, seeds 1-4, penalties
(2, 1) and (0, 0), ``predict --at 0.5,1,2``, ``evaluate`` with both
markers and ``--rocdir``, and three horizon lists with degenerate
horizons.  Every output file, exit code and standard error is compared;
each difference is printed, then a count of runs and files.  For a CSV or
JSON file that differs, each column or key whose values differ is printed
with its largest relative difference when all its values are numbers.
Exits 0 when nothing differs and 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Example -> (censoring level, covariate-name groups of the true model).
EXAMPLES = {
    1: ("0.1", [["x1"], ["x2"], ["x3"]]),
    2: ("0.2", [["x1", "x2", "x4"], ["x1", "x2"], ["x1", "x2", "x3"]]),
    3: ("0.3", [["x1", "x2"], ["x2", "x3", "x4"], ["x4", "x5", "x6"]]),
}
SEEDS = (1, 2, 3, 4)
PENALTIES = (("2", "1"), ("0", "0"))
HORIZON_LISTS = ("1e-5,1,1e6", "1e-5,1", "3,0.5,1e-9,2,1e9")


def commands() -> list[list[str]]:
    """The CLI argument lists, in run order; paths are relative to the
    working directory, which the spec files are written to first."""
    runs = []
    for example, (censoring, _) in EXAMPLES.items():
        for seed in SEEDS:
            case = f"ex{example}_s{seed}"
            data = f"{case}/data.csv"
            runs.append(["simulate", "--example", str(example), "--censoring", censoring,
                         "--seed", str(seed), "--out", data])
            for lambda1, lambda2 in PENALTIES:
                out = f"{case}/l{lambda1}-{lambda2}"
                fit = f"{out}/fit.json"
                runs.append(["fit", "--data", data, "--spec", f"spec_ex{example}.json",
                             "--lambda1", lambda1, "--lambda2", lambda2, "--out", fit])
                runs.append(["predict", "--fit", fit, "--data", data, "--at", "0.5,1,2",
                             "--out", f"{out}/predict.csv"])
                for marker in ("neg_expected_time", "one_minus_survival"):
                    runs.append(["evaluate", "--fit", fit, "--data", data, "--marker", marker,
                                 "--out", f"{out}/{marker}.json", "--rocdir", f"{out}/roc_{marker}"])
                for k, horizons in enumerate(HORIZON_LISTS):
                    runs.append(["evaluate", "--fit", fit, "--data", data, "--horizons", horizons,
                                 "--marker", "one_minus_survival", "--out", f"{out}/horizons{k}.json",
                                 "--rocdir", f"{out}/roc_horizons{k}"])
    return runs


def run_all(src: Path, workdir: Path) -> tuple[list[tuple[int, bytes]], dict[str, bytes]]:
    """Exit code and standard error of every command run against the
    package in ``src``, and the bytes of every file the runs left."""
    for example, (_, groups) in EXAMPLES.items():
        spec = {"groups": [{"covariates": names} for names in groups]}
        (workdir / f"spec_ex{example}.json").write_text(json.dumps(spec))
    for example in EXAMPLES:
        for seed in SEEDS:
            for lambda1, lambda2 in PENALTIES:
                (workdir / f"ex{example}_s{seed}" / f"l{lambda1}-{lambda2}").mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1", COMPETING_WEIBULL_LOG="warning")
    results = []
    for argv in commands():
        done = subprocess.run([sys.executable, "-m", "competing_weibull", *argv],
                              cwd=workdir, env=env, capture_output=True)
        results.append((done.returncode, done.stderr))
    files = {
        path.relative_to(workdir).as_posix(): path.read_bytes()
        for path in sorted(workdir.rglob("*")) if path.is_file()
    }
    return results, files


def _leaves(node, key: str = ""):
    """(key path, value) of every scalar in a JSON document."""
    if isinstance(node, dict):
        for name, child in node.items():
            yield from _leaves(child, f"{key}.{name}" if key else name)
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _leaves(child, f"{key}[{i}]")
    else:
        yield key, node


def _values(path: str, data: bytes) -> dict[str, list]:
    """The values of a CSV file by column, or of a JSON file by key path
    (list indices dropped, so a list is one key); empty for other files."""
    text = data.decode(errors="replace")
    values: dict[str, list] = {}
    if path.endswith(".csv"):
        header, *rows = list(csv.reader(io.StringIO(text))) or [[]]
        for row in rows:
            for name, cell in zip(header, row):
                values.setdefault(name, []).append(cell)
    elif path.endswith(".json"):
        try:
            document = json.loads(text)
        except ValueError:
            return {}
        for key, value in _leaves(document):
            values.setdefault(key.split("[")[0], []).append(value)
    return values


def _number(value):
    """``value`` as a float, or None for text that is not a number."""
    if isinstance(value, bool) or value is None:
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def field_differences(path: str, ref: bytes, tree: bytes) -> list[str]:
    """One line per column or key whose values differ between two versions
    of a CSV or JSON file: its largest relative difference when every value
    is a number and both versions hold as many, otherwise only that it differs."""
    ref_values, tree_values = _values(path, ref), _values(path, tree)
    lines = []
    for name in sorted(ref_values.keys() | tree_values.keys()):
        a, b = ref_values.get(name), tree_values.get(name)
        if a == b:
            continue
        pairs = list(zip(map(_number, a or []), map(_number, b or [])))
        if a is None or b is None or len(a) != len(b) or any(x is None or y is None for x, y in pairs):
            lines.append(f"  {name}: differs")
            continue
        largest = 0.0
        for x, y in pairs:
            if x != y:
                scale = max(abs(x), abs(y))
                largest = max(largest, math.inf if not math.isfinite(scale) else abs(x - y) / scale)
        lines.append(f"  {name}: largest relative difference {largest:.3g}")
    return lines


def snapshot(ref: str, target: Path) -> None:
    """The files of ``ref`` under ``target``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref],
                             capture_output=True)
    if archive.returncode != 0:
        sys.exit(f"git archive {ref} failed: {archive.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(target, filter="data")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="git revision to compare the working tree with")
    ref = parser.parse_args(argv).ref
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        snapshot(ref, tmp / "ref")
        outputs = {}
        for name, src in (("ref", tmp / "ref" / "src"), ("tree", ROOT / "src")):
            (tmp / f"work_{name}").mkdir()
            outputs[name] = run_all(src, tmp / f"work_{name}")

    (ref_runs, ref_files), (tree_runs, tree_files) = outputs["ref"], outputs["tree"]
    differences = 0
    for argv, (ref_code, ref_err), (code, err) in zip(commands(), ref_runs, tree_runs):
        if (ref_code, ref_err) != (code, err):
            differences += 1
            print(f"run {' '.join(argv)}: exit {ref_code} -> {code}")
            if ref_err != err:
                print(f"  stderr at {ref}:\n{ref_err.decode(errors='replace')}"
                      f"  stderr in the working tree:\n{err.decode(errors='replace')}")
    for path in sorted(ref_files.keys() | tree_files.keys()):
        if path not in tree_files or path not in ref_files:
            differences += 1
            print(f"file {path}: only {'at ' + ref if path in ref_files else 'in the working tree'}")
        elif ref_files[path] != tree_files[path]:
            differences += 1
            print(f"file {path}: contents differ")
            for line in field_differences(path, ref_files[path], tree_files[path]):
                print(line)
    print(f"{len(ref_runs)} runs, {len(ref_files)} files at {ref} and {len(tree_files)} in the "
          f"working tree: {differences} difference(s)")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
