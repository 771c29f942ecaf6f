import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import competing_weibull as cw

# No deadline: a slow or busy machine must not fail an example on timing.
# print_blob: a failure prints the blob that reproduces it.
settings.register_profile("competing-weibull", deadline=None, print_blob=True)
settings.load_profile("competing-weibull")


@pytest.fixture(scope="session")
def exp_unit():
    """Single-group unit exponential: alpha=0, sigma=1, no covariates."""
    spec = cw.ModelSpec([cw.GroupSpec([])], p=0)
    theta = cw.Theta([cw.GroupParams(0.0, [], 1.0)])
    return spec, theta


@pytest.fixture(scope="session")
def mixed_pair():
    """Two intercept-only groups: (sigma=1, alpha=0) and (sigma=0.5, alpha=0)."""
    spec = cw.ModelSpec([cw.GroupSpec([]), cw.GroupSpec([])], p=0)
    theta = cw.Theta([cw.GroupParams(0.0, [], 1.0), cw.GroupParams(0.0, [], 0.5)])
    return spec, theta


def random_instance(rng, n=200, L=None, target_censoring=0.1):
    """A random identifiable model plus data drawn from it."""
    L = int(rng.integers(1, 4)) if L is None else L
    p = int(rng.integers(L, L + 3))
    groups, seen = [], set()
    for _ in range(L):
        while True:
            k = int(rng.integers(1, p + 1))
            idx = tuple(sorted(rng.choice(p, size=k, replace=False).tolist()))
            if idx not in seen:
                seen.add(idx)
                groups.append(cw.GroupSpec(idx))
                break
    spec = cw.ModelSpec(groups, p=p)
    truth = cw.Theta(
        [
            cw.GroupParams(
                rng.normal(1.0, 0.5),
                rng.normal(0.0, 0.8, size=g.n_covariates),
                rng.uniform(0.6, 1.4),
            )
            for g in spec.groups
        ]
    )
    x = rng.standard_normal((n, p))
    times, _ = cw.sample_events(truth, spec, x, rng)
    observed, status, _ = cw.apply_censoring(times, target_censoring, rng)
    return spec, truth, cw.Dataset(observed, status, x)


def traced_peak(fn, *args) -> int:
    """Peak bytes of Python and NumPy memory allocated while ``fn(*args)``
    runs, counting what it returns."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def run_python(script: str, blas_threads: int | None = None, cwd=None) -> str:
    """Standard output of ``script`` run by a fresh interpreter that imports
    the package from this source tree, with ``OPENBLAS_NUM_THREADS`` set to
    ``blas_threads`` when given; a nonzero exit fails the calling test."""
    env = dict(os.environ)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    src = str(Path(cw.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, cwd=cwd, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    return run.stdout
