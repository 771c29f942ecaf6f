"""Synthetic censored datasets from min-linear Weibull specifications.

Covariates are i.i.d. standard normal; event times and winning causes come
from the latent-time sampler; random censoring uses independent exponential
censoring times whose rate is calibrated by Brent's method so that the
expected censored fraction matches the target.  Three built-in scenarios
reproduce the desk-scale benchmark settings (disjoint, overlapping, and
overlapping-with-true-zeros covariate groups).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SpecError
from .model import Dataset, GroupParams, GroupSpec, ModelSpec, Theta, sample_events
from .model import _is_integer, _is_real

__all__ = [
    "ScenarioSpec",
    "SimulatedDataset",
    "builtin_scenario",
    "builtin_censoring_levels",
    "generate",
    "apply_censoring",
    "calibrate_censoring_rate",
    "replication_seed",
]


@dataclass(frozen=True, eq=False)
class ScenarioSpec:
    """A complete recipe for one synthetic dataset."""

    model: ModelSpec
    truth: Theta
    n: int
    target_censoring: float
    seed: int

    def __post_init__(self):
        self.truth.validate_against(self.model)
        if not (_is_integer(self.n) and _is_integer(self.seed)):
            raise SpecError("scenario sample size and seed must be integers")
        for name in ("n", "seed"):  # numpy integers become Python ints, as JSON needs
            object.__setattr__(self, name, int(getattr(self, name)))
        if not _is_real(self.target_censoring):
            raise SpecError("target censoring must be a real number")
        if self.n < 1:
            raise SpecError("scenario sample size must be positive")
        limit = np.iinfo(np.intp).max
        if max(self.n, self.model.p, self.n * self.model.p) > limit:
            raise SpecError(
                f"scenario sample size, covariate count and their product must be at most {limit}"
            )
        if not (0.0 <= self.target_censoring < 1.0):
            raise SpecError("target censoring must lie in [0, 1)")
        if self.seed < 0:
            raise SpecError(f"scenario seed must be nonnegative, got {self.seed}")

    def with_seed(self, seed: int) -> "ScenarioSpec":
        return ScenarioSpec(self.model, self.truth, self.n, self.target_censoring, seed)


@dataclass(frozen=True, eq=False)
class SimulatedDataset:
    """Generated data plus the latent ground truth behind it."""

    data: Dataset
    latent_causes: np.ndarray
    true_event_times: np.ndarray
    realized_censoring_rate: float


# Built-in scenario table.  Each group is (covariate indices, alpha, beta,
# sigma); indices are 0-based columns of the covariate matrix.  A coefficient
# listed as 0.0 is a true zero that stays in the design (sparsity detection);
# excluded covariates simply do not appear in the index set.
_BUILTINS = {
    1: dict(
        p=3,
        n=1000,
        groups=[
            ((0,), 1.6, (1.2,), 1.0),
            ((1,), 1.2, (2.0,), 1.0),
            ((2,), 2.1, (1.0,), 1.1),
        ],
        censoring=(0.0, 0.1),
    ),
    2: dict(
        p=4,
        n=1500,
        groups=[
            ((0, 1, 3), 1.0, (-3.0, 2.0, 1.0), 1.0),
            ((0, 1), 1.5, (2.0, 2.0), 1.0),
            ((0, 1, 2), 1.0, (-2.0, 3.0, 2.0), 1.1),
        ],
        censoring=(0.0, 0.1, 0.2, 0.3),
    ),
    3: dict(
        p=6,
        n=1500,
        groups=[
            ((0, 1), 1.0, (-3.0, 2.0), 1.0),
            ((1, 2, 3), 1.5, (0.0, 2.0, 2.0), 1.0),
            ((3, 4, 5), 1.0, (0.0, -2.0, 3.0), 1.1),
        ],
        censoring=(0.1, 0.3),
    ),
}


def builtin_censoring_levels(example_id: int) -> tuple[float, ...]:
    """Censoring levels a built-in example was benchmarked at."""
    if example_id not in _BUILTINS:
        raise SpecError(f"unknown builtin example {example_id}; choose 1, 2, or 3")
    return _BUILTINS[example_id]["censoring"]


def builtin_scenario(
    example_id: int, censoring_level: float, seed: int = 0
) -> ScenarioSpec:
    """One of the three built-in benchmark scenarios.

    ``censoring_level`` must be one of the levels the example defines (see
    :func:`builtin_censoring_levels`).
    """
    levels = builtin_censoring_levels(example_id)
    entry = _BUILTINS[example_id]
    if not any(abs(censoring_level - lv) < 1e-12 for lv in levels):
        raise SpecError(
            f"example {example_id} supports censoring levels {levels}, "
            f"got {censoring_level}"
        )
    spec = ModelSpec(
        [GroupSpec(idx) for idx, *_ in entry["groups"]], p=entry["p"]
    )
    truth = Theta(
        [GroupParams(alpha, beta, sigma) for _, alpha, beta, sigma in entry["groups"]]
    )
    return ScenarioSpec(spec, truth, entry["n"], float(censoring_level), seed)


def replication_seed(seed: int, index: int) -> int:
    """Derived seed for replication ``index`` of a batch rooted at ``seed``.

    Uses ``numpy.random.SeedSequence([seed, index])`` so replication streams
    are independent and reproducible.
    """
    return int(np.random.SeedSequence([int(seed), int(index)]).generate_state(1)[0])


# Iterations :func:`_brent_root` may take, as many as scipy.optimize.brentq.
_BRENT_MAXITER = 100


def _brent_root(f, xpre: float, xcur: float, xtol: float, rtol: float) -> float:
    """A root of ``f`` between ``xpre`` and ``xcur`` by Brent's method.

    A line-for-line port of scipy's ``brentq.c`` (Brent 1973, ch. 4): each
    step interpolates, extrapolates or bisects, and the search stops once
    the bracket is narrower than ``xtol + rtol * |x|``.  It returns the same
    float as ``scipy.optimize.brentq(f, xpre, xcur, xtol=xtol, rtol=rtol)``.
    ``f`` must change sign over the bracket.  Raises ConfigError when
    ``_BRENT_MAXITER`` iterations do not converge.
    """
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    # xblk is the bracket's other end; spre and scur the last two steps.
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate; a denominator that underflowed to 0 gives C an
                # infinite or NaN step, which fails the test below
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                denom = dblk * dpre * (fblk - fpre)
                stry = -fcur * (fblk * dblk - fpre * dpre) / denom if denom else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise ConfigError(f"root search did not converge in {_BRENT_MAXITER} iterations")


def calibrate_censoring_rate(true_times, target_rate: float) -> float:
    """Exponential censoring rate with expected censored fraction on target.

    Solves ``mean_i (1 - exp(-rate * t_i)) = target_rate`` by root bracketing
    and Brent's method over the observed sample; the left side is the
    expected fraction of subjects whose censoring time lands before their
    event.  Every time must be positive and finite: a latent time that
    underflowed to 0 or overflowed to inf leaves no rate to calibrate.
    """
    true_times = np.asarray(true_times, dtype=float)
    if not np.all((true_times > 0.0) & (true_times < np.inf)):
        raise ConfigError("event times must be positive and finite to calibrate censoring")
    if not (0.0 <= target_rate < 1.0):
        raise ConfigError(f"target censoring rate must lie in [0, 1), got {target_rate}")
    if target_rate == 0.0:
        return 0.0

    def expected_rate(rate: float) -> float:
        return float(np.mean(-np.expm1(-rate * true_times)))

    hi = 1.0 / float(np.mean(true_times))
    for _ in range(200):
        if expected_rate(hi) >= target_rate:
            break
        hi *= 2.0
    else:
        raise ConfigError(
            f"could not bracket a censoring rate reaching target {target_rate}"
        )
    return _brent_root(
        lambda r: expected_rate(r) - target_rate, 0.0, hi, xtol=1e-12, rtol=8.9e-16
    )


def apply_censoring(true_times, target_rate: float, rng: np.random.Generator):
    """Censor event times with calibrated independent exponential times.

    Returns ``(observed_times, status, realized_rate)`` with ``status = 1``
    exactly when the event beat its censoring time and observed time equal to
    the smaller of the two; the realized censored fraction is close to the
    target in expectation.
    """
    true_times = np.asarray(true_times, dtype=float)
    rate = calibrate_censoring_rate(true_times, target_rate)
    n = true_times.shape[0]
    if rate == 0.0:
        return true_times.copy(), np.ones(n, dtype=np.int8), 0.0
    censor_times = rng.exponential(1.0 / rate, size=n)
    status = (true_times < censor_times).astype(np.int8)
    observed = np.minimum(true_times, censor_times)
    realized = float(1.0 - status.mean())
    return observed, status, realized


def generate(scenario: ScenarioSpec) -> SimulatedDataset:
    """Draw one dataset from a scenario; bit-reproducible given its seed.

    The seed is split into independent child streams for covariates, event
    times, and censoring via ``SeedSequence(seed).spawn(3)``.
    """
    ss = np.random.SeedSequence(int(scenario.seed))
    rng_x, rng_event, rng_censor = (np.random.default_rng(c) for c in ss.spawn(3))
    x = rng_x.standard_normal((scenario.n, scenario.model.p))
    true_times, causes = sample_events(scenario.truth, scenario.model, x, rng_event)
    observed, status, realized = apply_censoring(
        true_times, scenario.target_censoring, rng_censor
    )
    data = Dataset(observed, status, x)
    return SimulatedDataset(
        data=data,
        latent_causes=causes,
        true_event_times=true_times,
        realized_censoring_rate=realized,
    )
