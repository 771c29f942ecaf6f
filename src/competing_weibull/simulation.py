"""Synthetic censored datasets from min-linear Weibull specifications.

Covariates are i.i.d. standard normal; event times and winning causes come
from the latent-time sampler; random censoring uses independent exponential
censoring times whose rate is calibrated by bisection so that the expected
censored fraction matches the target.  Three built-in scenarios reproduce
the desk-scale benchmark settings (disjoint, overlapping, and
overlapping-with-true-zeros covariate groups).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SpecError
from .model import Dataset, GroupParams, GroupSpec, ModelSpec, Theta, sample_events

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
        if self.n < 1:
            raise SpecError("scenario sample size must be positive")
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
    return ScenarioSpec(spec, truth, entry["n"], float(censoring_level), int(seed))


def replication_seed(seed: int, index: int) -> int:
    """Derived seed for replication ``index`` of a batch rooted at ``seed``.

    Uses ``numpy.random.SeedSequence([seed, index])`` so replication streams
    are independent and reproducible.
    """
    return int(np.random.SeedSequence([int(seed), int(index)]).generate_state(1)[0])


def calibrate_censoring_rate(true_times, target_rate: float) -> float:
    """Exponential censoring rate with expected censored fraction on target.

    Solves ``mean_i (1 - exp(-rate * t_i)) = target_rate`` by root bracketing
    and bisection over the observed sample; the left side is the expected
    fraction of subjects whose censoring time lands before their event.
    Every time must be positive and finite: a latent time that underflowed
    to 0 or overflowed to inf leaves no rate to calibrate.
    """
    true_times = np.asarray(true_times, dtype=float)
    if not np.all((true_times > 0.0) & (true_times < np.inf)):
        raise ConfigError("event times must be positive and finite to calibrate censoring")
    if not (0.0 <= target_rate < 1.0):
        raise ConfigError(f"target censoring rate must lie in [0, 1), got {target_rate}")
    if target_rate == 0.0:
        return 0.0
    # Imported here: scipy.optimize costs most of the package's import time,
    # and only this root-finder needs it.
    from scipy import optimize

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
    return float(
        optimize.brentq(
            lambda r: expected_rate(r) - target_rate, 0.0, hi, xtol=1e-12, rtol=8.9e-16
        )
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
