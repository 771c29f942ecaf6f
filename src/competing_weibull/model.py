"""Competing (min-linear) Weibull accelerated failure time model.

The observed log time is the minimum of per-group linear predictors plus
Gumbel(minimum) noise: ``log T = min_l (alpha_l + x_l' beta_l + sigma_l eps_l)``.
Equivalently, T is the minimum of independent Weibull times with scale
``exp(mu_l)`` and shape ``1/sigma_l``.  This module holds the parameter and
data containers and the exact evaluation of the joint survival, hazard,
density, per-group winning probabilities, latent-time sampling, and expected
survival time with a Mill's-ratio tail bound.

All evaluation is done in log space (with group reductions applied in sorted
order, so results are invariant under group relabelling) and every function
here is a pure function of immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DomainError, SpecError

__all__ = [
    "GroupSpec",
    "ModelSpec",
    "GroupParams",
    "Theta",
    "Dataset",
    "ExpectedSurvivalTime",
    "group_log_scale",
    "survival",
    "log_survival",
    "hazard",
    "hazard_by_group",
    "density",
    "winning_probability",
    "sample_event",
    "sample_events",
    "expected_survival_time",
    "tail_integral_bounds",
    "auto_cutoff",
]

# Mean of the Gumbel(minimum) error is -EULER_GAMMA, its sd is pi/sqrt(6).
EULER_GAMMA = 0.5772156649015329


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class GroupSpec:
    """Covariate index set of one competing group (columns of the X matrix)."""

    covariate_indices: tuple[int, ...]

    def __init__(self, covariate_indices: Sequence[int]):
        idx = tuple(int(j) for j in covariate_indices)
        if any(j < 0 for j in idx):
            raise SpecError(f"covariate indices must be nonnegative, got {idx}")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise SpecError(
                f"covariate indices must be strictly increasing, got {idx}"
            )
        object.__setattr__(self, "covariate_indices", idx)

    @property
    def n_covariates(self) -> int:
        return len(self.covariate_indices)


@dataclass(frozen=True)
class ModelSpec:
    """Structural specification: number of groups and their covariate sets."""

    groups: tuple[GroupSpec, ...]
    p: int

    def __init__(self, groups: Sequence[GroupSpec], p: int):
        groups = tuple(groups)
        p = int(p)
        if len(groups) < 1:
            raise SpecError("a model needs at least one group")
        if p < 0:
            raise SpecError(f"covariate count must be nonnegative, got {p}")
        for g, group in enumerate(groups):
            if group.covariate_indices and group.covariate_indices[-1] >= p:
                raise SpecError(
                    f"group {g} uses covariate index "
                    f"{group.covariate_indices[-1]} but only p={p} columns exist"
                )
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "p", p)

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    def check_identifiable(self) -> None:
        """Reject duplicated covariate sets (allowed for evaluation, not fitting)."""
        seen: dict[tuple[int, ...], int] = {}
        for g, group in enumerate(self.groups):
            if group.covariate_indices in seen:
                raise SpecError(
                    f"groups {seen[group.covariate_indices]} and {g} have identical "
                    f"covariate sets {group.covariate_indices}; such models are "
                    "unidentifiable and cannot be fitted"
                )
            seen[group.covariate_indices] = g


@dataclass(frozen=True, eq=False)
class GroupParams:
    """Parameters of one group: intercept, coefficients, and noise scale.

    ``sigma`` is the Gumbel noise scale, i.e. the reciprocal of the Weibull
    shape of that group's latent time.
    """

    alpha: float
    beta: np.ndarray
    sigma: float

    def __init__(self, alpha: float, beta: Sequence[float], sigma: float):
        beta_arr = _readonly(np.atleast_1d(np.asarray(beta, dtype=float)))
        if beta_arr.ndim != 1:
            raise SpecError("beta must be a vector")
        sigma = float(sigma)
        if not (sigma > 0.0) or not math.isfinite(sigma):
            raise SpecError(f"sigma must be a positive finite real, got {sigma}")
        alpha = float(alpha)
        if not math.isfinite(alpha) or not np.all(np.isfinite(beta_arr)):
            raise SpecError("alpha and beta must be finite")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta_arr)
        object.__setattr__(self, "sigma", sigma)


@dataclass(frozen=True, eq=False)
class Theta:
    """Full parameter vector: one :class:`GroupParams` per group.

    The flattened layout is ``(alpha_1, beta_1..., sigma_1, alpha_2, ...)``.
    """

    groups: tuple[GroupParams, ...]

    def __init__(self, groups: Sequence[GroupParams]):
        object.__setattr__(self, "groups", tuple(groups))

    def validate_against(self, spec: ModelSpec) -> None:
        if len(self.groups) != spec.n_groups:
            raise SpecError(
                f"theta has {len(self.groups)} groups, spec has {spec.n_groups}"
            )
        for g, (params, group) in enumerate(zip(self.groups, spec.groups)):
            if params.beta.shape[0] != group.n_covariates:
                raise SpecError(
                    f"group {g}: beta has length {params.beta.shape[0]} but the "
                    f"covariate set has {group.n_covariates} entries"
                )

    @property
    def n_params(self) -> int:
        return sum(2 + g.beta.shape[0] for g in self.groups)

    def flatten(self) -> np.ndarray:
        parts = []
        for g in self.groups:
            parts.append([g.alpha])
            parts.append(g.beta)
            parts.append([g.sigma])
        return np.concatenate(parts)

    @staticmethod
    def from_flat(flat: Sequence[float], spec: ModelSpec) -> "Theta":
        flat = np.asarray(flat, dtype=float)
        expected = sum(2 + g.n_covariates for g in spec.groups)
        if flat.shape != (expected,):
            raise SpecError(
                f"flat parameter vector has shape {flat.shape}, expected ({expected},)"
            )
        groups = []
        pos = 0
        for group in spec.groups:
            k = group.n_covariates
            groups.append(
                GroupParams(flat[pos], flat[pos + 1 : pos + 1 + k], flat[pos + 1 + k])
            )
            pos += k + 2
        return Theta(groups)

    def with_group(self, index: int, params: GroupParams) -> "Theta":
        groups = list(self.groups)
        groups[index] = params
        return Theta(groups)


def parameter_names(spec: ModelSpec, covariate_names: Sequence[str] | None = None):
    """Labels for the flattened parameter vector, e.g. ``g1.beta[x3]``."""
    if covariate_names is None:
        covariate_names = [f"x{j + 1}" for j in range(spec.p)]
    names = []
    for g, group in enumerate(spec.groups, start=1):
        names.append(f"g{g}.alpha")
        names.extend(f"g{g}.beta[{covariate_names[j]}]" for j in group.covariate_indices)
        names.append(f"g{g}.sigma")
    return names


@dataclass(frozen=True, eq=False)
class Dataset:
    """Right-censored survival data: times, event indicators, covariates."""

    times: np.ndarray
    status: np.ndarray
    covariates: np.ndarray

    def __init__(self, times, status, covariates):
        times = _readonly(np.asarray(times, dtype=float))
        covariates = _readonly(np.atleast_2d(np.asarray(covariates, dtype=float)))
        status_arr = np.asarray(status)
        if times.ndim != 1 or times.shape[0] < 1:
            raise SpecError("times must be a nonempty vector")
        if not np.all(np.isfinite(times)) or not np.all(times > 0.0):
            raise SpecError("times must be strictly positive and finite")
        if status_arr.shape != times.shape:
            raise SpecError("status must have the same length as times")
        if not np.all(np.isin(status_arr, (0, 1))):
            raise SpecError("status entries must be 0 (censored) or 1 (event)")
        status_int = np.ascontiguousarray(status_arr, dtype=np.int8)
        status_int.setflags(write=False)
        if covariates.shape[0] != times.shape[0]:
            raise SpecError(
                f"covariate matrix has {covariates.shape[0]} rows for "
                f"{times.shape[0]} subjects"
            )
        if not np.all(np.isfinite(covariates)):
            raise SpecError("covariate matrix must be finite (no missing values)")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "status", status_int)
        object.__setattr__(self, "covariates", covariates)

    @property
    def n(self) -> int:
        return self.times.shape[0]

    @property
    def p(self) -> int:
        return self.covariates.shape[1]


# ---------------------------------------------------------------------------
# Evaluation
#
# Every quantity below is a reduction of one batched kernel, ``_hazards``,
# applied to a matrix of linear predictors (one row per subject, one column
# per group).  The scalar public functions are 1-row views of it.  Group
# reductions are applied in sorted order, so results are invariant under
# group relabelling.
# ---------------------------------------------------------------------------


def group_log_scale(params: GroupParams, x_row, group: GroupSpec) -> float:
    """Linear predictor mu_l = alpha_l + x[A_l] . beta_l for one group."""
    x_row = np.asarray(x_row, dtype=float)
    if params.beta.shape[0] != group.n_covariates:
        raise SpecError(
            f"beta has length {params.beta.shape[0]} but the group selects "
            f"{group.n_covariates} covariates"
        )
    if group.covariate_indices and (x_row.ndim != 1 or x_row.shape[0] <= group.covariate_indices[-1]):
        raise SpecError("covariate row is too short for this group's index set")
    x = np.atleast_1d(x_row)[None, list(group.covariate_indices)]
    return float(_group_mu(x, params.alpha, params.beta)[0])


def _sigmas(theta: Theta) -> np.ndarray:
    return np.array([g.sigma for g in theta.groups])


def _check_time(t: float, allow_zero: bool = False) -> float:
    t = float(t)
    if not math.isfinite(t):
        raise DomainError(f"time must be finite, got {t}")
    if t < 0.0 or (t == 0.0 and not allow_zero):
        raise DomainError(f"time must be positive, got {t}")
    return t


def _group_designs(spec: ModelSpec, covariates: np.ndarray) -> list[np.ndarray]:
    """Each group's own covariate columns, sliced once per covariate matrix."""
    return [covariates[:, list(g.covariate_indices)] for g in spec.groups]


def _group_mu(x: np.ndarray, alpha: float, beta: np.ndarray) -> np.ndarray:
    """One group's linear predictor for every row of its design ``x``."""
    if not x.shape[1]:
        return np.full(x.shape[0], alpha)
    return alpha + x @ beta


def _mu_matrix(theta: Theta, designs: Sequence[np.ndarray]) -> np.ndarray:
    """(n, L) matrix of linear predictors from per-group designs."""
    return np.column_stack(
        [_group_mu(x, g.alpha, g.beta) for x, g in zip(designs, theta.groups)]
    )


def _mu_rows(theta: Theta, spec: ModelSpec, covariates) -> np.ndarray:
    """Validated (n, L) linear predictors for the rows of a covariate matrix."""
    theta.validate_against(spec)
    covariates = np.atleast_2d(np.asarray(covariates, dtype=float))
    width = max(
        (g.covariate_indices[-1] + 1 for g in spec.groups if g.covariate_indices),
        default=0,
    )
    if covariates.ndim != 2 or covariates.shape[1] < width:
        raise SpecError(
            f"covariate rows have {covariates.shape[-1]} entries but the groups "
            f"use {width} columns"
        )
    return _mu_matrix(theta, _group_designs(spec, covariates))


def _hazards(mu: np.ndarray, sigma: np.ndarray, log_t):
    """Per-group log hazards and cumulative hazards of the latent Weibull times.

    ``mu`` has the groups on its last axis and ``sigma`` holds one noise
    scale per group; ``log_t`` broadcasts against ``mu`` (a scalar, or a
    column with one log time per row).  Returns two arrays shaped like
    ``mu``: ``log h_l(t) = z - log t - log sigma_l`` and ``H_l(t) = exp(z)``
    with ``z = (log t - mu_l) / sigma_l``.  A single group may pass its
    ``sigma`` as a float.
    """
    with np.errstate(over="ignore"):
        z = (log_t - mu) / sigma
        cumhaz = np.exp(z)
    # np.log and math.log can differ in the last bit; each caller keeps the
    # one its arithmetic has always used, so fits stay bit-identical.
    log_sigma = np.log(sigma) if isinstance(sigma, np.ndarray) else math.log(sigma)
    log_haz = z - log_t - log_sigma
    return log_haz, cumhaz


def _sorted_rowsum(values: np.ndarray) -> np.ndarray:
    # Summing in sorted order makes group reductions independent of the
    # group labelling, which keeps fits bit-identical under relabelling.
    return np.sum(np.sort(values, axis=-1, kind="stable"), axis=-1)


def _log_total_hazard(log_haz: np.ndarray) -> np.ndarray:
    """log h(t) = log sum_l h_l(t), reduced over the group axis."""
    m = np.max(log_haz, axis=-1)
    return m + np.log(_sorted_rowsum(np.exp(log_haz - m[..., None])))


def _winning(log_haz: np.ndarray) -> np.ndarray:
    """Hazard shares h_l(t) / h(t) along the group axis."""
    shifted = np.exp(log_haz - np.max(log_haz, axis=-1)[..., None])
    return shifted / _sorted_rowsum(shifted)[..., None]


def _hazards_at(theta: Theta, spec: ModelSpec, covariates, t: float):
    """The kernel at one time for every covariate row: (n, L) arrays."""
    return _hazards(_mu_rows(theta, spec, covariates), _sigmas(theta), np.log(t))


def _survival_and_winning(theta: Theta, spec: ModelSpec, covariates, t: float):
    """S(t | x) and the winning-probability rows for every covariate row."""
    log_haz, cumhaz = _hazards_at(theta, spec, covariates, _check_time(t))
    return np.exp(-_sorted_rowsum(cumhaz)), _winning(log_haz)


def log_survival(theta: Theta, spec: ModelSpec, x_row, t: float) -> float:
    """log S(t | x); the per-group log survivals add up."""
    t = _check_time(t, allow_zero=True)
    if t == 0.0:
        return 0.0
    _, cumhaz = _hazards_at(theta, spec, [x_row], t)
    return float(-_sorted_rowsum(cumhaz)[0])


def survival(theta: Theta, spec: ModelSpec, x_row, t: float) -> float:
    """Joint survival S(t | x) = exp(-sum_l (t / exp(mu_l))^(1/sigma_l)).

    ``t = 0`` returns the right limit 1.0; negative times are a domain error.
    """
    return float(np.exp(log_survival(theta, spec, x_row, t)))


def hazard_by_group(theta: Theta, spec: ModelSpec, x_row, t: float) -> np.ndarray:
    """Per-group hazards (h_1(t), ..., h_L(t)); the total hazard is their sum."""
    log_haz, _ = _hazards_at(theta, spec, [x_row], _check_time(t))
    with np.errstate(over="ignore"):
        return np.exp(log_haz[0])


def hazard(theta: Theta, spec: ModelSpec, x_row, t: float) -> float:
    """Total hazard h(t | x) = sum_l h_l(t | x)."""
    log_haz, _ = _hazards_at(theta, spec, [x_row], _check_time(t))
    return float(np.exp(_log_total_hazard(log_haz)[0]))


def density(theta: Theta, spec: ModelSpec, x_row, t: float) -> float:
    """Density f(t | x) = S(t | x) h(t | x)."""
    log_haz, cumhaz = _hazards_at(theta, spec, [x_row], _check_time(t))
    return float(np.exp(_log_total_hazard(log_haz)[0] - _sorted_rowsum(cumhaz)[0]))


def winning_probability(theta: Theta, spec: ModelSpec, x_row, t: float) -> np.ndarray:
    """Probability that each group produced an event at time t.

    This is the hazard share ``h_l(t) / h(t)``, equal to the ratio of the
    joint density of (event time, cause l) to the marginal density.
    Components are positive and sum to one.
    """
    log_haz, _ = _hazards_at(theta, spec, [x_row], _check_time(t))
    return _winning(log_haz)[0]


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def sample_events(
    theta: Theta, spec: ModelSpec, covariates, rng: np.random.Generator
):
    """Draw (event time, winning group) for each covariate row.

    Each group's latent time is drawn by inverting the Gumbel(minimum) error:
    ``eps = log(-log(1 - U))`` with U uniform on (0, 1), then
    ``T_l = exp(mu_l + sigma_l * eps_l)``; the event is the smallest latent
    time and the cause its argmin.  Fully deterministic given the generator
    state.
    """
    mu = _mu_rows(theta, spec, covariates)
    n = mu.shape[0]
    u = rng.random(mu.shape)
    # Guard the open-interval requirement: u == 0 would give eps = -inf.
    u = np.maximum(u, np.finfo(float).tiny)
    eps = np.log(-np.log1p(-u))
    log_latent = mu + _sigmas(theta)[None, :] * eps
    causes = np.argmin(log_latent, axis=1)
    times = np.exp(log_latent[np.arange(n), causes])
    return times, causes.astype(np.int64)


def sample_event(theta: Theta, spec: ModelSpec, x_row, rng: np.random.Generator):
    """Single-subject version of :func:`sample_events`."""
    times, causes = sample_events(theta, spec, np.atleast_2d(x_row), rng)
    return float(times[0]), int(causes[0])


# ---------------------------------------------------------------------------
# Expected survival time
# ---------------------------------------------------------------------------

# The automatic cutoff is the smallest time with S(t) <= this survival.
_CUTOFF_SURVIVAL = 1e-6


def _log_time_rule():
    """Fixed quadrature rule in u = log t, as offsets from log(cutoff).

    The window [log cutoff - 40, log cutoff] is split into 12 panels whose
    widths halve toward the cutoff, where S falls fastest, with 16
    Gauss-Legendre nodes each.  The part of the integral below the window is
    at most cutoff * exp(-40).
    """
    span, panels = 40.0, 12
    x, w = np.polynomial.legendre.leggauss(16)
    widths = 0.5 ** np.arange(panels)
    widths *= span / widths.sum()
    left = np.cumsum(widths) - widths - span
    offsets = left[:, None] + 0.5 * widths[:, None] * (x + 1.0)
    return offsets.ravel(), (0.5 * widths[:, None] * w).ravel()


_NODE_OFFSETS, _NODE_WEIGHTS = _log_time_rule()


@dataclass(frozen=True)
class ExpectedSurvivalTime:
    """Expected survival time split into finite and tail parts.

    ``estimate = finite_part + tail_part`` where the tail term
    ``S(cutoff) / h(cutoff)`` always lies inside
    ``[tail_lower, tail_upper]``, the Mill's-ratio sandwich for the exact
    tail integral.
    """

    estimate: float
    tail_lower: float
    tail_upper: float
    cutoff: float
    finite_part: float
    tail_part: float


def _log_survival(mu: np.ndarray, sigma: np.ndarray, log_t: np.ndarray) -> np.ndarray:
    """Per-row log S at one log time per row."""
    _, cumhaz = _hazards(mu, sigma, log_t[:, None])
    return -_sorted_rowsum(cumhaz)


def _auto_cutoff(mu: np.ndarray, sigma: np.ndarray, tail_survival: float) -> np.ndarray:
    """Per-row smallest time with S <= tail_survival, by vectorized bisection.

    Guarantees ``S(cutoff) <= tail_survival`` and, to bisection accuracy,
    ``S(0.99 * cutoff) > tail_survival``.
    """
    target = math.log(tail_survival)
    # The total cumulative hazard -target is reached no later than the first
    # group reaches it alone, and no earlier than the first reaches 1/L of it.
    with np.errstate(over="ignore"):
        hi = np.min(np.exp(mu + sigma * math.log(-target)), axis=-1)
        lo = np.min(np.exp(mu + sigma * math.log(-target / mu.shape[-1])), axis=-1)
    if not np.all(np.isfinite(hi)):
        raise ConfigError("could not bracket the survival cutoff")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        active = (mid > lo) & (mid < hi)
        if not active.any():
            break
        hit = _log_survival(mu, sigma, np.log(mid)) <= target
        hi = np.where(active & hit, mid, hi)
        lo = np.where(active & ~hit, mid, lo)
    # the log-space bisection can leave S(hi) a few ulps above the target
    while True:
        over = np.exp(_log_survival(mu, sigma, np.log(hi))) > tail_survival
        if not over.any():
            return hi
        hi = np.where(over, np.nextafter(hi, np.inf), hi)


def _tail_bounds(mu: np.ndarray, sigma: np.ndarray, cutoff: np.ndarray):
    """Per-row (lower, point, upper) Mill's-ratio sandwich beyond ``cutoff``."""
    log_haz, cumhaz = _hazards(mu, sigma, np.log(cutoff)[:, None])
    s = np.exp(-_sorted_rowsum(cumhaz))
    bad = np.flatnonzero(~(s < 0.5))
    if bad.size:
        i = bad[0]
        raise ConfigError(
            f"cutoff {cutoff[i]} violates S(cutoff) < 0.5 (got S = {s[i]}); "
            "increase the cutoff"
        )
    h = np.exp(_log_total_hazard(log_haz))
    mass = cutoff * h
    bad = np.flatnonzero(~(mass > 1.0))
    if bad.size:
        i = bad[0]
        raise ConfigError(
            f"cutoff {cutoff[i]} violates cutoff * h(cutoff) > 1 (got {mass[i]}); "
            "the tail bounds are not well-defined"
        )
    point = s / h
    sigma_min = float(np.min(sigma))
    lower = point * (1.0 - (1.0 / sigma_min) / mass)
    upper = point * (1.0 + 1.0 / (mass - 1.0))
    return lower, point, upper


def _expected_times(theta: Theta, spec: ModelSpec, covariates, cutoff=None):
    """Batched expected survival time for every covariate row.

    Returns the arrays ``(estimate, tail_lower, tail_upper, cutoff,
    finite_part, tail_part)`` in the field order of
    :class:`ExpectedSurvivalTime`.
    """
    mu = _mu_rows(theta, spec, covariates)
    sigma = _sigmas(theta)
    if cutoff is None:
        cutoff = _auto_cutoff(mu, sigma, _CUTOFF_SURVIVAL)
    else:
        cutoff = np.full(mu.shape[0], _check_time(cutoff))
    lower, point, upper = _tail_bounds(mu, sigma, cutoff)
    # One (n, L) kernel call per node keeps transient memory at the size of mu.
    log_cutoff = np.log(cutoff)
    finite = np.zeros(mu.shape[0])
    for offset, weight in zip(_NODE_OFFSETS, _NODE_WEIGHTS):
        log_t = log_cutoff + offset
        finite += weight * np.exp(log_t + _log_survival(mu, sigma, log_t))
    return finite + point, lower, upper, cutoff, finite, point


def auto_cutoff(
    theta: Theta, spec: ModelSpec, x_row, tail_survival: float = 1e-6
) -> float:
    """Smallest time at which the joint survival drops to ``tail_survival``."""
    if not (0.0 < tail_survival < 1.0):
        raise ConfigError("tail_survival must lie in (0, 1)")
    mu = _mu_rows(theta, spec, [x_row])
    return float(_auto_cutoff(mu, _sigmas(theta), tail_survival)[0])


def tail_integral_bounds(theta: Theta, spec: ModelSpec, x_row, cutoff: float):
    """Mill's-ratio sandwich for the tail integral of S beyond ``cutoff``.

    Returns ``(lower, point, upper)`` where ``point = S(cutoff)/h(cutoff)`` is
    the tail approximation and the exact integral of S over
    ``[cutoff, infinity)`` lies between the bounds.  Requires
    ``S(cutoff) < 0.5`` and ``cutoff * h(cutoff) > 1``.
    """
    cutoff = np.array([_check_time(cutoff)])
    mu = _mu_rows(theta, spec, [x_row])
    return tuple(float(v[0]) for v in _tail_bounds(mu, _sigmas(theta), cutoff))


def expected_survival_time(
    theta: Theta, spec: ModelSpec, x_row, cutoff: float | None = None
) -> ExpectedSurvivalTime:
    """Expected survival time E[T | x] = integral of S(t | x) over t > 0.

    The integral over ``[0, cutoff]`` is evaluated by a fixed 192-node
    Gauss-Legendre rule in log t (relative error below 1e-12 on the finite
    part); the remainder is approximated by ``S(cutoff) / h(cutoff)`` and
    bracketed by the Mill's-ratio bounds.  When ``cutoff`` is omitted it is
    the smallest time with ``S(t) <= 1e-6``.
    """
    parts = _expected_times(theta, spec, [x_row], cutoff)
    return ExpectedSurvivalTime(*(float(v[0]) for v in parts))
