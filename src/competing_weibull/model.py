"""Competing (min-linear) Weibull accelerated failure time model.

The observed log time is the minimum of per-group linear predictors plus
Gumbel(minimum) noise: ``log T = min_l (alpha_l + x_l' beta_l + sigma_l eps_l)``.
Equivalently, T is the minimum of independent Weibull times with scale
``exp(mu_l)`` and shape ``1/sigma_l``.  This module holds the parameter and
data containers and the exact evaluation of the joint survival, hazard,
density, per-group winning probabilities, latent-time sampling, and expected
survival time by quadrature in log t on both sides of a cutoff, bracketed by
Mill's-ratio tail bounds.

All evaluation is done in log space, with the groups in one canonical
order (:class:`_Model`), so results are invariant under group relabelling,
and every function here is a pure function of immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Sequence

import numpy as np

from .errors import ConfigError, DomainError, SpecError

__all__ = [
    "GroupSpec",
    "ModelSpec",
    "GroupParams",
    "Theta",
    "parameter_names",
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


def _is_integer(value) -> bool:
    """A Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A Python or numpy integer or float; a bool is not one."""
    return _is_integer(value) or isinstance(value, (float, np.floating))


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class GroupSpec:
    """Covariate index set of one competing group (columns of the X matrix)."""

    covariate_indices: tuple[int, ...]

    def __init__(self, covariate_indices: Sequence[int]):
        idx = tuple(covariate_indices)
        if not all(map(_is_integer, idx)):
            raise SpecError(f"covariate indices must be integers, got {idx}")
        idx = tuple(map(int, idx))
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
        if not _is_integer(p):
            raise SpecError(f"covariate count must be an integer, got {p!r}")
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
# of a matrix of linear predictors (one row per subject, one column per
# group); the views at one time reach it through ``_at_time``.  Columns are
# in the canonical group order of ``_Model``, so group reductions are plain
# sums along that axis, invariant under group relabelling.
# ---------------------------------------------------------------------------


def group_log_scale(params: GroupParams, x_row, group: GroupSpec) -> float:
    """Linear predictor mu_l = alpha_l + x[A_l] . beta_l for one group, as
    :meth:`_Model.mu` checks and evaluates it for the one-group model."""
    x_row = np.atleast_1d(np.asarray(x_row, dtype=float))
    return float(_Model(Theta([params]), ModelSpec([group], x_row.shape[-1])).mu([x_row])[0, 0])


def _check_time(t: float, allow_zero: bool = False) -> float:
    t = float(t)
    if not math.isfinite(t):
        raise DomainError(f"time must be finite, got {t}")
    if t < 0.0 or (t == 0.0 and not allow_zero):
        raise DomainError(f"time must be positive, got {t}")
    return t


def _group_designs(spec: ModelSpec, covariates: np.ndarray) -> list[np.ndarray]:
    """Each group's own covariate columns, sliced once per covariate matrix
    and stored column by column, so the fit's reductions over rows run down
    whole columns."""
    return [covariates.T[list(g.covariate_indices)].T for g in spec.groups]


def _group_mu(x: np.ndarray, alpha: float, beta: np.ndarray) -> np.ndarray:
    """One group's linear predictor for every row of its design ``x``: a
    numpy reduction, not a BLAS product, so it does not depend on the BLAS
    thread count."""
    return alpha + np.einsum("ij,j->i", x, beta)


def _mu_matrix(theta: Theta, designs: Sequence[np.ndarray]) -> np.ndarray:
    """(n, L) matrix of linear predictors from per-group designs.

    It is stored column by column, and the kernel's arrays inherit that
    layout, so a reduction over the short group axis runs down whole
    columns: about ten times faster than along rows of length L.
    """
    return np.array([_group_mu(x, g.alpha, g.beta) for x, g in zip(designs, theta.groups)]).T


class _Model:
    """A (theta, spec) pair, checked once, with the groups in canonical order.

    Groups are ordered by covariate-index tuple.  Ties occur only in
    evaluation-only specs and break by (alpha, beta, sigma); groups with
    equal keys have equal kernel columns, so a reduction over the groups in
    this order does not depend on their labels.  ``theta``, ``spec`` and
    ``sigma`` are in that order; ``order[k]`` is the label of the k-th
    canonical group, and ``x[..., back]`` returns a per-group result in
    canonical order to the caller's labels.
    """

    def __init__(self, theta: Theta, spec: ModelSpec):
        theta.validate_against(spec)
        order = sorted(
            range(spec.n_groups),
            key=lambda l: (
                spec.groups[l].covariate_indices,
                theta.groups[l].alpha,
                theta.groups[l].beta.tolist(),
                theta.groups[l].sigma,
            ),
        )
        self.theta = Theta([theta.groups[l] for l in order])
        self.spec = ModelSpec([spec.groups[l] for l in order], spec.p)
        self.order = order
        self.back = sorted(range(spec.n_groups), key=order.__getitem__)
        self.sigma = np.array([g.sigma for g in self.theta.groups])

    def mu(self, covariates) -> np.ndarray:
        """(n, L) linear predictors of the rows of a covariate matrix with
        exactly ``spec.p`` columns, all finite, laid out as :func:`_mu_matrix`
        lays them."""
        covariates = np.atleast_2d(np.asarray(covariates, dtype=float))
        if covariates.ndim != 2 or covariates.shape[1] != self.spec.p:
            raise SpecError(
                f"covariate rows have {covariates.shape[-1]} entries but the spec "
                f"has p={self.spec.p}"
            )
        if not np.all(np.isfinite(covariates)):
            raise SpecError("every covariate must be finite")
        return _mu_matrix(self.theta, _group_designs(self.spec, covariates))


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
    log_haz = z - log_t - np.log(sigma)
    return log_haz, cumhaz


def _log_total_hazard(log_haz: np.ndarray) -> np.ndarray:
    """log h(t) = log sum_l h_l(t), reduced over the group axis."""
    m = np.max(log_haz, axis=-1)
    return m + np.log(np.sum(np.exp(log_haz - m[..., None]), axis=-1))


def _winning(log_haz: np.ndarray) -> np.ndarray:
    """Hazard shares h_l(t) / h(t) along the group axis."""
    shifted = np.exp(log_haz - np.max(log_haz, axis=-1)[..., None])
    return shifted / np.sum(shifted, axis=-1)[..., None]


def _at_time(theta: Theta, spec: ModelSpec, covariates, t: float, allow_zero: bool = False):
    """The views' one checked entry: the :class:`_Model` and :func:`_hazards`
    of every row at ``t``, or None at ``t = 0``, which only ``allow_zero`` admits."""
    t = _check_time(t, allow_zero)
    model = _Model(theta, spec)
    mu = model.mu(covariates)
    return model, None if t == 0.0 else _hazards(mu, model.sigma, np.log(t))


def _survival_and_winning(theta: Theta, spec: ModelSpec, covariates, t: float):
    """S(t | x) and the winning-probability rows for every covariate row."""
    model, (log_haz, cumhaz) = _at_time(theta, spec, covariates, t)
    return np.exp(-np.sum(cumhaz, axis=-1)), _winning(log_haz)[:, model.back]


def log_survival(theta: Theta, spec: ModelSpec, x_row, t: float) -> float:
    """log S(t | x); the per-group log survivals add up."""
    _, hazards = _at_time(theta, spec, [x_row], t, allow_zero=True)
    return 0.0 if hazards is None else float(-np.sum(hazards[1], axis=-1)[0])


def survival(theta: Theta, spec: ModelSpec, x_row, t: float) -> float:
    """Joint survival S(t | x) = exp(-sum_l (t / exp(mu_l))^(1/sigma_l)).

    ``t = 0`` returns the right limit 1.0; negative times are a domain error.
    """
    return float(np.exp(log_survival(theta, spec, x_row, t)))


def hazard_by_group(theta: Theta, spec: ModelSpec, x_row, t: float) -> np.ndarray:
    """Per-group hazards (h_1(t), ..., h_L(t)); the total hazard is their sum."""
    model, (log_haz, _) = _at_time(theta, spec, [x_row], t)
    with np.errstate(over="ignore"):
        return np.exp(log_haz[0, model.back])


def hazard(theta: Theta, spec: ModelSpec, x_row, t: float) -> float:
    """Total hazard h(t | x) = sum_l h_l(t | x)."""
    _, (log_haz, _) = _at_time(theta, spec, [x_row], t)
    return float(np.exp(_log_total_hazard(log_haz)[0]))


def density(theta: Theta, spec: ModelSpec, x_row, t: float) -> float:
    """Density f(t | x) = S(t | x) h(t | x)."""
    _, (log_haz, cumhaz) = _at_time(theta, spec, [x_row], t)
    return float(np.exp(_log_total_hazard(log_haz)[0] - np.sum(cumhaz, axis=-1)[0]))


def winning_probability(theta: Theta, spec: ModelSpec, x_row, t: float) -> np.ndarray:
    """Probability that each group produced an event at time t.

    This is the hazard share ``h_l(t) / h(t)``, equal to the ratio of the
    joint density of (event time, cause l) to the marginal density.
    Components are positive and sum to one.
    """
    model, (log_haz, _) = _at_time(theta, spec, [x_row], t)
    return _winning(log_haz)[0, model.back]


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
    # The draws and causes are in the caller's group labels.
    model = _Model(theta, spec)
    mu = model.mu(covariates)[:, model.back]
    n = mu.shape[0]
    u = rng.random(mu.shape)
    # Guard the open-interval requirement: u == 0 would give eps = -inf.
    u = np.maximum(u, np.finfo(float).tiny)
    eps = np.log(-np.log1p(-u))
    log_latent = mu + model.sigma[model.back] * eps
    causes = np.argmin(log_latent, axis=1)
    # A time beyond the doubles becomes 0 or inf, quietly; the caller decides.
    with np.errstate(over="ignore"):
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
# Width in log t of the quadrature windows below and above the cutoff.
_SPAN = 40.0
# Rows per block of node evaluations, which bounds their transient memory.
_ROW_CHUNK = 32
# Growth factors exp(offset / sigma) are tabulated while they stay below
# exp(_MAX_GROWTH); a narrower group is evaluated in log space instead.
_MAX_GROWTH = 700.0


@cache
def _log_time_rule():
    """Fixed quadrature rule in u = log t, built on first use: offsets from
    log(cutoff), the finite window's then the tail window's, and their weights.

    The window [log cutoff - 40, log cutoff] is split into 12 panels whose
    widths halve toward the cutoff, where S falls fastest, with 16
    Gauss-Legendre nodes each.  The part of the integral below the window is
    at most cutoff * exp(-40).  Mirrored about log(cutoff), the same nodes
    and weights integrate the tail window [log cutoff, log cutoff + 40].
    """
    panels = 12
    x, w = np.polynomial.legendre.leggauss(16)
    widths = 0.5 ** np.arange(panels)
    widths *= _SPAN / widths.sum()
    left = np.cumsum(widths) - widths - _SPAN
    offsets = (left[:, None] + 0.5 * widths[:, None] * (x + 1.0)).ravel()
    return np.concatenate([offsets, -offsets]), (0.5 * widths[:, None] * w).ravel()


@dataclass(frozen=True)
class ExpectedSurvivalTime:
    """Expected survival time split into finite and tail parts.

    ``estimate = finite_part + tail_part``: the integrals of S over
    ``[0, cutoff]`` and ``[cutoff, infinity)``, both by quadrature in log t.
    ``[tail_lower, tail_upper]`` is the Mill's-ratio sandwich for the exact
    tail integral, kept as a bracket around ``tail_part``.
    """

    estimate: float
    tail_lower: float
    tail_upper: float
    cutoff: float
    finite_part: float
    tail_part: float


def _auto_cutoff(mu: np.ndarray, sigma: np.ndarray, tail_survival: float) -> np.ndarray:
    """Per-row smallest time with S <= tail_survival, by Newton's method in log t.

    The cutoff is the root of ``g(u) = log sum_l exp((u - mu_l) / sigma_l) -
    log(-log tail_survival)``, which is convex and increasing in u = log t.
    Started at the one-group upper bracket, where g >= 0, Newton falls onto
    the root from above, so each row stops once its u no longer decreases.
    Guarantees ``S(cutoff) <= tail_survival`` and, to rounding,
    ``S(0.99 * cutoff) > tail_survival``.
    """
    log_target = math.log(-math.log(tail_survival))
    # The total cumulative hazard reaches the target no later than the first
    # group reaches it alone.
    u = np.min(mu + sigma * log_target, axis=-1)
    with np.errstate(over="ignore"):
        if not np.all(np.isfinite(np.exp(u))):
            raise ConfigError("could not bracket the survival cutoff")
    # Only rows still moving are evaluated again; a row that stopped would
    # repeat its last step.
    rows = np.arange(mu.shape[0])
    for _ in range(100):
        # every z <= log_target here, as u never exceeds its start
        z = (u[rows, None] - mu[rows]) / sigma
        top = np.max(z, axis=1)
        shifted = np.exp(z - top[:, None])
        total = np.sum(shifted, axis=1)
        new = u[rows] - (top + np.log(total) - log_target) * total / np.sum(shifted / sigma, axis=1)
        down = new < u[rows]
        rows = rows[down]
        if not rows.size:
            break
        u[rows] = new[down]
    # Rounding can leave S(cutoff) a few ulps above the target.  S is summed
    # here as survival() sums it, so the guarantee holds for that function.
    cutoff = np.exp(u)
    rows = np.arange(mu.shape[0])
    while rows.size:
        _, cumhaz = _hazards(mu[rows], sigma, np.log(cutoff[rows])[:, None])
        rows = rows[np.exp(-np.sum(cumhaz, axis=-1)) > tail_survival]
        cutoff[rows] = np.nextafter(cutoff[rows], np.inf)
    return cutoff


def _tail_bounds(cutoff: np.ndarray, amounts: np.ndarray, sigma: np.ndarray):
    """Per-row (lower, point, upper) Mill's-ratio sandwich beyond ``cutoff``.

    ``amounts`` holds the per-group cumulative hazards at the cutoff, so
    ``cutoff * h(cutoff) = sum_l amounts_l / sigma_l``; ``point`` is
    ``S(cutoff) / h(cutoff)``.
    """
    s = np.exp(-np.sum(amounts, axis=1))
    bad = np.flatnonzero(~(s < 0.5))
    if bad.size:
        i = bad[0]
        raise ConfigError(
            f"cutoff {cutoff[i]} violates S(cutoff) < 0.5 (got S = {s[i]}); "
            "increase the cutoff"
        )
    mass = np.sum(amounts / sigma, axis=1)
    bad = np.flatnonzero(~(mass > 1.0))
    if bad.size:
        i = bad[0]
        raise ConfigError(
            f"cutoff {cutoff[i]} violates cutoff * h(cutoff) > 1 (got {mass[i]}); "
            "the tail bounds are not well-defined"
        )
    point = cutoff * s / mass
    lower = point * (1.0 - (1.0 / np.min(sigma)) / mass)
    upper = point * (1.0 + 1.0 / (mass - 1.0))
    return lower, point, upper


def _window_integrals(mu, cutoff, sigma, amounts):
    """Per-row integrals of S over the finite and the tail window of the cutoff.

    At the node u = log cutoff + o, group l's cumulative hazard is
    ``amounts_l * exp(o / sigma_l)``, so one (L, 2K) growth table and the
    cutoff's amounts give log S at every node, and the integrand in u is
    ``cutoff * exp(o - H)``.

    The tail window [log cutoff, log cutoff + 40] is always wide enough:
    ``_tail_bounds`` has checked ``cutoff * h(cutoff) = sum_l H_l / sigma_l >
    1``, and ``H_l * e^(40 / sigma_l) >= (H_l / sigma_l) * 40 e`` since
    ``e^x >= e x``, so H is at least 40 e ~ 109 at the window's far end.
    Beyond it the integrand is below ``cutoff * e^(40 - 109)`` for any sigma,
    and still falling, because ``sum_l H_l / sigma_l > 1`` only grows with t.
    """
    offsets, weights = _log_time_rule()
    k = weights.size
    log_cutoff = np.log(cutoff)
    finite, tail = np.empty(mu.shape[0]), np.empty(mu.shape[0])
    # A cumulative hazard that overflows to inf gives S = 0, which is exact.
    with np.errstate(over="ignore"):
        growth = np.exp(offsets / sigma[:, None])
        for start in range(0, mu.shape[0], _ROW_CHUNK):
            rows = slice(start, start + _ROW_CHUNK)
            cumhaz = np.zeros((amounts[rows].shape[0], offsets.size))
            for l, sigma_l in enumerate(sigma):
                if _SPAN / sigma_l <= _MAX_GROWTH:
                    cumhaz += amounts[rows, l, None] * growth[l]
                else:
                    # exp(40 / sigma) overflows, and an amount that underflowed
                    # at the cutoff may grow to matter in the tail window.
                    z = (log_cutoff[rows] - mu[rows, l]) / sigma_l
                    cumhaz += np.exp(z[:, None] + offsets / sigma_l)
            integrand = np.exp(np.subtract(offsets, cumhaz, out=cumhaz), out=cumhaz)
            finite[rows] = np.einsum("ij,j->i", integrand[:, :k], weights)
            tail[rows] = np.einsum("ij,j->i", integrand[:, k:], weights)
    return cutoff * finite, cutoff * tail


def _expected_times(theta: Theta, spec: ModelSpec, covariates, cutoff=None):
    """Batched expected survival time for every covariate row.

    Returns the arrays ``(estimate, tail_lower, tail_upper, cutoff,
    finite_part, tail_part)`` in the field order of
    :class:`ExpectedSurvivalTime`.
    """
    model = _Model(theta, spec)
    mu, sigma = model.mu(covariates), model.sigma
    auto = _auto_cutoff(mu, sigma, _CUTOFF_SURVIVAL)
    cutoff = auto if cutoff is None else np.full(mu.shape[0], _check_time(cutoff))
    _, amounts = _hazards(mu, sigma, np.log(cutoff)[:, None])
    try:
        lower, _, upper = _tail_bounds(cutoff, amounts, sigma)
    except ConfigError:
        if cutoff is not auto:
            raise
        raise ConfigError(
            f"the expected time supports sigma up to -log({_CUTOFF_SURVIVAL:g}) = "
            f"{-math.log(_CUTOFF_SURVIVAL):.4f}; the largest sigma is {np.max(sigma):g}"
        ) from None
    finite, tail = _window_integrals(mu, cutoff, sigma, amounts)
    # Above the automatic cutoff, the window [cutoff e^-40, cutoff] may start
    # past the bulk of the mass, or hold the drop of S in its widest panels.
    # The automatic cutoff's two windows cover the whole integral instead.
    above = cutoff > auto
    if np.any(above):
        _, auto_amounts = _hazards(mu[above], sigma, np.log(auto[above])[:, None])
        auto_finite, auto_tail = _window_integrals(mu[above], auto[above], sigma, auto_amounts)
        finite[above] = auto_finite + auto_tail - tail[above]
    return finite + tail, lower, upper, cutoff, finite, tail


def auto_cutoff(
    theta: Theta, spec: ModelSpec, x_row, tail_survival: float = 1e-6
) -> float:
    """Smallest time at which the joint survival drops to ``tail_survival``."""
    if not (0.0 < tail_survival < 1.0):
        raise ConfigError("tail_survival must lie in (0, 1)")
    model = _Model(theta, spec)
    return float(_auto_cutoff(model.mu([x_row]), model.sigma, tail_survival)[0])


def tail_integral_bounds(theta: Theta, spec: ModelSpec, x_row, cutoff: float):
    """Mill's-ratio sandwich for the tail integral of S beyond ``cutoff``.

    Returns ``(lower, point, upper)`` where ``point = S(cutoff)/h(cutoff)`` is
    the Mill's-ratio approximation and the exact integral of S over
    ``[cutoff, infinity)`` lies between the bounds.  Requires
    ``S(cutoff) < 0.5`` and ``cutoff * h(cutoff) > 1``.
    """
    model, (_, amounts) = _at_time(theta, spec, [x_row], cutoff)
    return tuple(float(v[0]) for v in _tail_bounds(np.array([float(cutoff)]), amounts, model.sigma))


def expected_survival_time(
    theta: Theta, spec: ModelSpec, x_row, cutoff: float | None = None
) -> ExpectedSurvivalTime:
    """Expected survival time E[T | x] = integral of S(t | x) over t > 0.

    The integral over ``[0, cutoff]`` is evaluated by a fixed 192-node
    Gauss-Legendre rule in log t, and the tail beyond the cutoff by the same
    rule mirrored onto ``[cutoff, cutoff * e^40]``; against closed forms the
    estimate is within rel 1e-12.  The Mill's-ratio bounds bracket the
    tail.  When ``cutoff`` is omitted it is the smallest time with
    ``S(t) <= 1e-6``.  A given cutoff must satisfy ``S(cutoff) < 0.5`` and
    ``cutoff * h(cutoff) > 1``; otherwise ConfigError is raised.  Above the
    automatic cutoff, ``finite_part`` is the whole integral over the
    automatic cutoff's windows less ``tail_part``.  The automatic cutoff
    meets the condition for every sigma below -log(1e-6) = 13.8; where a
    larger sigma fails it, the ConfigError names the largest sigma.
    """
    parts = _expected_times(theta, spec, [x_row], cutoff)
    return ExpectedSurvivalTime(*(float(v[0]) for v in parts))
