"""Penalized maximum-likelihood fitting of the competing Weibull model.

The EM algorithm alternates between an E-step that computes each subject's
winning probabilities at its observed time and an M-step that maximizes the
expected complete log-likelihood group by group.  Each group update runs
one damped Newton ascent (``_ascend``) twice: over (alpha, beta) at fixed
sigma by proximal Newton steps, whose lasso model is solved exactly on the
pattern of zeros and signs it picks, so lasso zeros are exact, and then
over u = 1/sigma at fixed (alpha, beta), where Q_l is concave.  The
fitting convention throughout is to maximize

    Q_l(theta) - lambda1 * exp(-alpha_l) - lambda2 * ||beta_l||_1

per group, i.e. the penalized expected complete log-likelihood.  Each of
its derivatives has one home: ``_group_score`` (the gradient of Q_l, at the
E-step's eta the group's block of the observed score), ``_location_system``
(the M-step's (alpha, beta) system) and ``_pull_intercepts`` (the intercept
penalty's terms).  Every n-long reduction, the linear predictor included,
is a numpy reduction, not a BLAS product, so fits do not depend on the BLAS
thread count.

The fit evaluates the model at the data in one place, ``_Point``: one
kernel call gives the cumulative hazards, the per-subject log-likelihood
terms and their sum, the winning probabilities and the penalized objective,
and the score and closed-form observed information (Louis 1982) follow on
first use.  ``_run_em`` is the one loop that moves from point to point, and
each of its iterations is either an EM map or a Newton step.  A map takes
theta to the M-step's theta at the winning probabilities of the current
point.  Once a map moves theta by less than ``_NEWTON_START``, proximal
Newton steps on the penalized observed log-likelihood take over, from the
same solver as the M-step (``_prox_newton_step``) on all of theta with
sigma boxed, so they may change the zero set; a step that fails a
safeguard hands the fit back to EM.  The same information gives the
standard errors.  The public group-level views, ``q_group`` to ``m_step``,
check theta, eta and the group index in one place, ``_group_inputs``;
the fit's loop pays nothing for those checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import NumericError, SingularHessianError, SpecError
from .model import (
    Dataset,
    GroupParams,
    ModelSpec,
    Theta,
    EULER_GAMMA,
    parameter_names,
    _Model,
    _is_integer,
    _is_real,
    _group_designs,
    _group_mu,
    _hazards,
    _log_total_hazard,
    _mu_matrix,
    _winning,
)

__all__ = [
    "PenaltyConfig",
    "FitConfig",
    "FitResult",
    "QGroupGradients",
    "log_likelihood",
    "e_step",
    "q_group",
    "q_function",
    "penalized_q_group",
    "q_gradients",
    "m_step",
    "fit_em",
    "standard_errors",
    "initialize_theta",
]


@dataclass(frozen=True)
class PenaltyConfig:
    """Lasso-type penalty weights: exponential on intercepts, L1 on betas.

    ``(0, 0)`` recovers the unpenalized MLE.  The intercept penalty
    ``lambda1 * exp(-alpha_l)`` pushes intercepts upward (toward group
    elimination under the min structure), so 0 is the safe default outside
    replication presets.
    """

    lambda1: float = 0.0
    lambda2: float = 0.0

    def __post_init__(self):
        if not (_is_real(self.lambda1) and _is_real(self.lambda2)):
            raise SpecError("penalty weights must be real numbers")
        if not all(0 <= w < math.inf for w in (self.lambda1, self.lambda2)):
            raise SpecError("penalty weights must be finite and nonnegative")


_NEWTON_ITERS = 40  # Newton steps per block of a group update
_NEWTON_TOL = 1e-10  # a step below this, times 1 + |(alpha, beta)|, is not taken
_MAX_BACKTRACKS = 40  # step halvings before an ascent stalls
_CD_SWEEPS = 1000  # coordinate-descent sweeps of the lasso model fallback
_SIGMA_TOL = 1e-12  # a step on 1/sigma below this, times 1 + 1/sigma, is not taken
_NORMAL_MIN = 2.2250738585072014e-308  # smallest normal double
_SIGMA_MAX = 10.0  # upper bound of sigma; sigma_floor is the lower
_JITTER_SCALE = 0.1  # noise scale of the alpha/beta jitter of extra starts
_NEWTON_START = 0.1  # an EM map that moves theta less than this starts Newton steps
_INFO_ROWS = 4096  # rows per block of the observed information's reductions


@dataclass(frozen=True)
class FitConfig:
    """EM controls.

    ``epsilon`` is the stopping tolerance on the Euclidean norm of the
    parameter change made by one EM map or one Newton step (1e-6 suits
    simulation-scale fits; 1e-3 is enough for large noisy data).
    ``max_em_iters`` caps the number of EM maps (one E-step plus one M-step
    each) and Newton steps together.  ``sigma_floor`` keeps every noise
    scale bounded away from zero: the M-step keeps sigma in ``[sigma_floor,
    10]``, so the floor must lie in (0, 10].
    ``n_starts > 1`` enables multi-start: additional starts jitter alpha and
    beta with Gaussian noise of scale 0.1 (seeded by ``seed``), and the
    start with the best final penalized objective wins.
    ``compute_std_errors`` reports :func:`standard_errors` for the winner.
    """

    epsilon: float = 1e-6
    max_em_iters: int = 2000
    sigma_floor: float = 0.01
    n_starts: int = 1
    seed: int = 0
    compute_std_errors: bool = True

    def __post_init__(self):
        if not all(_is_integer(v) for v in (self.max_em_iters, self.n_starts, self.seed)):
            raise SpecError("max_em_iters, n_starts and seed must be integers")
        if not (_is_real(self.epsilon) and _is_real(self.sigma_floor)):
            raise SpecError("epsilon and sigma_floor must be real numbers")
        if not isinstance(self.compute_std_errors, bool):
            raise SpecError("compute_std_errors must be a bool")
        if not 0 < self.epsilon < math.inf:
            raise SpecError("epsilon must be positive and finite")
        if self.max_em_iters < 1 or self.n_starts < 1:
            raise SpecError("iteration counts must be positive")
        if not 0 < self.sigma_floor <= _SIGMA_MAX:
            raise SpecError(f"sigma_floor must lie in (0, {_SIGMA_MAX:g}]")
        if self.seed < 0:
            raise SpecError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True, eq=False)
class FitResult:
    """Outcome of an EM fit.

    ``winning_probs`` holds each subject's group probabilities evaluated at
    its observed time; rows with ``censored_rows`` set are evaluated at the
    censoring time rather than an event time.  ``std_errors`` follows the
    flattened parameter layout of :meth:`Theta.flatten` and is None when the
    observed information could not be inverted (see ``warnings``).
    ``n_iters`` counts EM maps and Newton steps; the traces hold the start
    and then one entry per map output or Newton step.  ``converged`` means
    the last map or Newton step moved theta by less than ``epsilon`` and
    the final penalized objective is finite; such a Newton step is the exact
    minimizer of its model over the zeros and bounds, so it needs no further
    test.  ``kkt_residual`` is the largest violation of the penalized
    objective's KKT conditions at ``theta_hat``: the absolute gradient at
    every alpha, nonzero beta and sigma inside its bounds, the excess of
    ``|score|`` over ``lambda2`` at a zero beta, and an inward gradient at a
    sigma bound.
    """

    theta_hat: Theta
    std_errors: np.ndarray | None
    winning_probs: np.ndarray
    censored_rows: np.ndarray
    loglik_trace: np.ndarray
    penalized_trace: np.ndarray
    converged: bool
    n_iters: int
    warnings: tuple[str, ...] = ()
    kkt_residual: float = math.nan

    @property
    def final_loglik(self) -> float:
        return float(self.loglik_trace[-1])

    @property
    def final_penalized(self) -> float:
        return float(self.penalized_trace[-1])


# ---------------------------------------------------------------------------
# Vectorized internals
# ---------------------------------------------------------------------------


def _check_columns(spec: ModelSpec, data: Dataset) -> None:
    if data.p != spec.p:
        raise SpecError(f"data has p={data.p} covariates, spec expects {spec.p}")


class _Workspace:
    """Per-fit cache: log times, event mask, per-group design matrices, and
    the positions of the parameters in the ``Theta.flatten`` layout.

    The groups are those of ``spec`` in its own order.  Fits and the public
    functions that reduce over groups build it on the spec in canonical
    order (:class:`~competing_weibull.model._Model`), so every sum, matrix
    and factorization is laid out in that order and relabelled fits stay
    bit-identical.
    """

    def __init__(self, spec: ModelSpec, data: Dataset):
        _check_columns(spec, data)
        self.spec = spec
        self.log_t = np.log(data.times)
        self.delta = data.status.astype(float)
        self.x_groups = _group_designs(spec, data.covariates)
        ends = np.cumsum([2 + g.n_covariates for g in spec.groups])
        self.alpha_at = np.concatenate([[0], ends[:-1]])
        self.sigma_at = ends - 1
        self.is_beta = np.ones(ends[-1], dtype=bool)
        self.is_beta[self.alpha_at] = self.is_beta[self.sigma_at] = False
        # The M-step's (alpha, beta) models: the l1 mask and no bounds.
        self.location_box = [
            (np.arange(k + 1) > 0, np.full(k + 1, -math.inf), np.full(k + 1, math.inf))
            for k in (g.n_covariates for g in spec.groups)
        ]


class _Point:
    """A parameter vector evaluated at the data by one kernel call: the
    cumulative hazards, the per-subject log-likelihood terms and their sum,
    the winning probabilities and the penalized objective, all quiet when
    not finite.  The score and observed information come on first use."""

    def __init__(self, work: _Workspace, theta: Theta, penalty: PenaltyConfig = PenaltyConfig()):
        self.work, self.theta = work, theta
        sigma = np.array([g.sigma for g in theta.groups])
        log_haz, self.cumhaz = _hazards(_mu_matrix(theta, work.x_groups), sigma, work.log_t[:, None])
        with np.errstate(over="ignore", invalid="ignore"):
            self.terms = work.delta * _log_total_hazard(log_haz) - np.sum(self.cumhaz, axis=-1)
            self.loglik = float(np.sum(self.terms))
            self.eta = _winning(log_haz)
        self.penalized = _penalized_loglik(self.loglik, theta, penalty)

    @cached_property
    def derivatives(self) -> tuple[np.ndarray, np.ndarray]:
        """Score and observed information at theta (:func:`_score_and_information`)."""
        return _score_and_information(self.work, self.theta, self.cumhaz, self.eta)


def _intercept_penalty(alpha: float, lambda1: float) -> float:
    """``lambda1 * exp(-alpha)``: exactly 0 when lambda1 is, whatever alpha,
    and inf when the exponential overflows."""
    if lambda1 == 0.0:
        return 0.0
    try:
        return lambda1 * math.exp(-alpha)
    except OverflowError:
        return math.inf


def _pull_intercepts(params, at, lambda1: float, grad: np.ndarray, neg_hess=None) -> None:
    """Subtracts the intercept penalties of the alphas at positions ``at`` of
    ``params`` from the objective whose ascent gradient is ``grad`` and, when
    given, negated Hessian ``neg_hess``: ``lambda1 * exp(-alpha)`` is at once
    the penalty, minus its alpha-derivative and its curvature."""
    for j in at:
        pull = _intercept_penalty(params[j], lambda1)
        grad[j] += pull
        if neg_hess is not None:
            neg_hess[j, j] += pull


def _no_worse(value: float, current: float) -> bool:
    """Whether an objective ``value`` is not below ``current`` beyond rounding.

    A value that is not finite passes only when it equals ``current``: while
    the intercept penalty overflows, the objective is -inf before and after
    a step.
    """
    return value == current or (
        math.isfinite(value) and value >= current - 1e-12 * (1.0 + abs(current))
    )


def _penalized(q: float, alpha: float, beta: np.ndarray, penalty: PenaltyConfig) -> float:
    """``q`` minus one group's penalties, always subtracted in this order."""
    return (
        q
        - _intercept_penalty(alpha, penalty.lambda1)
        - penalty.lambda2 * float(np.sum(np.abs(beta)))
    )


def _penalized_loglik(loglik: float, theta: Theta, penalty: PenaltyConfig) -> float:
    return loglik + sum(_penalized(0.0, g.alpha, g.beta, penalty) for g in theta.groups)


def log_likelihood(theta: Theta, spec: ModelSpec, data: Dataset) -> float:
    """Observed log-likelihood: sum of delta*log h(T) + log S(T) over subjects."""
    model = _Model(theta, spec)
    terms = _Point(_Workspace(model.spec, data), model.theta).terms
    bad = np.flatnonzero(~np.isfinite(terms))
    if bad.size:
        raise NumericError(
            f"non-finite log-likelihood contribution at subject {int(bad[0])} "
            f"(time {data.times[bad[0]]:g})"
        )
    return float(np.sum(terms))


def e_step(theta: Theta, spec: ModelSpec, data: Dataset) -> np.ndarray:
    """Winning probabilities eta[i, l] at each subject's observed time.

    Rows sum to one.  Censored subjects get probabilities evaluated at their
    censoring time; they do not enter the fitting objective but are reported
    for inspection.
    """
    model = _Model(theta, spec)
    return _Point(_Workspace(model.spec, data), model.theta).eta[:, model.back]


def _q_group_values(
    work: _Workspace, l: int, alpha: float, beta: np.ndarray, sigma: float, eta_l: np.ndarray
):
    """Q_l at (alpha, beta, sigma), plus the arrays its gradient reuses."""
    mu = _group_mu(work.x_groups[l], alpha, beta)
    log_haz, cumhaz = _hazards(mu, sigma, work.log_t)
    weight = work.delta * eta_l
    # A zero weight against an infinite log hazard gives nan, quietly, and an
    # overflowing sum gives -inf, which the M-step rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        q = float(np.sum(weight * log_haz) - np.sum(cumhaz))
    return q, (mu, cumhaz, weight)


def _group_inputs(theta: Theta, spec: ModelSpec, data: Dataset, eta, l: int = 0):
    """The workspace and float eta of a group-level view, once theta fits the
    spec, eta is an (n, L) array of probabilities in [0, 1] and the group
    index ``l`` lies in 0..L-1.  The fit's loop calls ``_em_map`` directly."""
    theta.validate_against(spec)
    work, eta = _Workspace(spec, data), np.asarray(eta, dtype=float)
    if eta.shape != (data.n, spec.n_groups) or not np.all((eta >= 0.0) & (eta <= 1.0)):
        raise SpecError(f"eta must be a ({data.n}, {spec.n_groups}) array of probabilities in [0, 1]")
    if not (_is_integer(l) and 0 <= l < spec.n_groups):
        raise SpecError(f"group index {l} is not in 0..{spec.n_groups - 1}")
    return work, eta


def q_group(l: int, theta: Theta, spec: ModelSpec, data: Dataset, eta) -> float:
    """Group-l term of the expected complete log-likelihood.

    Equals ``sum_i delta_i eta_il [(1/sigma - 1) log T_i - log sigma -
    mu_il / sigma] - (T_i / exp(mu_il))^(1/sigma)``.
    """
    work, eta = _group_inputs(theta, spec, data, eta, l)
    g = theta.groups[l]
    return _q_group_values(work, l, g.alpha, g.beta, g.sigma, eta[:, l])[0]


def q_function(theta: Theta, spec: ModelSpec, data: Dataset, eta) -> float:
    """Expected complete log-likelihood; decomposes exactly as the sum of
    the group terms, which is what makes the M-step separable.  The terms
    are summed in canonical group order, so relabelling does not change it."""
    work, eta = _group_inputs(theta, spec, data, eta)
    terms = [
        _q_group_values(work, l, g.alpha, g.beta, g.sigma, eta[:, l])[0]
        for l, g in enumerate(theta.groups)
    ]
    return sum(terms[l] for l in _Model(theta, spec).order)


def penalized_q_group(
    l: int, theta: Theta, spec: ModelSpec, data: Dataset, eta, penalty: PenaltyConfig
) -> float:
    """Group objective maximized in the M-step: Q_l minus its penalties."""
    q = q_group(l, theta, spec, data, eta)
    return _penalized(q, theta.groups[l].alpha, theta.groups[l].beta, penalty)


@dataclass(frozen=True, eq=False)
class QGroupGradients:
    """Ascent gradient of the penalized group objective.

    ``beta`` uses the sign subgradient of the L1 term (zero at exact zeros);
    the M-step's exact zeros come instead from the proximal Newton step,
    which solves its lasso model exactly (:func:`_prox_newton_step`).
    """

    alpha: float
    beta: np.ndarray
    sigma: float


def _group_score(a: np.ndarray, x: np.ndarray, g: GroupParams, log_t, h, w) -> np.ndarray:
    """Gradient of Q_l in (alpha, beta, sigma) at ``g`` for the group design
    ``x``, cumulative hazards ``h`` and w = delta * eta_l; at eta =
    e_step(theta) it is the group's block of the observed score (Fisher's
    identity).  With d = log T - mu, minus the log hazard's gradient,
    a = [1, x, d / sigma + 1] / sigma, is written into ``a``, one row per
    parameter.  The gradient is ``sum (H - w) a`` but for the sigma entry:
    ``sum (d H - (d + sigma) w) / sigma^2`` in one pairwise sum, where
    ``sum (H - w) a - sum H / sigma`` would cancel two sums of order n.
    """
    d = log_t - _group_mu(x, g.alpha, g.beta)
    a[0] = 1.0 / g.sigma
    np.divide(x.T, g.sigma, out=a[1:-1])
    a[-1] = (d / g.sigma + 1.0) / g.sigma
    score = np.einsum("ji,i->j", a, h - w)
    # numpy's power overflows to inf where a Python float's raises
    score[-1] = np.sum(d * h - (d + g.sigma) * w) / np.float64(g.sigma) ** 2
    return score


def q_gradients(
    l: int, theta: Theta, spec: ModelSpec, data: Dataset, eta, penalty: PenaltyConfig
) -> QGroupGradients:
    """Analytic ascent gradient of the penalized group objective: that of
    Q_l at the given eta (:func:`_group_score`), with the intercept pull
    (:func:`_pull_intercepts`) and ``-lambda2 sign(beta)`` added."""
    work, eta = _group_inputs(theta, spec, data, eta, l)
    g, x = theta.groups[l], work.x_groups[l]
    _, (_, cumhaz, weight) = _q_group_values(work, l, g.alpha, g.beta, g.sigma, eta[:, l])
    a = np.empty((x.shape[1] + 2, x.shape[0]))
    with np.errstate(over="ignore", invalid="ignore"):
        grad = _group_score(a, x, g, work.log_t, cumhaz, weight)
    _pull_intercepts((g.alpha,), (0,), penalty.lambda1, grad)
    g_beta = grad[1:-1] - penalty.lambda2 * np.sign(g.beta)
    return QGroupGradients(float(grad[0]), g_beta, float(grad[-1]))


def _score_and_information(work: _Workspace, theta: Theta, cumhaz: np.ndarray, eta: np.ndarray):
    """Score and observed information of the log-likelihood at ``theta`` in
    the ``Theta.flatten`` layout, from the kernel's cumulative hazards and the
    winning probabilities at ``theta`` (Louis 1982).

    Per group, the log hazard has gradient -a (:func:`_group_score`, which
    gives the score block), the cumulative hazard H has gradient
    -H (a - e / sigma) with e the unit vector of sigma, and w = delta * eta_l.
    The information is sum delta (eta a)(eta a)' over all pairs of groups,
    with eta a the stacked eta_l a_l, plus per group

        sum (H - w) a a' - (e (sum w a)' + (sum w a) e') / sigma
        + e e' sum (w - H) / sigma^2.

    The reductions run over blocks of ``_INFO_ROWS`` rows laid out in the
    workspace's group order, the canonical one in a fit, so the result does
    not depend on the group labelling, and its memory does not grow with n.
    Entries that overflow come out non-finite, quietly.
    """
    d = theta.n_params
    score = np.zeros(d)
    info = np.zeros((d, d))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, work.delta.shape[0], _INFO_ROWS):
            rows = slice(start, start + _INFO_ROWS)
            delta = work.delta[rows]
            eta_a = np.empty((d, delta.shape[0]))  # a, then eta a, one row per parameter
            for l, g in enumerate(theta.groups):
                block = slice(work.alpha_at[l], work.sigma_at[l] + 1)
                a = eta_a[block]
                h, w = cumhaz[rows, l], delta * eta[rows, l]
                score[block] += _group_score(a, work.x_groups[l][rows], g, work.log_t[rows], h, w)
                excess = h - w
                own = np.einsum("ji,i,ki->jk", a, excess, a)
                w_a = np.einsum("ji,i->j", a, w) / g.sigma
                own[-1] -= w_a
                own[:, -1] -= w_a
                # numpy's power overflows to inf where a Python float's raises
                own[-1, -1] -= float(np.sum(excess)) / np.float64(g.sigma) ** 2
                info[block, block] += own
                a *= eta[rows, l]
            info += np.einsum("ji,i,ki->jk", eta_a, delta, eta_a)
    return score, np.triu(info) + np.triu(info, 1).T


# ---------------------------------------------------------------------------
# M-step
# ---------------------------------------------------------------------------


def _location_system(x: np.ndarray, sigma: float, terms) -> tuple[np.ndarray, np.ndarray]:
    """Ascent gradient and negated Hessian of Q_l in (alpha, beta) for the
    group design ``x``, from the arrays :func:`_q_group_values` returned at
    the same (alpha, beta, sigma): ``X'(H - w) / sigma`` and
    ``X'diag(H / sigma^2)X``, with X = [1, x] and H the cumulative hazards.
    Far from the data they overflow; callers treat a system that is not
    finite as a stalled step.
    """
    _, cumhaz, weight = terms
    k = x.shape[1]
    grad, curv = np.empty(k + 1), np.empty((k + 1, k + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        resid, h = (cumhaz - weight) / sigma, cumhaz / sigma**2
        grad[0] = np.sum(resid)
        grad[1:] = np.einsum("ij,i->j", x, resid)
        curv[0, 0] = np.sum(h)
        xh = x * h[:, None]
        curv[0, 1:] = curv[1:, 0] = np.sum(xh, axis=0)
        curv[1:, 1:] = np.einsum("ij,ik->jk", xh, x)
    return grad, curv


def _prox_newton_step(curv, grad, x, l1, lambda2, lower, upper) -> np.ndarray:
    """Proximal Newton step from ``x`` (Lee, Sun & Saunders 2014): the ``s``
    that minimizes

        -grad . s + s . curv s / 2 + lambda2 sum_{j in l1} |x_j + s_j|

    subject to ``lower <= x + s <= upper``, the local model of minus a
    penalized objective with ascent gradient ``grad`` and negated Hessian
    ``curv``.  The model is solved exactly on the pattern of ``x`` first:
    l1 zeros held at 0, the other signs kept, coordinates on a bound held
    there.  When that fails the model's KKT conditions, cyclic coordinate
    descent (soft-thresholding the l1 coordinates, clipping the bounded
    ones; Friedman, Hastie & Tibshirani 2010) finds the pattern, and the
    model is solved exactly again there; coordinates without positive
    curvature stay put in the descent.  At unit length a zeroed coordinate
    becomes exactly 0.  Far from the data the arithmetic may overflow;
    callers reject a step that is not finite.
    """
    lasso = lambda2 > 0.0
    room_lo, room_hi = lower - x, upper - x

    def pattern_step(s):
        """The model's minimizer with the zeros, signs and bounds of ``x + s``
        held, or None when it fails the model's KKT conditions."""
        signs = np.where(l1, np.sign(x + s), 0.0) if lasso else np.zeros(x.shape[0])
        zero = l1 & (signs == 0.0) & lasso
        low, high = s <= room_lo, s >= room_hi
        held = zero | low | high
        pinned, free = held.any(), ~held
        step = np.where(low, room_lo, np.where(high, room_hi, -x))
        rhs = grad[free] - lambda2 * signs[free]
        if pinned:
            rhs -= curv[free][:, held] @ step[held]
        try:
            step[free] = np.linalg.solve(curv[free][:, free], rhs)
        except np.linalg.LinAlgError:
            return None
        if not (np.all(np.isfinite(step)) and np.all((step >= room_lo) & (step <= room_hi))):
            return None
        if not (lasso or pinned):
            return step
        # grad - curv @ step is minus the model's smooth gradient at x + step.
        resid = grad - curv @ step
        kept = free & l1
        if (
            (not lasso or np.all(np.sign(x[kept] + step[kept]) == signs[kept]))
            and np.all(np.abs(resid[zero]) <= lambda2 * (1.0 + 1e-9))
            and np.all(resid[low] <= 0.0)
            and np.all(resid[high] >= 0.0)
        ):
            return step
        return None

    with np.errstate(over="ignore", invalid="ignore"):
        step = pattern_step(np.zeros(x.shape[0]))
        if step is not None:
            return step
        step = np.zeros(x.shape[0])
        resid = grad.copy()  # grad - curv @ step
        is_l1, lows, highs = l1.tolist(), room_lo.tolist(), room_hi.tolist()
        for _ in range(_CD_SWEEPS):
            largest = 0.0
            for j in range(step.shape[0]):
                a_jj = curv[j, j]
                if not (a_jj > 0.0 and math.isfinite(a_jj)):
                    continue
                target = resid[j] + a_jj * step[j]
                if is_l1[j]:
                    b = x[j]
                    z = b * a_jj + target
                    z = math.copysign(max(abs(z) - lambda2, 0.0), z) / a_jj
                    new = -b if z == 0.0 else z - b
                else:
                    new = min(max(target / a_jj, lows[j]), highs[j])
                change = new - step[j]
                if change:
                    resid -= curv[:, j] * change
                    step[j] = new
                    largest = max(largest, abs(change))
            if largest <= 1e-15 * (1.0 + float(np.max(np.abs(step)))):
                break
        polished = pattern_step(step)
    return step if polished is None else polished


def _ascend(objective, newton_step, x, lower, upper, tol):
    """Damped Newton ascent of ``objective`` from ``x`` within the box
    ``[lower, upper]`` (Boyd & Vandenberghe 2004, section 9.5).

    ``objective(x)`` returns the value and the arrays that
    ``newton_step(x, arrays)`` reuses; the step is an array, or None where
    it cannot be taken.  Each step is halved until the objective does not
    decrease (:func:`_no_worse`), and the new point is clipped into the box;
    a full step aimed at a bound lands on it exactly.  The ascent ends at a
    step below ``tol * (1 + |x|_1)`` or after ``_NEWTON_ITERS`` steps.
    Returns the last accepted point, its arrays, and whether the ascent
    stalled: a step was None or not finite, or no halving was accepted.
    """
    current, arrays = objective(x)
    for _ in range(_NEWTON_ITERS):
        step = newton_step(x, arrays)
        size = math.nan if step is None else float(np.max(np.abs(step)))
        if not math.isfinite(size):
            return x, arrays, True
        if size <= tol * (1.0 + float(np.sum(np.abs(x)))):
            break
        length = 1.0
        for _ in range(_MAX_BACKTRACKS):
            new = x + length * step
            if length == 1.0:
                new = np.where(step == lower - x, lower, np.where(step == upper - x, upper, new))
            new = np.minimum(np.maximum(new, lower), upper)
            value, new_arrays = objective(new)
            if _no_worse(value, current):
                break
            length *= 0.5
        else:
            return x, arrays, True
        x, current, arrays = new, value, new_arrays
    return x, arrays, False


def _update_group(
    work: _Workspace,
    l: int,
    params: GroupParams,
    eta_l: np.ndarray,
    penalty: PenaltyConfig,
    sigma_floor: float,
) -> tuple[GroupParams, bool]:
    """One M-step for a single group, from ``params`` with its sigma clamped
    into ``[sigma_floor, _SIGMA_MAX]``: one :func:`_ascend` of the penalized
    group objective over (alpha, beta) at that sigma, by proximal Newton
    steps (:func:`_prox_newton_step`), then one of Q_l over u = 1/sigma
    within the same bounds at the new (alpha, beta).
    While ``lambda1 * exp(-alpha)`` overflows, the (alpha, beta) step is +1
    in alpha.  Never decreases the penalized group objective.
    Returns the new parameters and whether the (alpha, beta) ascent stalled;
    they then stay at its last accepted step, and sigma is still
    re-maximized.
    """
    x, (l1, lower, upper) = work.x_groups[l], work.location_box[l]
    sigma = min(max(params.sigma, sigma_floor), _SIGMA_MAX)

    def location_value(coef: np.ndarray):
        alpha, beta = float(coef[0]), coef[1:]
        q, terms = _q_group_values(work, l, alpha, beta, sigma, eta_l)
        return _penalized(q, alpha, beta, penalty), terms

    def location_step(coef: np.ndarray, terms):
        if math.isinf(_intercept_penalty(coef[0], penalty.lambda1)):
            # exp(-alpha) overflows, so the penalty dominates the model: take
            # the limit of its own Newton step, which is +1 in alpha.
            step = np.zeros(coef.shape[0])
            step[0] = 1.0
            return step
        grad, curv = _location_system(x, sigma, terms)
        _pull_intercepts(coef, (0,), penalty.lambda1, grad, curv)
        if not (np.all(np.isfinite(grad)) and np.all(np.isfinite(curv))):
            return None
        # At unit length the new coefficients are the model's minimizer,
        # exact zeros included.
        return _prox_newton_step(curv, grad, coef, l1, penalty.lambda2, lower, upper)

    start = np.concatenate([[params.alpha], params.beta])
    coef, (mu, _, weight), stalled = _ascend(
        location_value, location_step, start, lower, upper, _NEWTON_TOL
    )

    # The penalties do not involve sigma: maximize Q_l alone with mu fixed.
    # With d = log T - mu and the constant dropped, Q_l is the concave
    # q(u) = u sum(weight d) + sum(weight) log u - sum exp(u d).
    d = work.log_t - mu
    s_weight, s_weighted_d = float(np.sum(weight)), float(np.sum(weight * d))
    u_lo, u_hi = 1.0 / _SIGMA_MAX, 1.0 / sigma_floor

    def sigma_value(point: np.ndarray):
        u = float(point[0])
        with np.errstate(over="ignore", invalid="ignore"):
            cumhaz = np.exp(u * d)
            d_cumhaz = d * cumhaz
            value = u * s_weighted_d + s_weight * math.log(u) - float(np.sum(cumhaz))
            first = s_weighted_d + s_weight / u - float(np.sum(d_cumhaz))
            second = -s_weight / u**2 - float(np.sum(d * d_cumhaz))
        return value, (first, second)

    def sigma_step(point: np.ndarray, derivatives):
        u, (first, second) = float(point[0]), derivatives
        if not math.isfinite(first):
            # exp(u d) overflows only where q'(u) < 0, and Newton has no step
            # there: go halfway to the lower bound in log u.
            target = math.sqrt(u_lo * u)
        elif -second >= _NORMAL_MIN:
            target = u + first / -second
        else:
            # A curvature below the smallest normal double means the weights
            # and hazards have underflowed: q has no resolution, sigma stays.
            return None
        return np.array([min(max(target, u_lo), u_hi) - u])

    u0 = 1.0 / sigma
    (u,), _, _ = _ascend(
        sigma_value, sigma_step, np.array([u0]), np.array([u_lo]), np.array([u_hi]), _SIGMA_TOL
    )
    # The bounds are returned exactly, not as the reciprocal of their reciprocal.
    if u != u0:
        sigma = sigma_floor if u == u_hi else _SIGMA_MAX if u == u_lo else 1.0 / u
    return GroupParams(float(coef[0]), coef[1:], sigma), stalled


def _em_map(
    work: _Workspace, theta: Theta, eta: np.ndarray, penalty: PenaltyConfig, sigma_floor: float
) -> tuple[Theta, list[int]]:
    """The M-step's theta from ``theta`` given eta, and the groups whose
    (alpha, beta) ascent stalled."""
    updates = [
        _update_group(work, l, g, eta[:, l], penalty, sigma_floor)
        for l, g in enumerate(theta.groups)
    ]
    return Theta([g for g, _ in updates]), [l for l, (_, stalled) in enumerate(updates) if stalled]


def m_step(
    theta: Theta,
    spec: ModelSpec,
    data: Dataset,
    eta,
    penalty: PenaltyConfig,
    config: FitConfig,
) -> Theta:
    """One M-step: update every group independently given eta.

    Groups are separable, so updating them in any order yields the same
    result.  A group whose (alpha, beta) ascent stalls keeps the alpha
    and beta of its last accepted step (its start if none was accepted), and
    its sigma is still re-maximized.
    """
    work, eta = _group_inputs(theta, spec, data, eta)
    return _em_map(work, theta, eta, penalty, config.sigma_floor)[0]


# ---------------------------------------------------------------------------
# Initialization and the EM driver
# ---------------------------------------------------------------------------


def initialize_theta(spec: ModelSpec, data: Dataset) -> Theta:
    """Default start: a per-group log-time least-squares fit.

    Each group's (alpha, beta) comes from OLS of log T on its own covariates
    over the event rows, with the intercept shifted by the Gumbel error mean;
    sigma starts at 1.  Deterministic and group-local, so relabelling groups
    relabels the initialization.
    """
    _check_columns(spec, data)
    log_t = np.log(data.times)
    events = data.status == 1
    groups = []
    for group in spec.groups:
        cols = list(group.covariate_indices)
        rows = events if int(events.sum()) >= len(cols) + 2 else np.ones(data.n, bool)
        y = log_t[rows]
        design = np.column_stack([np.ones(y.shape[0]), data.covariates[rows][:, cols]])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = y - design @ coef
        dof = max(y.shape[0] - design.shape[1], 1)
        sigma_res = max(float(np.sqrt(np.sum(resid**2) / dof)) * math.sqrt(6.0) / math.pi, 0.05)
        alpha = float(coef[0]) + EULER_GAMMA * sigma_res
        groups.append(GroupParams(alpha, coef[1:], 1.0))
    return Theta(groups)


def _jittered(theta: Theta, rng: np.random.Generator) -> Theta:
    return Theta([
        GroupParams(
            g.alpha + _JITTER_SCALE * rng.standard_normal(),
            g.beta + _JITTER_SCALE * rng.standard_normal(g.beta.shape[0]),
            g.sigma,
        )
        for g in theta.groups
    ])


def _newton_system(point: _Point, penalty: PenaltyConfig):
    """Ascent gradient and negated Hessian of the smooth part of the
    penalized observed objective at ``point``: the score plus ``lambda1
    exp(-alpha)`` on the alphas, and the information plus ``lambda1
    exp(-alpha)`` on the alpha diagonal (:func:`_pull_intercepts`).  The
    lasso term is left to the proximal Newton model and the KKT residual,
    which take it exactly.
    """
    score, info = point.derivatives
    grad, neg_hess = score.copy(), info.copy()
    _pull_intercepts(point.theta.flatten(), point.work.alpha_at, penalty.lambda1, grad, neg_hess)
    return grad, neg_hess


def _kkt_residual(point: _Point, penalty: PenaltyConfig, sigma_floor: float) -> float:
    """The largest violation of the penalized objective's KKT conditions at
    ``point``: the absolute gradient at every alpha, every nonzero beta and
    every sigma inside (sigma_floor, _SIGMA_MAX), the excess of ``|score|``
    over lambda2 at a zero beta, and the inward gradient at a sigma on a
    bound; not finite when the score is not.
    """
    grad, _ = _newton_system(point, penalty)
    work, x = point.work, point.theta.flatten()
    betas, sigmas = work.is_beta, work.sigma_at
    grad[betas] -= penalty.lambda2 * np.sign(x[betas])
    resid = np.abs(grad)
    zero = betas & (x == 0.0)
    resid[zero] = np.maximum(resid[zero] - penalty.lambda2, 0.0)
    sigma = x[sigmas]
    low, high = sigmas[sigma <= sigma_floor], sigmas[sigma >= _SIGMA_MAX]
    resid[low] = np.maximum(grad[low], 0.0)
    resid[high] = np.maximum(-grad[high], 0.0)
    return float(np.max(resid))


def _newton_point(point: _Point, penalty: PenaltyConfig, sigma_floor: float):
    """One proximal Newton step on the penalized observed objective from
    ``point``: ``(step, new point)``, or None when a safeguard fails.

    The step is :func:`_prox_newton_step` on all of theta, with the betas
    under the lasso and each sigma boxed in ``[sigma_floor, _SIGMA_MAX]``,
    so it may zero or revive a beta and move a sigma onto or off a bound.
    It is refused only when the negated Hessian's block on the coordinates
    free at ``point`` (every alpha, every sigma inside its bounds, and every
    beta, or only the nonzero ones when lambda2 > 0) has no Cholesky factor,
    when the new point is not finite, or when the penalized objective
    decreases.
    """
    work, x = point.work, point.theta.flatten()
    grad, neg_hess = _newton_system(point, penalty)
    lower, upper = np.full(x.shape[0], -math.inf), np.full(x.shape[0], math.inf)
    lower[work.sigma_at], upper[work.sigma_at] = sigma_floor, _SIGMA_MAX
    free = (x > lower) & (x < upper) & ~(work.is_beta & (x == 0.0) & (penalty.lambda2 > 0.0))
    block = neg_hess[np.ix_(free, free)]
    if not (np.all(np.isfinite(grad)) and np.all(np.isfinite(block))):
        return None
    try:
        np.linalg.cholesky(block)
    except np.linalg.LinAlgError:
        return None
    step = _prox_newton_step(neg_hess, grad, x, work.is_beta, penalty.lambda2, lower, upper)
    # x + step lands on a bound it is held at only to rounding.
    new = np.minimum(np.maximum(x + step, lower), upper)
    if not np.all(np.isfinite(new)):
        return None
    candidate = _Point(work, Theta.from_flat(new, work.spec), penalty)
    if not (math.isfinite(candidate.penalized) and _no_worse(candidate.penalized, point.penalized)):
        return None
    return step, candidate


def _run_em(work: _Workspace, penalty: PenaltyConfig, config: FitConfig, theta: Theta, labels):
    """EM maps and Newton steps from ``theta``; returns the
    :class:`FitResult` without standard errors and the observed information
    at its ``theta_hat``, both in the workspace's group order.  Warnings
    name group ``l`` as ``labels[l]``.

    Each iteration moves from the current point by one EM map
    (:func:`_em_map` at the point's winning probabilities) or one Newton
    step (:func:`_newton_point`).  A map that moves theta by less than
    ``_NEWTON_START`` hands over to Newton steps, which go on until one fails
    a safeguard; an EM map then follows, and Newton steps again if it too
    moved theta by less than ``_NEWTON_START``.  A map or a Newton step that
    moves theta by less than ``epsilon`` converges: such a Newton step is
    already the exact minimizer of its model over the zeros and bounds.
    That test comes before the budget of ``max_em_iters`` iterations.  Lasso
    zeros stay exact and sigma stays within its bounds.
    """
    # The evaluation of each iteration's output point gives its trace entry
    # and the next E-step.
    start = Theta([
        GroupParams(g.alpha, g.beta, min(max(g.sigma, config.sigma_floor), _SIGMA_MAX))
        for g in theta.groups
    ])
    point = _Point(work, start, penalty)
    loglik_trace, penalized_trace = [point.loglik], [point.penalized]
    warnings: list[str] = []
    converged = newton = False

    while len(loglik_trace) <= config.max_em_iters:
        taken = _newton_point(point, penalty, config.sigma_floor) if newton else None
        if taken is not None:
            step, point = taken
            moved = math.hypot(*step)
        else:
            m = len(loglik_trace) - 1
            theta, stalled = _em_map(work, point.theta, point.eta, penalty, config.sigma_floor)
            warnings.extend(
                f"iteration {m}: group {labels[l]} (alpha, beta) line search stalled; "
                "alpha and beta kept, sigma re-maximized"
                for l in stalled
            )
            new = _Point(work, theta, penalty)
            moved = math.hypot(*(new.theta.flatten() - point.theta.flatten()))
            point = new
            newton = moved < _NEWTON_START
        converged = moved < config.epsilon
        loglik_trace.append(point.loglik)
        penalized_trace.append(point.penalized)
        if converged:
            break
    warnings.extend(
        f"group {labels[l]} eliminated: its cumulative hazard underflows to 0 at every "
        "subject, so its alpha and sigma are not determined by the data"
        for l in np.flatnonzero(np.all(point.cumhaz == 0.0, axis=0))
    )

    result = FitResult(
        theta_hat=point.theta,
        std_errors=None,
        winning_probs=point.eta,
        censored_rows=work.delta == 0,
        loglik_trace=np.asarray(loglik_trace),
        penalized_trace=np.asarray(penalized_trace),
        converged=converged and math.isfinite(penalized_trace[-1]),
        n_iters=len(loglik_trace) - 1,
        warnings=tuple(warnings),
        kkt_residual=_kkt_residual(point, penalty, config.sigma_floor),
    )
    return result, point.derivatives[1]


def fit_em(
    spec: ModelSpec,
    data: Dataset,
    penalty: PenaltyConfig | None = None,
    config: FitConfig | None = None,
    theta_init: Theta | None = None,
) -> FitResult:
    """Fit the model by EM with a Newton finish, stopping when an EM map or
    a Newton step moves theta by less than ``config.epsilon`` or the budget
    of ``config.max_em_iters`` maps and steps runs out.

    Non-convergence is reported through ``converged=False``, never raised.
    With ``theta_init`` omitted the default initialization is used, plus
    jittered restarts when ``config.n_starts > 1``; the run with the best
    final penalized objective is returned.  Its standard errors come from
    the observed information that the fit computed at ``theta_hat``, so they
    cost no further evaluation of the model; ``kkt_residual`` reports how
    far ``theta_hat`` is from meeting the KKT conditions.
    """
    penalty = penalty or PenaltyConfig()
    config = config or FitConfig()
    spec.check_identifiable()
    if theta_init is not None:
        starts = [theta_init]
    else:
        base = initialize_theta(spec, data)
        starts = [base]
        for k in range(1, config.n_starts):
            rng = np.random.default_rng(np.random.SeedSequence([config.seed, k]))
            starts.append(_jittered(base, rng))

    # The fit runs with the groups in canonical order, so relabelled fits are
    # bit-identical; its results return to the caller's labels here.  The
    # spec is identifiable, so every start has the same order.
    models = [_Model(start, spec) for start in starts]
    order, back = models[0].order, models[0].back
    work = _Workspace(models[0].spec, data)
    best = None
    for model in models:
        result, info = _run_em(work, penalty, config, model.theta, order)
        if best is None or result.final_penalized > best[0].final_penalized:
            best = result, info

    result, info = best
    warnings = list(result.warnings)
    std = None
    if config.compute_std_errors:
        try:
            std = _standard_errors(info, spec, order)
        except (SingularHessianError, NumericError) as exc:
            warnings.append(f"standard errors unavailable: {exc}")
    return replace(
        result,
        theta_hat=Theta([result.theta_hat.groups[k] for k in back]),
        std_errors=std,
        winning_probs=result.winning_probs[:, back],
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# Standard errors
# ---------------------------------------------------------------------------


def standard_errors(theta_hat: Theta, spec: ModelSpec, data: Dataset) -> np.ndarray:
    """Inverse-observed-information standard errors at the fitted parameters.

    The observed information is the closed form of
    :func:`_score_and_information`, from one evaluation of the model.
    Raises :class:`SingularHessianError` naming the near-null directions when
    it is not positive definite, which typically signals an eliminated or
    duplicated group, and :class:`NumericError` when an entry is not finite.
    """
    model = _Model(theta_hat, spec)
    info = _Point(_Workspace(model.spec, data), model.theta).derivatives[1]
    return _standard_errors(info, spec, model.order)


def _standard_errors(info: np.ndarray, spec: ModelSpec, order) -> np.ndarray:
    """Standard errors in the ``Theta.flatten`` layout of ``spec``: square
    roots of the diagonal of ``info``'s inverse, where ``info`` is laid out
    with the groups taken in the canonical ``order`` of :class:`_Model`,
    so relabelled fits get bit-identical errors."""
    if not np.all(np.isfinite(info)):
        raise NumericError("non-finite entries in the observed information")
    # The flat position in spec's layout of each row of info.
    starts = np.cumsum([0] + [2 + g.n_covariates for g in spec.groups])
    flat = np.concatenate([np.arange(starts[l], starts[l + 1]) for l in order])
    eigvals, eigvecs = np.linalg.eigh(info)
    scale = float(np.max(np.abs(eigvals)))
    tol = 1e-10 * max(scale, 1.0)
    if np.any(eigvals <= tol):
        names = parameter_names(spec)
        directions = []
        for idx in np.flatnonzero(eigvals <= tol):
            vec = eigvecs[:, idx]
            worst = np.argsort(-np.abs(vec))[:3]
            directions.append(
                ", ".join(f"{names[flat[w]]} ({vec[w]:+.2f})" for w in worst)
            )
        raise SingularHessianError(
            "observed information is singular along: " + "; ".join(directions),
            null_directions=directions,
        )
    cov = (eigvecs / eigvals) @ eigvecs.T
    std = np.empty(flat.size)
    std[flat] = np.sqrt(np.diag(cov))
    return std
