"""Penalized maximum-likelihood fitting of the competing Weibull model.

The EM algorithm alternates between an E-step that computes each subject's
winning probabilities at its observed time and an M-step that maximizes the
expected complete log-likelihood group by group.  Each group update
maximizes over (alpha, beta) at fixed sigma by proximal Newton steps, whose
lasso model is solved exactly on its active set, so lasso zeros are exact,
and then over sigma at fixed (alpha, beta) by safeguarded Newton on
1/sigma.  The fitting convention throughout is to maximize

    Q_l(theta) - lambda1 * exp(-alpha_l) - lambda2 * ||beta_l||_1

per group, i.e. the penalized expected complete log-likelihood.

The fit evaluates the model at the data in one place, ``_Point``: one
kernel call gives the cumulative hazards, the per-subject log-likelihood
terms and their sum, the winning probabilities and the penalized objective,
and the score and closed-form observed information (Louis 1982) follow on
first use.  ``_run_em`` is the one loop that moves from point to point, and
each of its iterations is either an EM map or a Newton step.  A map takes
theta to the M-step's theta at the winning probabilities of the current
point.  Once a map moves theta by less than ``_NEWTON_START``, Newton steps
on the penalized observed log-likelihood take over on the active set (every
alpha, every sigma inside its bounds, every nonzero beta); a step that fails
a safeguard hands the fit back to EM.  The same information gives the
standard errors.
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
        if not all(0 <= w < math.inf for w in (self.lambda1, self.lambda2)):
            raise SpecError("penalty weights must be finite and nonnegative")


_NEWTON_ITERS = 40  # proximal Newton steps on (alpha, beta) per group update
_NEWTON_TOL = 1e-10  # a step below this, times 1 + |(alpha, beta)|, is not taken
_MAX_BACKTRACKS = 40  # step halvings before a group update stalls
_CD_SWEEPS = 1000  # coordinate-descent sweeps of the lasso model fallback
_SIGMA_ITERS = 100  # Newton or bisection steps on 1/sigma per group update
_SIGMA_TOL = 1e-12  # relative Newton step on 1/sigma that ends the search
_SIGMA_MAX = 10.0  # upper bound of sigma; sigma_floor is the lower
_JITTER_SCALE = 0.1  # noise scale of the alpha/beta jitter of extra starts
_NEWTON_START = 0.1  # an EM map that moves theta less than this starts Newton steps
_NEWTON_RETRY = 10  # EM maps before Newton is tried again on an unchanged zero set
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
    the final penalized objective is finite; after
    a Newton step it also needs the KKT conditions of the coordinates held
    fixed.  ``kkt_residual`` is the largest violation of the penalized
    objective's KKT conditions at ``theta_hat``: the absolute gradient on the
    active set, the excess of ``|score|`` over ``lambda2`` at a zero beta,
    and an inward gradient at a sigma bound.
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
    work: _Workspace,
    l: int,
    alpha: float,
    beta: np.ndarray,
    sigma: float,
    eta_l: np.ndarray,
):
    """Q_l at (alpha, beta, sigma), plus the arrays its gradient reuses."""
    mu = _group_mu(work.x_groups[l], alpha, beta)
    log_haz, cumhaz = _hazards(mu, sigma, work.log_t)
    weight = work.delta * eta_l
    # np.sum of the products, not a BLAS dot: a threaded dot splits its sum
    # by the thread count, and fits must not depend on it.  A zero weight
    # against an infinite log hazard gives nan, quietly, as the dot did, and
    # an overflowing sum gives -inf, which the M-step rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        q = float(np.sum(weight * log_haz) - np.sum(cumhaz))
    return q, (mu, cumhaz, weight)


def q_group(l: int, theta: Theta, spec: ModelSpec, data: Dataset, eta) -> float:
    """Group-l term of the expected complete log-likelihood.

    Equals ``sum_i delta_i eta_il [(1/sigma - 1) log T_i - log sigma -
    mu_il / sigma] - (T_i / exp(mu_il))^(1/sigma)``.
    """
    theta.validate_against(spec)
    eta = np.asarray(eta, dtype=float)
    work = _Workspace(spec, data)
    g = theta.groups[l]
    return _q_group_values(work, l, g.alpha, g.beta, g.sigma, eta[:, l])[0]


def q_function(theta: Theta, spec: ModelSpec, data: Dataset, eta) -> float:
    """Expected complete log-likelihood; decomposes exactly as the sum of
    the group terms, which is what makes the M-step separable."""
    return sum(
        q_group(l, theta, spec, data, eta) for l in range(spec.n_groups)
    )


def penalized_q_group(
    l: int, theta: Theta, spec: ModelSpec, data: Dataset, eta, penalty: PenaltyConfig
) -> float:
    """Group objective maximized in the M-step: Q_l minus its penalties."""
    g = theta.groups[l]
    return _penalized(q_group(l, theta, spec, data, eta), g.alpha, g.beta, penalty)


@dataclass(frozen=True, eq=False)
class QGroupGradients:
    """Ascent gradient of the penalized group objective.

    ``beta`` uses the sign subgradient of the L1 term (zero at exact zeros);
    the M-step's exact zeros come instead from the proximal Newton step,
    which solves its lasso model exactly on the active set
    (:func:`_newton_step`).  ``sigma_clipped`` flags that sigma was below
    the floor and the gradient was evaluated at the floor.
    """

    alpha: float
    beta: np.ndarray
    sigma: float
    sigma_clipped: bool = False


def _location_gradient(x: np.ndarray, alpha: float, sigma: float, terms, lambda1: float):
    """Gradient of Q_l - lambda1 exp(-alpha) in (alpha, beta) for the group
    design ``x``, from the arrays :func:`_q_group_values` returned at the
    same (alpha, beta, sigma)."""
    _, cumhaz, weight = terms
    # Far from the data the gradient overflows; callers treat a non-finite
    # gradient as a stalled step.
    with np.errstate(over="ignore", invalid="ignore"):
        resid = (cumhaz - weight) / sigma
        g_alpha = float(np.sum(resid)) + _intercept_penalty(alpha, lambda1)
        g_beta = x.T @ resid
    return g_alpha, g_beta


def q_gradients(
    l: int,
    theta: Theta,
    spec: ModelSpec,
    data: Dataset,
    eta,
    penalty: PenaltyConfig,
    sigma_floor: float = 0.0,
) -> QGroupGradients:
    """Analytic ascent gradient of the penalized group objective.

    The alpha component is ``(1/sigma) sum_i [w_il - delta_i eta_il] +
    lambda1 exp(-alpha)`` with ``w_il = (T_i/exp(mu_il))^(1/sigma)``; beta
    components subtract ``lambda2 sign(beta)``; the sigma component is
    ``(1/sigma^2) sum_i [delta_i eta_il (mu_il - sigma - log T_i) +
    (log T_i - mu_il) w_il]``.
    """
    theta.validate_against(spec)
    eta = np.asarray(eta, dtype=float)
    work = _Workspace(spec, data)
    g = theta.groups[l]
    sigma = g.sigma
    clipped = False
    if sigma < sigma_floor:
        sigma = sigma_floor
        clipped = True
    _, terms = _q_group_values(work, l, g.alpha, g.beta, sigma, eta[:, l])
    mu, cumhaz, weight = terms
    g_alpha, g_beta = _location_gradient(work.x_groups[l], g.alpha, sigma, terms, penalty.lambda1)
    g_beta = g_beta - penalty.lambda2 * np.sign(g.beta)
    with np.errstate(over="ignore", invalid="ignore"):
        # numpy's power overflows to inf where a Python float's raises
        g_sigma = float(
            np.sum(weight * (mu - sigma - work.log_t) + (work.log_t - mu) * cumhaz)
            / np.float64(sigma) ** 2
        )
    return QGroupGradients(g_alpha, g_beta, g_sigma, sigma_clipped=clipped)


def _score_and_information(work: _Workspace, theta: Theta, cumhaz: np.ndarray, eta: np.ndarray):
    """Score and observed information of the log-likelihood at ``theta`` in
    the ``Theta.flatten`` layout, from the kernel's cumulative hazards and the
    winning probabilities at ``theta`` (Louis 1982).

    Per group, with z = (log T - mu) / sigma and a = [1, x, z + 1] / sigma,
    the log hazard has gradient -a, the cumulative hazard H has gradient
    -H (a - e / sigma) with e the unit vector of sigma, and w = delta * eta_l.
    The score block is sum (H - w) a - e sum H / sigma, and the information
    is sum delta (eta a)(eta a)' over all pairs of groups, with eta a the
    stacked eta_l a_l, plus per group

        sum (H - w) a a' - (e (sum w a)' + (sum w a) e') / sigma
        + e e' sum (w - H) / sigma^2.

    The reductions are numpy sums and einsums, not BLAS products, over
    blocks of ``_INFO_ROWS`` rows laid out in the workspace's group order,
    the canonical one in a fit, so the result does not depend on the thread
    count or on the group labelling, and its memory does not grow with n.
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
                x = work.x_groups[l][rows]
                block = slice(work.alpha_at[l], work.sigma_at[l] + 1)
                a = eta_a[block]
                a[0] = 1.0 / g.sigma
                np.divide(x.T, g.sigma, out=a[1:-1])
                z = (work.log_t[rows] - _group_mu(x, g.alpha, g.beta)) / g.sigma
                a[-1] = (z + 1.0) / g.sigma
                h, w = cumhaz[rows, l], delta * eta[rows, l]
                excess = h - w
                score[block] += np.einsum("ji,i->j", a, excess)
                score[work.sigma_at[l]] -= float(np.sum(h)) / g.sigma
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


def _curvature(x: np.ndarray, alpha: float, sigma: float, terms, lambda1: float) -> np.ndarray:
    """Minus the Hessian of Q_l - lambda1 exp(-alpha) in (alpha, beta):
    ``X'diag(H / sigma^2)X + lambda1 exp(-alpha) e1 e1'`` with X = [1, x].

    The n-long reductions are numpy sums, not BLAS products, so the matrix
    does not depend on the BLAS thread count.
    """
    _, cumhaz, _ = terms
    k = x.shape[1]
    curv = np.empty((k + 1, k + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        h = cumhaz / sigma**2
        curv[0, 0] = float(np.sum(h)) + _intercept_penalty(alpha, lambda1)
        xh = x * h[:, None]
        curv[0, 1:] = curv[1:, 0] = np.sum(xh, axis=0)
        curv[1:, 1:] = np.einsum("ij,ik->jk", xh, x)
    return curv


def _active_set_step(curv, grad, beta, lambda2, signs):
    """The lasso model's minimizer of :func:`_newton_step` on a guessed active
    set, or None when the guess fails the model's KKT conditions.

    ``signs`` guesses the sign of each new coefficient: those guessed 0 go to
    exactly zero, the others must keep their sign; the intercept is free.
    """
    free = np.concatenate([[True], signs != 0.0])
    step = np.zeros(grad.shape[0])
    step[~free] = -beta[~free[1:]]
    rhs = grad[free] - lambda2 * np.concatenate([[0.0], signs])[free]
    rhs -= curv[np.ix_(free, ~free)] @ step[~free]
    try:
        step[free] = np.linalg.solve(curv[np.ix_(free, free)], rhs)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(step)):
        return None
    if lambda2 == 0.0:
        return step
    kept = free[1:]
    # grad - curv @ step is minus the model's smooth gradient at the new point.
    zero_slack = np.abs(grad - curv @ step)[1:][~kept]
    if np.all(np.sign(beta[kept] + step[1:][kept]) == signs[kept]) and np.all(
        zero_slack <= lambda2 * (1.0 + 1e-9)
    ):
        return step
    return None


def _coordinate_descent_step(curv, grad, beta, lambda2):
    """The lasso model's minimizer of :func:`_newton_step` by cyclic
    coordinate descent; coordinates without positive curvature stay put."""
    step = np.zeros(grad.shape[0])
    resid = grad.copy()  # grad - curv @ step
    for _ in range(_CD_SWEEPS):
        largest = 0.0
        for j in range(step.shape[0]):
            a_jj = curv[j, j]
            if not (a_jj > 0.0 and math.isfinite(a_jj)):
                continue
            target = resid[j] + a_jj * step[j]
            if j == 0:
                new = target / a_jj
            else:
                b = beta[j - 1]
                z = b * a_jj + target
                z = math.copysign(max(abs(z) - lambda2, 0.0), z) / a_jj
                new = -b if z == 0.0 else z - b
            change = new - step[j]
            if change:
                resid -= curv[:, j] * change
                step[j] = new
                largest = max(largest, abs(change))
        if largest <= 1e-15 * (1.0 + float(np.max(np.abs(step)))):
            break
    return step


def _newton_step(curv: np.ndarray, grad: np.ndarray, beta: np.ndarray, lambda2: float):
    """Proximal Newton step in (alpha, beta): the minimizer over ``step`` of

        -grad . step + step . curv step / 2 + lambda2 ||beta + step[1:]||_1,

    the local model of minus the penalized group objective (index 0 is the
    unpenalized intercept).  The active set of the current coefficients is
    tried first; when it fails the model's KKT conditions, coordinate descent
    finds the active set and it is solved again there exactly.  A coefficient
    the step zeroes becomes exactly 0 at unit step length.  Far from the
    data the arithmetic may overflow; the line search rejects such a step.
    """

    def support(coef):
        return np.sign(coef) if lambda2 > 0.0 else np.ones(coef.shape[0])

    with np.errstate(over="ignore", invalid="ignore"):
        step = _active_set_step(curv, grad, beta, lambda2, support(beta))
        if step is not None:
            return step
        step = _coordinate_descent_step(curv, grad, beta, lambda2)
        polished = _active_set_step(curv, grad, beta, lambda2, support(beta + step[1:]))
    return step if polished is None else polished


def _sigma_newton(
    d: np.ndarray, weight: np.ndarray, sigma: float, sigma_floor: float
) -> float:
    """The sigma in ``[sigma_floor, _SIGMA_MAX]`` that maximizes Q_l at the
    fixed ``d = log T - mu``, found from the current ``sigma`` within them.

    With ``u = 1/sigma`` and the constant dropped, the objective is ``q(u) =
    u sum(weight d) + sum(weight) log u - sum exp(u d)`` on [lo, hi] = [1 /
    _SIGMA_MAX, 1 / sigma_floor].

    q is concave, so Newton steps run inside a bracket that each sign of
    q'(u) shrinks.  A step that leaves the bracket goes to a bound not yet
    evaluated, or else bisects the bracket geometrically, as does a step from
    a derivative that is not finite (exp(u d) overflows only where q' < 0).
    The maximizer is found when a Newton step is below ``_SIGMA_TOL``
    relative, or at a bound whose derivative points outward; by concavity it
    is then at least as good as the current sigma.  If the search fails, the
    best u evaluated is returned.  Every sum is a numpy reduction.
    """
    s_weight = float(np.sum(weight))
    s_weighted_d = float(np.sum(weight * d))
    lo, hi = 1.0 / _SIGMA_MAX, 1.0 / sigma_floor

    def derivatives(u: float):
        with np.errstate(over="ignore", invalid="ignore"):
            cumhaz = np.exp(u * d)
            d_cumhaz = d * cumhaz
            return (
                u * s_weighted_d + s_weight * math.log(u) - float(np.sum(cumhaz)),
                s_weighted_d + s_weight / u - float(np.sum(d_cumhaz)),
                -s_weight / u**2 - float(np.sum(d * d_cumhaz)),
            )

    u = u0 = 1.0 / sigma
    best_u, best_q = u, -math.inf
    lo_seen = hi_seen = False
    for _ in range(_SIGMA_ITERS):
        q, first, second = derivatives(u)
        if q > best_q:
            best_u, best_q = u, q
        if math.isnan(first):
            break
        finite = math.isfinite(first) and -math.inf < second < 0.0
        target = u - first / second if finite else math.nan
        if (
            first == 0.0
            or (first > 0.0 and u >= hi)
            or (first < 0.0 and u <= lo)
            or abs(target - u) <= _SIGMA_TOL * u
        ):
            best_u, best_q = u, q  # the maximizer, whatever rounding says
            break
        if first > 0.0:
            lo, lo_seen = u, True
        else:
            hi, hi_seen = u, True
        if not lo < target < hi:
            if target <= lo and not lo_seen:
                target = lo
            elif target >= hi and not hi_seen:
                target = hi
            else:
                target = math.sqrt(lo * hi)
                if not lo < target < hi:
                    break
        u = target

    if best_u == u0:
        return sigma
    # The bounds are returned exactly, not as the reciprocal of their reciprocal.
    if best_u == 1.0 / sigma_floor:
        return sigma_floor
    if best_u == 1.0 / _SIGMA_MAX:
        return _SIGMA_MAX
    return 1.0 / best_u


def _update_group(
    work: _Workspace,
    l: int,
    params: GroupParams,
    eta_l: np.ndarray,
    penalty: PenaltyConfig,
    sigma_floor: float,
) -> tuple[GroupParams, bool]:
    """One M-step for a single group, from ``params`` with its sigma clamped
    into ``[sigma_floor, _SIGMA_MAX]``: proximal Newton on (alpha, beta) at
    that sigma (:func:`_newton_step`), each step halved until the penalized
    group objective does not decrease, then the maximizer over sigma within
    the same bounds at the new (alpha, beta) (:func:`_sigma_newton`).
    While ``lambda1 * exp(-alpha)`` overflows, the step is +1 in alpha.
    Never decreases the penalized group objective.
    Returns the new parameters and whether the group stalled: a gradient
    was not finite or no halving was accepted; (alpha, beta) then stay at
    the last accepted step, and sigma is still re-maximized.
    """
    x = work.x_groups[l]
    alpha, beta, sigma = params.alpha, params.beta, min(max(params.sigma, sigma_floor), _SIGMA_MAX)

    def objective(alpha: float, beta: np.ndarray):
        q, terms = _q_group_values(work, l, alpha, beta, sigma, eta_l)
        return _penalized(q, alpha, beta, penalty), terms

    # Each Newton step is taken where the objective was last evaluated, so it
    # reuses that evaluation's arrays.
    current, terms = objective(alpha, beta)
    stalled = False
    for _ in range(_NEWTON_ITERS):
        if math.isinf(_intercept_penalty(alpha, penalty.lambda1)):
            # exp(-alpha) overflows, so the penalty dominates the model: take
            # the limit of its own Newton step, which is +1 in alpha.
            step = np.zeros(x.shape[1] + 1)
            step[0] = 1.0
        else:
            g_alpha, g_beta = _location_gradient(x, alpha, sigma, terms, penalty.lambda1)
            grad = np.concatenate([[g_alpha], g_beta])
            curv = _curvature(x, alpha, sigma, terms, penalty.lambda1)
            if not (np.all(np.isfinite(grad)) and np.all(np.isfinite(curv))):
                stalled = True
                break
            step = _newton_step(curv, grad, beta, penalty.lambda2)
            size = float(np.max(np.abs(step)))
            if not math.isfinite(size):
                stalled = True
                break
            if size <= _NEWTON_TOL * (1.0 + abs(alpha) + float(np.sum(np.abs(beta)))):
                break
        length = 1.0
        for _ in range(_MAX_BACKTRACKS):
            # At unit length the new coefficients are the model's minimizer,
            # exact zeros included.
            alpha_new = alpha + length * step[0]
            beta_new = beta + length * step[1:]
            value, new_terms = objective(alpha_new, beta_new)
            if _no_worse(value, current):
                break
            length *= 0.5
        else:
            stalled = True
            break
        alpha, beta = alpha_new, beta_new
        current, terms = value, new_terms

    # The penalties do not involve sigma: maximize Q_l alone with mu fixed.
    mu, _, weight = terms
    sigma = _sigma_newton(work.log_t - mu, weight, sigma, sigma_floor)
    return GroupParams(alpha, beta, sigma), stalled


def _em_map(
    work: _Workspace, theta: Theta, eta: np.ndarray, penalty: PenaltyConfig, sigma_floor: float
) -> tuple[Theta, list[int]]:
    """The M-step's theta from ``theta`` given eta, and the groups whose
    line search stalled."""
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
    result.  A group whose (alpha, beta) line search stalls keeps the alpha
    and beta of its last accepted step (its start if none was accepted), and
    its sigma is still re-maximized.
    """
    theta.validate_against(spec)
    eta = np.asarray(eta, dtype=float)
    return _em_map(_Workspace(spec, data), theta, eta, penalty, config.sigma_floor)[0]


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
        sigma_res = max(float(np.sqrt(resid @ resid / dof)) * math.sqrt(6.0) / math.pi, 0.05)
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


def _norm(change: np.ndarray) -> float:
    """Euclidean norm of a parameter change; inf when an entry is not finite.

    The squares are scaled by the largest entry, so the norm neither
    overflows nor warns.
    """
    size = np.abs(change)
    top = float(np.max(size))
    if not math.isfinite(top):
        return math.inf
    if top == 0.0:
        return 0.0
    return top * math.sqrt(float(np.sum((size / top) ** 2)))


def _newton_system(point: _Point, penalty: PenaltyConfig, sigma_floor: float):
    """Ascent gradient and negated Hessian of the penalized observed
    objective at ``point``, its active set, and the KKT residual per
    coordinate.

    The gradient is the score plus ``lambda1 exp(-alpha)`` on the alphas and
    minus ``lambda2 sign(beta)`` on the betas; the negated Hessian is the
    information plus ``lambda1 exp(-alpha)`` on the alpha diagonal.  The
    active set is every alpha, every sigma strictly inside (sigma_floor,
    _SIGMA_MAX) and every nonzero beta.  The residual is the absolute
    gradient on the active set, the excess of ``|score|`` over lambda2 at a
    zero beta, and the inward gradient at a sigma on a bound; it is not
    finite when the score is not.
    """
    score, info = point.derivatives
    x = point.theta.flatten()
    alphas, sigmas, betas = point.work.alpha_at, point.work.sigma_at, point.work.is_beta
    pull = np.array([_intercept_penalty(alpha, penalty.lambda1) for alpha in x[alphas]])
    grad, neg_hess = score.copy(), info.copy()
    grad[alphas] += pull
    neg_hess[alphas, alphas] += pull
    grad[betas] -= penalty.lambda2 * np.sign(x[betas])

    sigma = x[sigmas]
    active = np.ones(x.shape[0], dtype=bool)
    active[betas] = x[betas] != 0.0
    active[sigmas] = (sigma > sigma_floor) & (sigma < _SIGMA_MAX)
    resid = np.abs(grad)
    zero = betas & ~active
    resid[zero] = np.maximum(resid[zero] - penalty.lambda2, 0.0)
    low, high = sigmas[sigma <= sigma_floor], sigmas[sigma >= _SIGMA_MAX]
    resid[low] = np.maximum(grad[low], 0.0)
    resid[high] = np.maximum(-grad[high], 0.0)
    return grad, neg_hess, active, resid


def _fixed_at_kkt(point: _Point, penalty: PenaltyConfig, sigma_floor: float) -> bool:
    """Whether the coordinates held fixed at ``point`` (zero betas, sigmas on
    a bound) meet their KKT conditions."""
    _, _, active, resid = _newton_system(point, penalty, sigma_floor)
    return bool(np.all(resid[~active] == 0.0))


def _active_newton_step(grad, neg_hess, active) -> np.ndarray | None:
    """The Newton step on the active set, zero elsewhere; None unless the
    active block of ``neg_hess`` has a Cholesky factor and the step is
    finite."""
    block = neg_hess[np.ix_(active, active)]
    if not (np.all(np.isfinite(block)) and np.all(np.isfinite(grad[active]))):
        return None
    try:
        np.linalg.cholesky(block)
        solved = np.linalg.solve(block, grad[active])
    except np.linalg.LinAlgError:
        return None
    step = np.zeros(grad.shape[0])
    step[active] = solved
    return step if np.all(np.isfinite(step)) else None


def _newton_point(point: _Point, penalty: PenaltyConfig, sigma_floor: float):
    """One Newton step on the penalized observed objective from ``point``:
    ``(step, new point)``, or None when a safeguard fails.

    The coordinates held fixed must meet their KKT conditions at ``point``.
    The step is taken only when the active block of the negated Hessian has
    a Cholesky factor, the new point is finite, no beta changes sign (when
    lambda2 > 0), every active sigma stays within its bounds, and the
    penalized objective does not decrease.
    """
    grad, neg_hess, active, resid = _newton_system(point, penalty, sigma_floor)
    if not np.all(resid[~active] == 0.0):
        return None
    step = _active_newton_step(grad, neg_hess, active)
    if step is None:
        return None
    work, x = point.work, point.theta.flatten()
    new = x + step
    betas, sigma = work.is_beta, new[work.sigma_at]
    in_bounds = (sigma >= sigma_floor) & (sigma <= _SIGMA_MAX)
    if not (
        np.all(np.isfinite(new))
        and (penalty.lambda2 == 0.0 or np.array_equal(np.sign(new[betas]), np.sign(x[betas])))
        and np.all(in_bounds | ~active[work.sigma_at])
    ):
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
    a safeguard; EM maps then resume, and Newton is tried again once the set
    of zero betas changes or ``_NEWTON_RETRY`` maps have passed.  A map that
    moves theta by less than ``epsilon`` converges, and so does a Newton step
    if the fixed coordinates then meet their KKT conditions; that test comes
    before the budget of ``max_em_iters`` iterations.  Lasso zeros stay
    exact and sigma stays within its bounds.
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
    retry_zeros, maps_since_newton = None, 0

    while len(loglik_trace) <= config.max_em_iters:
        taken = _newton_point(point, penalty, config.sigma_floor) if newton else None
        if taken is not None:
            step, point = taken
            moved = _norm(step)
            converged = moved < config.epsilon and _fixed_at_kkt(point, penalty, config.sigma_floor)
        else:
            m = len(loglik_trace) - 1
            theta, stalled = _em_map(work, point.theta, point.eta, penalty, config.sigma_floor)
            warnings.extend(
                f"iteration {m}: group {labels[l]} (alpha, beta) line search stalled; "
                "alpha and beta kept, sigma re-maximized"
                for l in stalled
            )
            new = _Point(work, theta, penalty)
            moved = _norm(new.theta.flatten() - point.theta.flatten())
            point = new
            maps_since_newton += 1
            converged = moved < config.epsilon
            zeros = point.theta.flatten()[work.is_beta] == 0.0
            newton = moved < _NEWTON_START and (
                maps_since_newton >= _NEWTON_RETRY or not np.array_equal(zeros, retry_zeros)
            )
            if newton:
                retry_zeros, maps_since_newton = zeros, 0
        loglik_trace.append(point.loglik)
        penalized_trace.append(point.penalized)
        if converged:
            break

    resid = _newton_system(point, penalty, config.sigma_floor)[3]
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
        kkt_residual=float(np.max(resid)),
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
