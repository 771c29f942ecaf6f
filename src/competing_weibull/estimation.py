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

The outer loop is SQUAREM (Varadhan & Roland 2008) with the S3 step length:
two EM maps, an extrapolated point that is kept only when it does not lower
the penalized objective, then one more map from it, so every returned point
is an M-step output.  Each EM map evaluates the model once; standard errors
differentiate the analytic score, which by Fisher's identity is the gradient
of Q with eta held at the winning probabilities of theta itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import NumericError, SingularHessianError, SpecError
from .model import (
    Dataset,
    GroupParams,
    ModelSpec,
    Theta,
    EULER_GAMMA,
    parameter_names,
    _group_designs,
    _group_mu,
    _hazards,
    _log_total_hazard,
    _mu_matrix,
    _sigmas,
    _sorted_rowsum,
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
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise SpecError("penalty weights must be nonnegative")


_NEWTON_ITERS = 40  # proximal Newton steps on (alpha, beta) per group update
_NEWTON_TOL = 1e-10  # a step below this, times 1 + |(alpha, beta)|, is not taken
_MAX_BACKTRACKS = 40  # step halvings before a group update stalls
_CD_SWEEPS = 1000  # coordinate-descent sweeps of the lasso model fallback
_SIGMA_ITERS = 100  # Newton or bisection steps on 1/sigma per group update
_SIGMA_TOL = 1e-12  # relative Newton step on 1/sigma that ends the search
_SIGMA_MAX = 10.0  # upper bound of sigma; sigma_floor is the lower
_JITTER_SCALE = 0.1  # noise scale of the alpha/beta jitter of extra starts
_SE_REL_STEP = 1e-5  # score-Jacobian step for theta_j, times 1 + |theta_j|


@dataclass(frozen=True)
class FitConfig:
    """EM controls.

    ``epsilon`` is the stopping tolerance on the Euclidean norm of the
    parameter change made by one EM map (1e-6 suits simulation-scale fits;
    1e-3 is enough for large noisy data).  ``max_em_iters`` caps the number
    of EM maps (one E-step plus one M-step each); the SQUAREM extrapolations
    between them are not counted.  ``sigma_floor`` keeps every noise scale
    bounded away from zero: the M-step keeps sigma in ``[sigma_floor, 10]``.
    ``n_starts > 1`` enables multi-start: additional starts jitter alpha and
    beta with Gaussian noise of scale 0.1 (seeded by ``seed``), and the
    start with the best final penalized objective wins.
    ``compute_std_errors`` runs :func:`standard_errors` on the winner.
    """

    epsilon: float = 1e-6
    max_em_iters: int = 2000
    sigma_floor: float = 0.01
    n_starts: int = 1
    seed: int = 0
    compute_std_errors: bool = True

    def __post_init__(self):
        if self.epsilon <= 0:
            raise SpecError("epsilon must be positive")
        if self.max_em_iters < 1 or self.n_starts < 1:
            raise SpecError("iteration counts must be positive")
        if self.sigma_floor <= 0:
            raise SpecError("sigma_floor must be positive")


@dataclass(frozen=True, eq=False)
class FitResult:
    """Outcome of an EM fit.

    ``winning_probs`` holds each subject's group probabilities evaluated at
    its observed time; rows with ``censored_rows`` set are evaluated at the
    censoring time rather than an event time.  ``std_errors`` follows the
    flattened parameter layout of :meth:`Theta.flatten` and is None when the
    observed information could not be inverted (see ``warnings``).
    ``n_iters`` counts EM maps; the traces hold the start and then one entry
    per map output, never an extrapolated point.  ``converged`` means the
    last map moved theta by less than ``epsilon`` and the final penalized
    objective is finite.
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

    @property
    def final_loglik(self) -> float:
        return float(self.loglik_trace[-1])

    @property
    def final_penalized(self) -> float:
        return float(self.penalized_trace[-1])


# ---------------------------------------------------------------------------
# Vectorized internals
# ---------------------------------------------------------------------------


class _Workspace:
    """Per-fit cache: log times, event mask, per-group design matrices."""

    def __init__(self, spec: ModelSpec, data: Dataset):
        self.spec = spec
        self.log_t = np.log(data.times)
        self.delta = data.status.astype(float)
        self.x_groups = _group_designs(spec, data.covariates)

    def hazards(self, theta: Theta):
        """(n, L) per-group log hazards and cumulative hazards at the data times."""
        return _hazards(_mu_matrix(theta, self.x_groups), _sigmas(theta), self.log_t[:, None])


def _loglik_terms(work: _Workspace, log_haz: np.ndarray, cumhaz: np.ndarray) -> np.ndarray:
    """Per-subject observed log-likelihood contributions from the kernel arrays."""
    return work.delta * _log_total_hazard(log_haz) - _sorted_rowsum(cumhaz)


def _loglik(work: _Workspace, log_haz: np.ndarray, cumhaz: np.ndarray) -> float:
    """Sum of :func:`_loglik_terms`, quiet when it is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.sum(_loglik_terms(work, log_haz, cumhaz)))


def _loglik_raw(work: _Workspace, theta: Theta) -> float:
    """Observed log-likelihood at theta; may be -inf for extreme parameters."""
    return _loglik(work, *work.hazards(theta))


def _intercept_penalty(alpha: float, lambda1: float) -> float:
    """``lambda1 * exp(-alpha)``: exactly 0 when lambda1 is, whatever alpha,
    and inf when the exponential overflows."""
    if lambda1 == 0.0:
        return 0.0
    try:
        return lambda1 * math.exp(-alpha)
    except OverflowError:
        return math.inf


def _penalized(q: float, alpha: float, beta: np.ndarray, penalty: PenaltyConfig) -> float:
    """``q`` minus one group's penalties, always subtracted in this order."""
    return (
        q
        - _intercept_penalty(alpha, penalty.lambda1)
        - penalty.lambda2 * float(np.sum(np.abs(beta)))
    )


def _penalized_loglik(loglik: float, theta: Theta, penalty: PenaltyConfig) -> float:
    # The negated group penalties are added in sorted order, so the objective
    # does not depend on the group labelling.
    return loglik + sum(sorted(_penalized(0.0, g.alpha, g.beta, penalty) for g in theta.groups))


def log_likelihood(theta: Theta, spec: ModelSpec, data: Dataset) -> float:
    """Observed log-likelihood: sum of delta*log h(T) + log S(T) over subjects."""
    theta.validate_against(spec)
    work = _Workspace(spec, data)
    terms = _loglik_terms(work, *work.hazards(theta))
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
    theta.validate_against(spec)
    log_haz, _ = _Workspace(spec, data).hazards(theta)
    return _winning(log_haz)


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
    the actual coefficient update uses soft-thresholding instead, which is
    what produces exact zeros.  ``sigma_clipped`` flags that sigma was below
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
        g_beta = x.T @ resid if x.shape[1] else np.zeros(0)
    return g_alpha, g_beta


def _smooth_gradients(
    work: _Workspace, l: int, alpha: float, sigma: float, terms, lambda1: float
):
    """Gradient of Q_l - lambda1 exp(-alpha) in (alpha, beta), plus dQ_l/dsigma.

    ``terms`` are the arrays :func:`_q_group_values` returned at the same
    (alpha, beta, sigma).
    """
    mu, cumhaz, weight = terms
    g_alpha, g_beta = _location_gradient(work.x_groups[l], alpha, sigma, terms, lambda1)
    with np.errstate(over="ignore", invalid="ignore"):
        g_sigma = float(
            np.sum(weight * (mu - sigma - work.log_t) + (work.log_t - mu) * cumhaz)
        ) / sigma**2
    return g_alpha, g_beta, g_sigma


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
    g_alpha, g_beta, g_sigma = _smooth_gradients(
        work, l, g.alpha, sigma, terms, penalty.lambda1
    )
    g_beta = g_beta - penalty.lambda2 * np.sign(g.beta)
    return QGroupGradients(g_alpha, g_beta, g_sigma, sigma_clipped=clipped)


def _score(work: _Workspace, theta: Theta) -> np.ndarray:
    """Gradient of the observed log-likelihood in the ``Theta.flatten`` layout:
    the unpenalized gradient of Q with eta held at ``e_step(theta)``."""
    log_haz, cumhaz = work.hazards(theta)
    weight = work.delta[:, None] * _winning(log_haz)
    parts = []
    for l, g in enumerate(theta.groups):
        terms = (_group_mu(work.x_groups[l], g.alpha, g.beta), cumhaz[:, l], weight[:, l])
        g_alpha, g_beta, g_sigma = _smooth_gradients(work, l, g.alpha, g.sigma, terms, 0.0)
        parts += [[g_alpha], g_beta, [g_sigma]]
    return np.concatenate(parts)


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
        if k:
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
    fixed ``d = log T - mu``, found from the current ``sigma``.

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
    best u evaluated is returned.  A sigma outside the bounds is kept unless the
    result beats it.  Every sum is a numpy reduction.
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

    u0 = 1.0 / sigma
    inside = lo <= u0 <= hi
    u = min(max(u0, lo), hi)
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

    if best_u == u0 or not (inside or best_q > derivatives(u0)[0]):
        return sigma
    # The bounds are returned exactly, not as the reciprocal of their reciprocal.
    if best_u == 1.0 / sigma_floor:
        return sigma_floor
    if best_u == 1.0 / _SIGMA_MAX:
        return _SIGMA_MAX
    return 1.0 / best_u


class _GroupState:
    """Mutable per-group parameters that the M-steps update in place."""

    def __init__(self, g: GroupParams, sigma_floor: float):
        self.alpha = g.alpha
        self.beta = np.array(g.beta, dtype=float)
        self.sigma = max(g.sigma, sigma_floor)
        self.stalled = False


def _theta_of(states: Sequence[_GroupState]) -> Theta:
    return Theta([GroupParams(s.alpha, s.beta, s.sigma) for s in states])


def _update_group(
    work: _Workspace,
    l: int,
    state: _GroupState,
    eta_l: np.ndarray,
    penalty: PenaltyConfig,
    sigma_floor: float,
) -> None:
    """One M-step for a single group, in place: proximal Newton on (alpha,
    beta) at the current sigma (:func:`_newton_step`), each step halved until
    the penalized group objective does not decrease, then the maximizer over
    sigma in ``[sigma_floor, _SIGMA_MAX]`` at the new (alpha, beta)
    (:func:`_sigma_newton`).  Never decreases the penalized group objective;
    ``stalled`` is set when a gradient is not finite or no halving is
    accepted.

    The update is a function of the current parameters and eta alone, which
    SQUAREM's extrapolation of the EM map relies on.
    """
    x = work.x_groups[l]

    def objective(alpha: float, beta: np.ndarray):
        q, terms = _q_group_values(work, l, alpha, beta, state.sigma, eta_l)
        return _penalized(q, alpha, beta, penalty), terms

    # Each Newton step is taken where the objective was last evaluated, so it
    # reuses that evaluation's arrays.
    current, terms = objective(state.alpha, state.beta)
    state.stalled = False
    for _ in range(_NEWTON_ITERS):
        g_alpha, g_beta = _location_gradient(x, state.alpha, state.sigma, terms, penalty.lambda1)
        grad = np.concatenate([[g_alpha], g_beta])
        curv = _curvature(x, state.alpha, state.sigma, terms, penalty.lambda1)
        if not (np.all(np.isfinite(grad)) and np.all(np.isfinite(curv))):
            state.stalled = True
            break
        step = _newton_step(curv, grad, state.beta, penalty.lambda2)
        size = float(np.max(np.abs(step)))
        if not math.isfinite(size):
            state.stalled = True
            break
        if size <= _NEWTON_TOL * (1.0 + abs(state.alpha) + float(np.sum(np.abs(state.beta)))):
            break
        length = 1.0
        for _ in range(_MAX_BACKTRACKS):
            # At unit length the new coefficients are the model's minimizer,
            # exact zeros included.
            alpha_new = state.alpha + length * step[0]
            beta_new = state.beta + length * step[1:]
            value, new_terms = objective(alpha_new, beta_new)
            if math.isfinite(value) and value >= current - 1e-12 * (1.0 + abs(current)):
                break
            length *= 0.5
        else:
            state.stalled = True
            break
        state.alpha, state.beta = alpha_new, beta_new
        current, terms = value, new_terms

    # The penalties do not involve sigma: maximize Q_l alone with mu fixed.
    mu, _, weight = terms
    state.sigma = _sigma_newton(work.log_t - mu, weight, state.sigma, sigma_floor)


def _m_step(
    work: _Workspace,
    states: Sequence[_GroupState],
    eta: np.ndarray,
    penalty: PenaltyConfig,
    sigma_floor: float,
) -> None:
    """Update every group in place given eta."""
    for l, state in enumerate(states):
        _update_group(work, l, state, eta[:, l], penalty, sigma_floor)


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
    result.  A group whose inner line search cannot improve is left
    unchanged.
    """
    theta.validate_against(spec)
    states = [_GroupState(g, config.sigma_floor) for g in theta.groups]
    eta = np.asarray(eta, dtype=float)
    _m_step(_Workspace(spec, data), states, eta, penalty, config.sigma_floor)
    return _theta_of(states)


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
    log_t = np.log(data.times)
    events = data.status == 1
    groups = []
    for group in spec.groups:
        cols = list(group.covariate_indices)
        rows = events if int(events.sum()) >= len(cols) + 2 else np.ones(data.n, bool)
        y = log_t[rows]
        design = np.column_stack([np.ones(y.shape[0])] + (
            [data.covariates[rows][:, cols]] if cols else []
        ))
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

    The squares are summed in sorted order, so the norm does not depend on
    the group labelling, and scaled by the largest entry, so it neither
    overflows nor warns.
    """
    size = np.sort(np.abs(change))
    top = float(size[-1])
    if not math.isfinite(top):
        return math.inf
    if top == 0.0:
        return 0.0
    return top * math.sqrt(float(np.sum((size / top) ** 2)))


def _extrapolate(
    work: _Workspace,
    cycle: Sequence[Theta],
    penalized_last: float,
    penalty: PenaltyConfig,
    sigma_floor: float,
):
    """SQUAREM's S3 step from theta0, theta1 = F(theta0), theta2 = F(theta1).

    With r = theta1 - theta0, v = theta2 - 2 theta1 + theta0 and a = -|r|/|v|,
    the point is theta0 - 2a r + a^2 v (Varadhan & Roland 2008).  Returns it
    with its kernel log hazards, or None when a >= -1 (the point would be
    theta2), when it is not finite, puts a sigma below the floor, or has a
    penalized objective that is not finite or is below theta2's.
    """
    x0, x1, x2 = (theta.flatten() for theta in cycle)
    with np.errstate(over="ignore", invalid="ignore"):
        r = x1 - x0
        v = x2 - 2.0 * x1 + x0
        r_norm, v_norm = _norm(r), _norm(v)
        if not v_norm > 0.0:
            return None
        a = -r_norm / v_norm
        if not a < -1.0:
            return None
        x = x0 - 2.0 * a * r + a * a * v
    sigma_at = np.cumsum([2 + g.beta.shape[0] for g in cycle[0].groups]) - 1
    if not (np.all(np.isfinite(x)) and np.all(x[sigma_at] >= sigma_floor)):
        return None
    theta = Theta.from_flat(x, work.spec)
    log_haz, cumhaz = work.hazards(theta)
    value = _penalized_loglik(_loglik(work, log_haz, cumhaz), theta, penalty)
    if not (math.isfinite(value) and value >= penalized_last):
        return None
    return theta, log_haz


def _run_em(
    work: _Workspace, penalty: PenaltyConfig, config: FitConfig, theta: Theta
) -> FitResult:
    """SQUAREM-accelerated EM from ``theta``.

    Each cycle takes two EM maps, then tries the extrapolated point of
    :func:`_extrapolate`; when it is accepted, one more map from it follows,
    otherwise the next cycle starts from the second map's output.  Every
    returned point is an M-step output, so lasso zeros stay exact and sigma
    stays at or above the floor.  ``max_em_iters`` caps the maps, each map is
    one trace entry, and each map's move is its own stop test.
    """
    states = [_GroupState(g, config.sigma_floor) for g in theta.groups]
    theta = _theta_of(states)
    # One kernel evaluation per map: it gives the trace entry of its output
    # and the next E-step.
    log_haz, cumhaz = work.hazards(theta)
    loglik_trace = [_loglik(work, log_haz, cumhaz)]
    penalized_trace = [_penalized_loglik(loglik_trace[0], theta, penalty)]
    warnings: list[str] = []
    cycle = [theta]

    for m in range(config.max_em_iters):
        _m_step(work, states, _winning(log_haz), penalty, config.sigma_floor)
        warnings.extend(
            f"iteration {m}: group {l} line search stalled; parameters kept"
            for l, state in enumerate(states)
            if state.stalled
        )
        theta_new = _theta_of(states)
        log_haz, cumhaz = work.hazards(theta_new)
        loglik_trace.append(_loglik(work, log_haz, cumhaz))
        penalized_trace.append(_penalized_loglik(loglik_trace[-1], theta_new, penalty))
        delta_norm = _norm(theta_new.flatten() - theta.flatten())
        theta = theta_new
        if delta_norm < config.epsilon:
            break
        cycle.append(theta)
        if len(cycle) < 3 or m + 1 == config.max_em_iters:
            continue
        jump = _extrapolate(work, cycle, penalized_trace[-1], penalty, config.sigma_floor)
        if jump is None:
            cycle = [theta]
            continue
        theta, log_haz = jump
        for state, g in zip(states, theta.groups):
            state.alpha, state.beta, state.sigma = g.alpha, np.array(g.beta), g.sigma
        cycle = []

    return FitResult(
        theta_hat=theta,
        std_errors=None,
        winning_probs=_winning(log_haz),
        censored_rows=work.delta == 0,
        loglik_trace=np.asarray(loglik_trace),
        penalized_trace=np.asarray(penalized_trace),
        converged=delta_norm < config.epsilon and math.isfinite(penalized_trace[-1]),
        n_iters=len(loglik_trace) - 1,
        warnings=tuple(warnings),
    )


def fit_em(
    spec: ModelSpec,
    data: Dataset,
    penalty: PenaltyConfig | None = None,
    config: FitConfig | None = None,
    theta_init: Theta | None = None,
) -> FitResult:
    """Fit the model by SQUAREM-accelerated EM, stopping when an EM map
    moves theta by less than ``config.epsilon`` or the map budget runs out.

    Non-convergence is reported through ``converged=False``, never raised.
    With ``theta_init`` omitted the default initialization is used, plus
    jittered restarts when ``config.n_starts > 1``; the run with the best
    final penalized objective is returned.
    """
    penalty = penalty or PenaltyConfig()
    config = config or FitConfig()
    spec.check_identifiable()
    if data.p != spec.p:
        raise SpecError(f"data has p={data.p} covariates, spec expects {spec.p}")

    if theta_init is not None:
        theta_init.validate_against(spec)
        starts = [theta_init]
    else:
        base = initialize_theta(spec, data)
        starts = [base]
        for k in range(1, config.n_starts):
            rng = np.random.default_rng(np.random.SeedSequence([config.seed, k]))
            starts.append(_jittered(base, rng))

    work = _Workspace(spec, data)
    best: FitResult | None = None
    for start in starts:
        result = _run_em(work, penalty, config, start)
        if best is None or result.final_penalized > best.final_penalized:
            best = result

    warnings = list(best.warnings)
    std = None
    if config.compute_std_errors:
        try:
            std = standard_errors(best.theta_hat, spec, data)
        except (SingularHessianError, NumericError) as exc:
            warnings.append(f"standard errors unavailable: {exc}")
    return replace(best, std_errors=std, warnings=tuple(warnings))


# ---------------------------------------------------------------------------
# Standard errors
# ---------------------------------------------------------------------------


def standard_errors(theta_hat: Theta, spec: ModelSpec, data: Dataset) -> np.ndarray:
    """Inverse-observed-information standard errors at the fitted parameters.

    The observed information is minus the symmetrized central-difference
    Jacobian (step ``1e-5 * (1 + |theta_j|)``, 2d evaluations for d
    parameters) of the analytic score of the unpenalized log-likelihood.
    Raises :class:`SingularHessianError` naming the near-null directions when
    it is not positive definite, which typically signals an eliminated or
    duplicated group, and :class:`NumericError` when an entry is not finite.
    """
    theta_hat.validate_against(spec)
    work = _Workspace(spec, data)
    x0 = theta_hat.flatten()
    d = x0.shape[0]
    jac = np.empty((d, d))
    for j in range(d):
        step = np.zeros(d)
        step[j] = _SE_REL_STEP * (1.0 + abs(x0[j]))
        jac[:, j] = (
            _score(work, Theta.from_flat(x0 + step, spec))
            - _score(work, Theta.from_flat(x0 - step, spec))
        ) / (2.0 * step[j])
    if not np.all(np.isfinite(jac)):
        raise NumericError("non-finite entries in the observed information")

    info = -0.5 * (jac + jac.T)
    eigvals, eigvecs = np.linalg.eigh(info)
    scale = float(np.max(np.abs(eigvals))) if d else 0.0
    tol = 1e-10 * max(scale, 1.0)
    if np.any(eigvals <= tol):
        names = parameter_names(spec)
        directions = []
        for idx in np.flatnonzero(eigvals <= tol):
            vec = eigvecs[:, idx]
            worst = np.argsort(-np.abs(vec))[:3]
            directions.append(
                ", ".join(f"{names[w]} ({vec[w]:+.2f})" for w in worst)
            )
        raise SingularHessianError(
            "observed information is singular along: " + "; ".join(directions),
            null_directions=directions,
        )
    cov = (eigvecs / eigvals) @ eigvecs.T
    return np.sqrt(np.diag(cov))
