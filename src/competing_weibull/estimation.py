"""Penalized maximum-likelihood fitting of the competing Weibull model.

The EM algorithm alternates between an E-step that computes each subject's
winning probabilities at its observed time and an M-step that maximizes the
expected complete log-likelihood group by group.  Each group update runs
proximal gradient ascent on (alpha, beta), soft-thresholding the
coefficients so that lasso zeros are exact, followed by a bounded
golden-section search over sigma.  The fitting convention throughout is to maximize

    Q_l(theta) - lambda1 * exp(-alpha_l) - lambda2 * ||beta_l||_1

per group, i.e. the penalized expected complete log-likelihood.

Each EM iteration evaluates the model once; standard errors differentiate
the analytic score, which by Fisher's identity is the gradient of Q with eta
held at the winning probabilities of theta itself.
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


_INNER_ITERS = 40  # proximal (alpha, beta) steps per group update
_MAX_BACKTRACKS = 40  # step halvings before a group update stalls
_SIGMA_MAX = 10.0  # upper end of the sigma search; sigma_floor is the lower
_JITTER_SCALE = 0.1  # noise scale of the alpha/beta jitter of extra starts
_SE_REL_STEP = 1e-5  # score-Jacobian step for theta_j, times 1 + |theta_j|


@dataclass(frozen=True)
class FitConfig:
    """EM controls.

    ``epsilon`` is the stopping tolerance on the Euclidean norm of the
    parameter change between EM iterations (1e-6 suits simulation-scale fits;
    1e-3 is enough for large noisy data).  ``sigma_floor`` keeps every noise
    scale bounded away from zero and is the lower end of the sigma search,
    whose upper end is 10.  ``n_starts > 1`` enables multi-start: additional
    starts jitter alpha and beta with Gaussian noise of scale 0.1 (seeded by
    ``seed``), and the start with the best final penalized objective wins.
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
    with np.errstate(invalid="ignore"):
        return float(np.sum(_loglik_terms(work, log_haz, cumhaz)))


def _loglik_raw(work: _Workspace, theta: Theta) -> float:
    """Observed log-likelihood at theta; may be -inf for extreme parameters."""
    return _loglik(work, *work.hazards(theta))


def _penalized(q: float, alpha: float, beta: np.ndarray, penalty: PenaltyConfig) -> float:
    """``q`` minus one group's penalties, always subtracted in this order."""
    return q - penalty.lambda1 * math.exp(-alpha) - penalty.lambda2 * float(np.sum(np.abs(beta)))


def _penalized_loglik(loglik: float, theta: Theta, penalty: PenaltyConfig) -> float:
    # Adding the negated group penalties is bit-identical to subtracting
    # their sum: IEEE rounding is symmetric under negation.
    return loglik + sum(_penalized(0.0, g.alpha, g.beta, penalty) for g in theta.groups)


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
    # against an infinite log hazard gives nan, quietly, as the dot did.
    with np.errstate(invalid="ignore"):
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


def _smooth_gradients(
    work: _Workspace, l: int, alpha: float, sigma: float, terms, lambda1: float
):
    """Gradient of Q_l - lambda1 exp(-alpha) in (alpha, beta), plus dQ_l/dsigma.

    ``terms`` are the arrays :func:`_q_group_values` returned at the same
    (alpha, beta, sigma).
    """
    mu, cumhaz, weight = terms
    x = work.x_groups[l]
    # Far from the data the gradient overflows; callers treat a non-finite
    # gradient as a stalled step.
    with np.errstate(over="ignore", invalid="ignore"):
        resid = (cumhaz - weight) / sigma
        g_alpha = float(np.sum(resid)) + lambda1 * math.exp(-alpha)
        g_beta = x.T @ resid if x.shape[1] else np.zeros(0)
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


def _soft_threshold(x: np.ndarray, cut: float) -> np.ndarray:
    return np.sign(x) * np.maximum(np.abs(x) - cut, 0.0)


def _golden_section_max(f, lo: float, hi: float, tol: float = 1e-8):
    """Maximize a scalar function on [lo, hi]; returns (argmax, value)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    invphi2 = (3.0 - math.sqrt(5.0)) / 2.0
    a, b = lo, hi
    h = b - a
    c = a + invphi2 * h
    d = a + invphi * h
    fc, fd = f(c), f(d)
    while h > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + invphi2 * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + invphi * h
            fd = f(d)
    if fc > fd:
        return c, fc
    return d, fd


class _GroupState:
    """Mutable per-group optimizer state carried across EM iterations; the
    proximal step size starts at 1/n."""

    def __init__(self, g: GroupParams, sigma_floor: float, n: int):
        self.alpha = g.alpha
        self.beta = np.array(g.beta, dtype=float)
        self.sigma = max(g.sigma, sigma_floor)
        self.step = 1.0 / n
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
    """One M-step for a single group, in place: proximal gradient ascent on
    (alpha, beta) followed by a bounded sigma search.  Never decreases the
    penalized group objective."""

    def objective(alpha: float, beta: np.ndarray):
        q, terms = _q_group_values(work, l, alpha, beta, state.sigma, eta_l)
        return _penalized(q, alpha, beta, penalty), terms

    # Each gradient is taken where the objective was last evaluated, so it
    # reuses that evaluation's arrays.
    current, terms = objective(state.alpha, state.beta)
    state.stalled = False

    for _ in range(_INNER_ITERS):
        g_alpha, g_beta, _ = _smooth_gradients(
            work, l, state.alpha, state.sigma, terms, penalty.lambda1
        )
        if not (math.isfinite(g_alpha) and np.all(np.isfinite(g_beta))):
            state.stalled = True
            break
        step = state.step
        accepted = False
        for bt in range(_MAX_BACKTRACKS):
            alpha_new = state.alpha + step * g_alpha
            beta_new = _soft_threshold(
                state.beta + step * g_beta, step * penalty.lambda2
            )
            value, new_terms = objective(alpha_new, beta_new)
            if math.isfinite(value) and value >= current - 1e-12 * (1.0 + abs(current)):
                accepted = True
                break
            step *= 0.5
        if not accepted:
            state.stalled = True
            break
        moved = max(
            abs(alpha_new - state.alpha),
            float(np.max(np.abs(beta_new - state.beta))) if beta_new.size else 0.0,
        )
        improved = value - current
        state.alpha = alpha_new
        state.beta = beta_new
        state.step = min(step * 1.3, 1e6) if bt == 0 else step
        current, terms = value, new_terms
        if moved < 1e-12 or (0 <= improved < 1e-14 * (1.0 + abs(current))):
            break

    # Sigma update: the penalties do not involve sigma, so maximize Q_l alone
    # with mu fixed.  Keep the old sigma unless the search improves on it.
    mu, _, weight = terms
    d = work.log_t - mu
    s_weight = float(np.sum(weight))
    s_weighted_d = float(np.sum(weight * d))
    const = -float(np.sum(weight * work.log_t))

    def q_of_sigma(sigma: float) -> float:
        with np.errstate(over="ignore"):
            total_cumhaz = float(np.sum(np.exp(d / sigma)))
        return (
            s_weighted_d / sigma - s_weight * math.log(sigma) + const - total_cumhaz
        )

    q_old = q_of_sigma(state.sigma)
    sigma_new, q_new = _golden_section_max(q_of_sigma, sigma_floor, _SIGMA_MAX, tol=1e-8)
    if math.isfinite(q_new) and q_new > q_old:
        state.sigma = sigma_new


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
    states = [_GroupState(g, config.sigma_floor, data.n) for g in theta.groups]
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


def _run_em(
    work: _Workspace, penalty: PenaltyConfig, config: FitConfig, theta: Theta
) -> FitResult:
    states = [_GroupState(g, config.sigma_floor, work.delta.size) for g in theta.groups]
    theta = _theta_of(states)
    # One kernel evaluation per iteration: it gives the trace entry of theta
    # and the E-step from theta.
    log_haz, cumhaz = work.hazards(theta)
    loglik_trace = [_loglik(work, log_haz, cumhaz)]
    penalized_trace = [_penalized_loglik(loglik_trace[0], theta, penalty)]
    warnings: list[str] = []

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
        delta_norm = float(np.linalg.norm(theta_new.flatten() - theta.flatten()))
        theta = theta_new
        if delta_norm < config.epsilon:
            break

    return FitResult(
        theta_hat=theta,
        std_errors=None,
        winning_probs=_winning(log_haz),
        censored_rows=work.delta == 0,
        loglik_trace=np.asarray(loglik_trace),
        penalized_trace=np.asarray(penalized_trace),
        converged=delta_norm < config.epsilon,
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
    """Fit the model by EM, stopping when the parameter change drops below
    ``config.epsilon`` or the iteration budget runs out.

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
