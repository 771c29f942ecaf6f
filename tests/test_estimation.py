import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import optimize

import competing_weibull as cw
from competing_weibull import estimation
from competing_weibull.estimation import (
    _Point,
    _Workspace,
    _penalized_loglik,
    penalized_q_group,
)
from conftest import random_instance


def brute_force_loglik(theta, spec, data):
    """Independent oracle: per-subject density/survival product, logged."""
    total = 0.0
    for i in range(data.n):
        x = data.covariates[i]
        t = float(data.times[i])
        s = 1.0
        h = 0.0
        for params, group in zip(theta.groups, spec.groups):
            mu = params.alpha + sum(
                x[j] * b for j, b in zip(group.covariate_indices, params.beta)
            )
            kappa = 1.0 / params.sigma
            lam = math.exp(mu)
            s *= math.exp(-((t / lam) ** kappa))
            h += kappa * t ** (kappa - 1.0) / lam**kappa
        total += math.log((h if data.status[i] == 1 else 1.0) * s)
    return total


def direct_mle(spec, data, start_flat):
    """Independent oracle: quasi-Newton maximization over (alpha, beta, log sigma)."""
    work = _Workspace(spec, data)

    def pack(flat):
        out = flat.copy()
        pos = 0
        for g in spec.groups:
            k = g.n_covariates
            out[pos + 1 + k] = math.log(flat[pos + 1 + k])
            pos += k + 2
        return out

    def unpack(vec):
        out = vec.copy()
        pos = 0
        for g in spec.groups:
            k = g.n_covariates
            out[pos + 1 + k] = math.exp(vec[pos + 1 + k])
            pos += k + 2
        return out

    def negll(vec):
        return -_Point(work, cw.Theta.from_flat(unpack(vec), spec)).loglik

    res = optimize.minimize(
        negll,
        pack(np.asarray(start_flat, dtype=float)),
        method="Nelder-Mead",
        options=dict(maxiter=50_000, xatol=1e-10, fatol=1e-13),
    )
    res = optimize.minimize(
        negll, res.x, method="Nelder-Mead", options=dict(maxiter=50_000, xatol=1e-10, fatol=1e-13)
    )
    return cw.Theta.from_flat(unpack(res.x), spec), -res.fun


class TestLogLikelihood:
    def test_exponential_event(self, exp_unit):
        spec, theta = exp_unit
        data = cw.Dataset([1.0], [1], np.zeros((1, 0)))
        assert cw.log_likelihood(theta, spec, data) == pytest.approx(-1.0)

    def test_exponential_censored(self, exp_unit):
        spec, theta = exp_unit
        data = cw.Dataset([2.0], [0], np.zeros((1, 0)))
        assert cw.log_likelihood(theta, spec, data) == pytest.approx(-2.0)

    def test_matches_brute_force_product(self):
        rng = np.random.default_rng(3)
        spec = cw.ModelSpec([cw.GroupSpec([0, 1]), cw.GroupSpec([1, 2])], p=3)
        theta = cw.Theta(
            [
                cw.GroupParams(0.4, [0.5, -0.7], 0.9),
                cw.GroupParams(-0.2, [1.1, 0.3], 1.3),
            ]
        )
        data = cw.Dataset(
            rng.uniform(0.2, 3.0, size=5), [1, 0, 1, 1, 0], rng.standard_normal((5, 3))
        )
        assert cw.log_likelihood(theta, spec, data) == pytest.approx(
            brute_force_loglik(theta, spec, data), abs=1e-10
        )
        # How far a change of summation order may move the objective: the
        # example-2 truth on its 1,500 simulated rows.
        scen = cw.builtin_scenario(2, 0.2, seed=1)
        data = cw.generate(scen).data
        assert data.n == 1500
        assert cw.log_likelihood(scen.truth, scen.model, data) == pytest.approx(
            brute_force_loglik(scen.truth, scen.model, data), rel=1e-12
        )

    def test_overflow_names_subject(self, exp_unit):
        spec, _ = exp_unit
        theta = cw.Theta([cw.GroupParams(0.0, [], 0.2)])
        data = cw.Dataset([1.0, 1e280, 2.0], [1, 1, 1], np.zeros((3, 0)))
        with pytest.raises(cw.NumericError, match="subject 1"):
            cw.log_likelihood(theta, spec, data)


class TestEStep:
    def test_identical_groups(self):
        spec = cw.ModelSpec([cw.GroupSpec([])] * 3, p=0)
        theta = cw.Theta([cw.GroupParams(0.5, [], 0.9)] * 3)
        data = cw.Dataset([0.5, 1.0, 4.0], [1, 1, 0], np.zeros((3, 0)))
        eta = cw.e_step(theta, spec, data)
        assert eta == pytest.approx(np.full((3, 3), 1.0 / 3.0), abs=1e-14)

    def test_hazard_ratio_row(self, mixed_pair):
        spec, theta = mixed_pair
        data = cw.Dataset([1.0], [1], np.zeros((1, 0)))
        assert cw.e_step(theta, spec, data)[0] == pytest.approx([1 / 3, 2 / 3])

    def test_rows_match_direct_recomputation(self):
        rng = np.random.default_rng(21)
        spec, truth, data = random_instance(rng, n=40)
        eta = cw.e_step(truth, spec, data)
        assert np.allclose(eta.sum(axis=1), 1.0, atol=1e-12)
        for i in range(data.n):
            h = cw.hazard_by_group(truth, spec, data.covariates[i], float(data.times[i]))
            assert eta[i] == pytest.approx(h / h.sum(), rel=1e-12)


class TestQFunction:
    def test_single_group_equals_loglik(self, exp_unit):
        spec, theta = exp_unit
        data = cw.Dataset([0.4, 1.3, 2.2], [1, 1, 0], np.zeros((3, 0)))
        eta = np.ones((3, 1))
        assert cw.q_function(theta, spec, data, eta) == pytest.approx(
            cw.log_likelihood(theta, spec, data), abs=1e-12
        )

    def test_group_decomposition(self):
        rng = np.random.default_rng(8)
        spec, truth, data = random_instance(rng, n=60)
        eta = cw.e_step(truth, spec, data)
        total = cw.q_function(truth, spec, data, eta)
        parts = sum(cw.q_group(l, truth, spec, data, eta) for l in range(spec.n_groups))
        assert total == pytest.approx(parts, abs=1e-12 * (1 + abs(total)))

    def test_em_ascent_after_one_m_step(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            spec, truth, data = random_instance(rng, n=120)
            start = cw.initialize_theta(spec, data)
            eta = cw.e_step(start, spec, data)
            updated = cw.m_step(start, spec, data, eta, cw.PenaltyConfig(), cw.FitConfig())
            q_before = cw.q_function(start, spec, data, eta)
            q_after = cw.q_function(updated, spec, data, eta)
            assert q_after >= q_before - 1e-9 * (1 + abs(q_before))


class TestQGradients:
    def test_stationary_at_single_group_mle(self):
        rng = np.random.default_rng(44)
        spec = cw.ModelSpec([cw.GroupSpec([0])], p=1)
        x = rng.standard_normal((400, 1))
        truth = cw.Theta([cw.GroupParams(0.5, [1.0], 0.8)])
        times, _ = cw.sample_events(truth, spec, x, rng)
        data = cw.Dataset(times, np.ones(400, dtype=int), x)
        fit = cw.fit_em(spec, data, cw.PenaltyConfig(), cw.FitConfig(epsilon=1e-10))
        eta = cw.e_step(fit.theta_hat, spec, data)
        grad = cw.q_gradients(0, fit.theta_hat, spec, data, eta, cw.PenaltyConfig())
        norm = math.hypot(grad.alpha, *np.atleast_1d(grad.beta), grad.sigma)
        assert norm < 1e-6 * data.n

    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(7)
        spec = cw.ModelSpec(
            [cw.GroupSpec([0]), cw.GroupSpec([1]), cw.GroupSpec([0, 1])], p=2
        )
        sim = cw.generate(cw.builtin_scenario(1, 0.0, seed=123))
        data = cw.Dataset(
            sim.data.times[:150], sim.data.status[:150], sim.data.covariates[:150, :2]
        )
        penalty = cw.PenaltyConfig(0.7, 0.3)
        worst = 0.0
        for _ in range(100):
            theta = cw.Theta(
                [
                    cw.GroupParams(
                        rng.normal(1.0, 0.5),
                        np.sign(rng.normal(size=g.n_covariates))
                        * rng.uniform(0.05, 1.5, g.n_covariates),
                        rng.uniform(0.5, 2.0),
                    )
                    for g in spec.groups
                ]
            )
            eta = cw.e_step(theta, spec, data)
            l = int(rng.integers(0, spec.n_groups))
            grad = cw.q_gradients(l, theta, spec, data, eta, penalty)
            analytic = np.array([grad.alpha, *grad.beta, grad.sigma])
            params = theta.groups[l]
            values = [params.alpha, *params.beta, params.sigma]
            fd = np.empty(len(values))
            for j, v in enumerate(values):
                step = 1e-6 * (1.0 + abs(v))

                def bumped(s, j=j):
                    alpha, beta, sigma = params.alpha, params.beta.copy(), params.sigma
                    if j == 0:
                        alpha += s
                    elif j <= params.beta.shape[0]:
                        beta = beta.copy()
                        beta[j - 1] += s
                    else:
                        sigma += s
                    return theta.with_group(l, cw.GroupParams(alpha, beta, sigma))

                fd[j] = (
                    penalized_q_group(l, bumped(step), spec, data, eta, penalty)
                    - penalized_q_group(l, bumped(-step), spec, data, eta, penalty)
                ) / (2 * step)
            rel = np.max(np.abs(fd - analytic) / (1e-8 + np.abs(fd)))
            worst = max(worst, rel)
        assert worst < 1e-5

    def test_sigma_clipped_flag(self, exp_unit):
        spec, _ = exp_unit
        theta = cw.Theta([cw.GroupParams(0.0, [], 0.001)])
        data = cw.Dataset([1.0], [1], np.zeros((1, 0)))
        grad = cw.q_gradients(
            0, theta, spec, data, np.ones((1, 1)), cw.PenaltyConfig(), sigma_floor=0.05
        )
        assert grad.sigma_clipped

    def test_huge_sigma_does_not_overflow(self):
        # sigma**2 of a Python float raised OverflowError at sigma = 1e308.
        scen = cw.builtin_scenario(1, 0.1, seed=3)
        data = cw.generate(scen).data
        theta = cw.Theta([cw.GroupParams(g.alpha, g.beta, 1e308) for g in scen.truth.groups])
        eta = cw.e_step(theta, scen.model, data)
        grad = cw.q_gradients(0, theta, scen.model, data, eta, cw.PenaltyConfig(1.0, 1.0))
        assert math.isfinite(grad.alpha) and np.all(np.isfinite(grad.beta))

    def test_large_lasso_weight_zeroes_noise_coefficient(self):
        # One informative and one pure-noise covariate; a lasso weight above
        # the score noise drives the noise coefficient to an exact 0.0.
        rng = np.random.default_rng(99)
        spec = cw.ModelSpec([cw.GroupSpec([0, 1])], p=2)
        x = rng.standard_normal((400, 2))
        truth = cw.Theta([cw.GroupParams(0.3, [1.0, 0.0], 1.0)])
        times, _ = cw.sample_events(truth, spec, x, rng)
        data = cw.Dataset(times, np.ones(400, dtype=int), x)
        fit = cw.fit_em(spec, data, cw.PenaltyConfig(lambda2=120.0), cw.FitConfig())
        beta = fit.theta_hat.groups[0].beta
        assert beta[1] == 0.0
        assert beta[0] != 0.0


class TestScore:
    def test_matches_central_differences_of_loglik(self):
        rng = np.random.default_rng(29)
        worst = 0.0
        for _ in range(20):
            spec, truth, data = random_instance(rng, n=200)
            work = _Workspace(spec, data)
            x0 = truth.flatten() + rng.normal(0.0, 0.1, truth.n_params)
            analytic = _Point(work, cw.Theta.from_flat(x0, spec)).derivatives[0]
            fd = np.empty_like(x0)
            for j in range(x0.shape[0]):
                step = np.zeros_like(x0)
                step[j] = 1e-6 * (1.0 + abs(x0[j]))
                fd[j] = (
                    _Point(work, cw.Theta.from_flat(x0 + step, spec)).loglik
                    - _Point(work, cw.Theta.from_flat(x0 - step, spec)).loglik
                ) / (2 * step[j])
            worst = max(worst, np.max(np.abs(fd - analytic)) / np.max(np.abs(analytic)))
        assert worst < 1e-6


class TestMStep:
    def test_near_stationary_at_truth_large_n(self):
        # One EM map application from the truth moves by at most the
        # sampling scale (a few times the n=1e4 standard error).
        scen0 = cw.builtin_scenario(1, 0.0, seed=0)
        scen = cw.ScenarioSpec(scen0.model, scen0.truth, 10_000, 0.0, 424242)
        sim = cw.generate(scen)
        eta = cw.e_step(scen.truth, scen.model, sim.data)
        updated = cw.m_step(
            scen.truth, scen.model, sim.data, eta, cw.PenaltyConfig(), cw.FitConfig()
        )
        move = np.abs(updated.flatten() - scen.truth.flatten())
        assert np.max(move) < 0.05

    def test_exponential_closed_form(self):
        rng = np.random.default_rng(31415)
        t = rng.exponential(1.0, size=10_000)
        data = cw.Dataset(t, np.ones(t.size, dtype=int), np.zeros((t.size, 0)))
        spec = cw.ModelSpec([cw.GroupSpec([])], p=0)
        fit = cw.fit_em(spec, data, cw.PenaltyConfig(), cw.FitConfig(compute_std_errors=False))
        alpha_hat = fit.theta_hat.groups[0].alpha
        sigma_hat = fit.theta_hat.groups[0].sigma
        assert 0.97 <= sigma_hat <= 1.03
        # closed-form anchor; exact equality holds only at sigma_hat == 1,
        # so the tolerance is the O(sigma_hat - 1) sampling scale
        assert alpha_hat == pytest.approx(math.log(t.mean()), abs=0.01)

        # the exact oracle: profile maximum likelihood in sigma
        def neg_profile(s):
            a = s * math.log(np.mean(t ** (1.0 / s)))
            z = (np.log(t) - a) / s
            return -(float(np.sum(z - np.log(t) - math.log(s))) - float(np.sum(np.exp(z))))

        best = optimize.minimize_scalar(
            neg_profile, bounds=(0.5, 2.0), method="bounded", options=dict(xatol=1e-12)
        )
        sigma_star = best.x
        alpha_star = sigma_star * math.log(np.mean(t ** (1.0 / sigma_star)))
        assert alpha_hat == pytest.approx(alpha_star, abs=1e-6)
        assert sigma_hat == pytest.approx(sigma_star, abs=1e-6)

    def test_group_updates_are_order_independent(self):
        rng = np.random.default_rng(17)
        spec, truth, data = random_instance(rng, n=150, L=3)
        eta = cw.e_step(truth, spec, data)
        updated = cw.m_step(truth, spec, data, eta, cw.PenaltyConfig(0.2, 0.1), cw.FitConfig())

        perm = [2, 0, 1]
        spec_p = cw.ModelSpec([spec.groups[l] for l in perm], p=spec.p)
        truth_p = cw.Theta([truth.groups[l] for l in perm])
        updated_p = cw.m_step(
            truth_p, spec_p, data, eta[:, perm], cw.PenaltyConfig(0.2, 0.1), cw.FitConfig()
        )
        for new_pos, old_pos in enumerate(perm):
            assert np.array_equal(
                updated_p.groups[new_pos].beta, updated.groups[old_pos].beta
            )
            assert updated_p.groups[new_pos].alpha == updated.groups[old_pos].alpha
            assert updated_p.groups[new_pos].sigma == updated.groups[old_pos].sigma


def block_exactness_cases():
    """M-step inputs part way through fits, with and without exact zeros:
    (spec, data, penalty, theta, eta)."""
    rng = np.random.default_rng(5)
    cases = []
    for example, censoring, lambda2 in ((1, 0.1, 1.0), (2, 0.2, 1.0), (3, 0.3, 60.0)):
        scen = cw.builtin_scenario(example, censoring, seed=3)
        cases.append((scen.model, cw.generate(scen).data, cw.PenaltyConfig(2.0, lambda2)))
    for L in (1, 2, 3):
        spec, _, data = random_instance(rng, n=200, L=L)
        cases += [(spec, data, cw.PenaltyConfig(0.3, 0.1)), (spec, data, cw.PenaltyConfig(0.3, 15.0))]
    for spec, data, penalty in cases:
        for maps in (1, 4):
            config = cw.FitConfig(max_em_iters=maps, compute_std_errors=False)
            theta = cw.fit_em(spec, data, penalty, config).theta_hat
            yield spec, data, penalty, theta, cw.e_step(theta, spec, data)


class TestMStepBlocksAreExact:
    def test_location_block_meets_lasso_kkt(self):
        # The (alpha, beta) block maximizes the penalized group objective at
        # the sigma it was solved at: zero intercept gradient, gradient
        # lambda2 * sign(beta_j) on nonzero coefficients and at most lambda2
        # in size on exact zeros; relative to n, the gradient's scale.
        zeros = 0
        for spec, data, penalty, theta, eta in block_exactness_cases():
            updated = cw.m_step(theta, spec, data, eta, penalty, cw.FitConfig())
            for l, (old, new) in enumerate(zip(theta.groups, updated.groups)):
                at = theta.with_group(l, cw.GroupParams(new.alpha, new.beta, old.sigma))
                grad = cw.q_gradients(l, at, spec, data, eta, penalty)
                zero = new.beta == 0.0
                zeros += int(np.count_nonzero(zero))
                residual = np.concatenate([
                    [grad.alpha],
                    grad.beta[~zero],
                    np.maximum(np.abs(grad.beta[zero]) - penalty.lambda2, 0.0),
                ])
                assert np.max(np.abs(residual)) <= 1e-8 * data.n
        assert zeros > 0

    def test_sigma_block_is_stationary(self):
        floor = cw.FitConfig().sigma_floor
        for spec, data, penalty, theta, eta in block_exactness_cases():
            updated = cw.m_step(theta, spec, data, eta, penalty, cw.FitConfig())
            for l, group in enumerate(updated.groups):
                if group.sigma in (floor, 10.0):
                    continue
                grad = cw.q_gradients(l, updated, spec, data, eta, penalty)
                assert abs(grad.sigma) <= 1e-9 * data.n


class TestFitEM:
    def test_start_sigma_is_clamped_into_its_bounds(self):
        # A sigma of 1e308 overflowed sigma**2 in the M-step; a start or an
        # M-step input outside [sigma_floor, 10] now runs from the nearest bound.
        scen = cw.builtin_scenario(1, 0.1, seed=3)
        data = cw.generate(scen).data
        penalty, config = cw.PenaltyConfig(2.0, 1.0), cw.FitConfig(sigma_floor=0.5)
        eta = cw.e_step(scen.truth, scen.model, data)

        def with_sigma(sigma):
            return cw.Theta([cw.GroupParams(g.alpha, g.beta, sigma) for g in scen.truth.groups])

        for outside, bound in ((1e308, 10.0), (1e-300, 0.5)):
            fits = [
                cw.fit_em(scen.model, data, penalty, config, theta_init=with_sigma(s))
                for s in (outside, bound)
            ]
            assert np.array_equal(fits[0].penalized_trace, fits[1].penalized_trace)
            assert np.array_equal(fits[0].theta_hat.flatten(), fits[1].theta_hat.flatten())
            maps = [
                cw.m_step(with_sigma(s), scen.model, data, eta, penalty, config).flatten()
                for s in (outside, bound)
            ]
            assert np.array_equal(maps[0], maps[1])

    def test_example_one_replica_recovers_truth(self):
        scen = cw.builtin_scenario(1, 0.0, seed=5)
        sim = cw.generate(scen)
        fit = cw.fit_em(
            scen.model, sim.data, cw.PenaltyConfig(0.5, 0.2), cw.FitConfig()
        )
        assert fit.converged
        # within 3 reported standard errors of the truth, per parameter
        reported_se = np.array(
            [0.091, 0.082, 0.051, 0.088, 0.076, 0.044, 0.138, 0.115, 0.068]
        )
        err = np.abs(fit.theta_hat.flatten() - scen.truth.flatten())
        assert np.all(err < 3 * reported_se)

    def test_unpenalized_loglik_trace_monotone(self):
        rng = np.random.default_rng(101)
        for _ in range(5):
            spec, truth, data = random_instance(rng, n=150)
            fit = cw.fit_em(
                spec,
                data,
                cw.PenaltyConfig(),
                cw.FitConfig(max_em_iters=400, compute_std_errors=False),
            )
            assert np.all(np.diff(fit.loglik_trace) >= -1e-8)
            assert np.all(np.isfinite(fit.loglik_trace))

    def test_penalized_trace_recorded(self):
        rng = np.random.default_rng(6)
        spec, truth, data = random_instance(rng, n=100)
        fit = cw.fit_em(
            spec, data, cw.PenaltyConfig(0.5, 0.3), cw.FitConfig(compute_std_errors=False)
        )
        assert fit.penalized_trace.shape == fit.loglik_trace.shape
        assert np.all(fit.penalized_trace <= fit.loglik_trace + 1e-12)

    def test_winning_prob_rows_sum_to_one_and_flag_censored(self):
        rng = np.random.default_rng(23)
        spec, truth, data = random_instance(rng, n=80, target_censoring=0.3)
        fit = cw.fit_em(spec, data, config=cw.FitConfig(compute_std_errors=False))
        assert np.allclose(fit.winning_probs.sum(axis=1), 1.0, atol=1e-10)
        assert np.array_equal(fit.censored_rows, data.status == 0)

    def test_non_convergence_is_flagged_not_raised(self):
        rng = np.random.default_rng(2)
        spec, truth, data = random_instance(rng, n=100)
        fit = cw.fit_em(
            spec,
            data,
            config=cw.FitConfig(max_em_iters=1, epsilon=1e-14, compute_std_errors=False),
        )
        assert not fit.converged
        assert fit.n_iters == 1

    def test_warm_start_converges_immediately(self):
        rng = np.random.default_rng(55)
        spec, truth, data = random_instance(rng, n=120)
        first = cw.fit_em(spec, data, config=cw.FitConfig(compute_std_errors=False))
        again = cw.fit_em(
            spec,
            data,
            config=cw.FitConfig(compute_std_errors=False),
            theta_init=first.theta_hat,
        )
        assert again.converged
        assert again.n_iters <= 2

    def test_identical_covariate_sets_rejected(self):
        spec = cw.ModelSpec([cw.GroupSpec([0]), cw.GroupSpec([0])], p=1)
        data = cw.Dataset([1.0, 2.0], [1, 1], np.zeros((2, 1)))
        with pytest.raises(cw.SpecError):
            cw.fit_em(spec, data)

    def test_dimension_mismatch_rejected(self):
        spec = cw.ModelSpec([cw.GroupSpec([0])], p=1)
        data = cw.Dataset([1.0, 2.0], [1, 1], np.zeros((2, 2)))
        with pytest.raises(cw.SpecError):
            cw.fit_em(spec, data)

    def test_relabelling_groups_permutes_fit(self):
        scen = cw.builtin_scenario(1, 0.0, seed=9)
        sim = cw.generate(scen)
        config = cw.FitConfig(max_em_iters=60, compute_std_errors=False)
        fit = cw.fit_em(scen.model, sim.data, cw.PenaltyConfig(0.3, 0.1), config)

        perm = [1, 2, 0]
        spec_p = cw.ModelSpec([scen.model.groups[l] for l in perm], p=scen.model.p)
        fit_p = cw.fit_em(spec_p, sim.data, cw.PenaltyConfig(0.3, 0.1), config)
        for new_pos, old_pos in enumerate(perm):
            assert fit_p.theta_hat.groups[new_pos].alpha == fit.theta_hat.groups[old_pos].alpha
            assert np.array_equal(
                fit_p.theta_hat.groups[new_pos].beta, fit.theta_hat.groups[old_pos].beta
            )
            assert fit_p.theta_hat.groups[new_pos].sigma == fit.theta_hat.groups[old_pos].sigma

    def test_intercept_only_group_alongside_covariate_group(self):
        rng = np.random.default_rng(1)
        spec = cw.ModelSpec([cw.GroupSpec([0]), cw.GroupSpec([])], p=1)
        truth = cw.Theta([cw.GroupParams(0.4, [0.9], 0.9), cw.GroupParams(1.3, [], 1.2)])
        x = rng.standard_normal((400, 1))
        times, _ = cw.sample_events(truth, spec, x, rng)
        data = cw.Dataset(times, np.ones(400, dtype=int), x)
        fit = cw.fit_em(spec, data, config=cw.FitConfig(compute_std_errors=False))
        assert fit.converged
        assert np.allclose(fit.winning_probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.max(np.abs(fit.theta_hat.flatten() - truth.flatten())) < 0.6

    def test_one_iteration_is_e_step_then_m_step(self, monkeypatch):
        # With the Newton finish switched off the driver is plain EM: its maps
        # are the public E- and M-steps, bit for bit, one map or ten.
        monkeypatch.setattr(estimation, "_NEWTON_START", 0.0)
        rng = np.random.default_rng(47)
        spec, truth, data = random_instance(rng, n=150, L=3)
        scen = cw.builtin_scenario(1, 0.1, seed=3)
        cases = [
            (spec, data, cw.PenaltyConfig(0.3, 0.1), 1),
            (scen.model, cw.generate(scen).data, cw.PenaltyConfig(2.0, 1.0), 10),
        ]
        for spec, data, penalty, n_maps in cases:
            config = cw.FitConfig(max_em_iters=n_maps, compute_std_errors=False)
            start = cw.initialize_theta(spec, data)
            fit = cw.fit_em(spec, data, penalty, config, theta_init=start)
            updated = start
            for _ in range(n_maps):
                eta = cw.e_step(updated, spec, data)
                updated = cw.m_step(updated, spec, data, eta, penalty, config)
            assert fit.n_iters == n_maps
            assert np.array_equal(fit.theta_hat.flatten(), updated.flatten())
            assert np.array_equal(fit.winning_probs, cw.e_step(updated, spec, data))
            assert fit.final_loglik == cw.log_likelihood(updated, spec, data)

    def test_overflowing_gradient_stalls_without_runtime_warnings(self):
        rng = np.random.default_rng(1)
        spec = cw.ModelSpec([cw.GroupSpec([0]), cw.GroupSpec([1])], p=2)
        truth = cw.Theta([cw.GroupParams(0.4, [0.9], 0.9), cw.GroupParams(1.3, [0.5], 1.2)])
        x = rng.standard_normal((300, 2))
        times, _ = cw.sample_events(truth, spec, x, rng)
        data = cw.Dataset(times, np.ones(300, dtype=int), x)
        start = cw.Theta([cw.GroupParams(-8.0, [0.9], 0.01), cw.GroupParams(1.3, [0.5], 1.2)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = cw.fit_em(spec, data, theta_init=start)
        assert any("stalled" in w for w in fit.warnings)

    def test_stalled_group_keeps_alpha_beta_and_moves_sigma(self):
        # The (alpha, beta) search of group 0 stalls at once from this start;
        # its sigma is still re-maximized, and the warning says so.
        rng = np.random.default_rng(1)
        spec = cw.ModelSpec([cw.GroupSpec([0]), cw.GroupSpec([1])], p=2)
        truth = cw.Theta([cw.GroupParams(0.4, [0.9], 0.9), cw.GroupParams(1.3, [0.5], 1.2)])
        x = rng.standard_normal((300, 2))
        times, _ = cw.sample_events(truth, spec, x, rng)
        data = cw.Dataset(times, np.ones(300, dtype=int), x)
        start = cw.Theta([cw.GroupParams(-8.0, [0.9], 0.01), cw.GroupParams(1.3, [0.5], 1.2)])
        config = cw.FitConfig(max_em_iters=1, compute_std_errors=False)
        fit = cw.fit_em(spec, data, theta_init=start, config=config)
        group = fit.theta_hat.groups[0]
        assert group.alpha == -8.0 and np.array_equal(group.beta, [0.9])
        assert group.sigma != 0.01
        assert fit.warnings == (
            "iteration 0: group 0 (alpha, beta) line search stalled; "
            "alpha and beta kept, sigma re-maximized",
        )

    def test_fit_does_not_depend_on_blas_threads(self):
        # Example 2 at n = 12000: a threaded BLAS dot in the M-step made the
        # tenth iteration differ between one and two threads.
        script = (
            "import competing_weibull as cw\n"
            "from competing_weibull.simulation import ScenarioSpec\n"
            "base = cw.builtin_scenario(2, 0.2)\n"
            "scen = ScenarioSpec(base.model, base.truth, 12000, base.target_censoring, 4)\n"
            "fit = cw.fit_em(scen.model, cw.generate(scen).data, cw.PenaltyConfig(2.0, 1.0),\n"
            "    cw.FitConfig(max_em_iters=10, compute_std_errors=False))\n"
            "for a in (fit.theta_hat.flatten(), fit.loglik_trace, fit.penalized_trace):\n"
            "    print(a.tobytes().hex())\n"
        )
        src = str(Path(cw.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            run = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True
            )
            assert run.returncode == 0, run.stderr
            outputs.append(run.stdout)
        assert outputs[0] == outputs[1]

    def test_multi_start_is_deterministic(self):
        rng = np.random.default_rng(77)
        spec, truth, data = random_instance(rng, n=100)
        config = cw.FitConfig(n_starts=3, seed=4, max_em_iters=80, compute_std_errors=False)
        a = cw.fit_em(spec, data, config=config)
        b = cw.fit_em(spec, data, config=config)
        assert np.array_equal(a.theta_hat.flatten(), b.theta_hat.flatten())

    def test_single_group_matches_direct_maximization(self):
        scen = cw.builtin_scenario(1, 0.0, seed=5)
        sim = cw.generate(scen)
        spec = cw.ModelSpec([cw.GroupSpec([0, 1, 2])], p=3)
        fit = cw.fit_em(spec, sim.data, config=cw.FitConfig(compute_std_errors=False))
        start = np.array([1.0, 0.0, 0.0, 0.0, 1.0])
        direct_theta, direct_ll = direct_mle(spec, sim.data, start)
        assert fit.final_loglik == pytest.approx(direct_ll, abs=1e-6)
        assert np.max(np.abs(fit.theta_hat.flatten() - direct_theta.flatten())) < 1e-4


def plain_em(spec, data, penalty, config, theta):
    """Reference: unaccelerated EM through the public E- and M-steps, with the
    same stop test; returns the last point and the number of maps."""
    for k in range(config.max_em_iters):
        new = cw.m_step(theta, spec, data, cw.e_step(theta, spec, data), penalty, config)
        moved = np.linalg.norm(new.flatten() - theta.flatten())
        theta = new
        if moved < config.epsilon:
            return theta, k + 1
    return theta, config.max_em_iters


def one_group_far_start(alpha):
    rng = np.random.default_rng(0)
    spec = cw.ModelSpec([cw.GroupSpec([0])], p=1)
    x = rng.standard_normal((100, 1))
    times, _ = cw.sample_events(cw.Theta([cw.GroupParams(0.5, [0.8], 1.0)]), spec, x, rng)
    data = cw.Dataset(times, np.ones(100, dtype=int), x)
    return spec, data, cw.Theta([cw.GroupParams(alpha, [0.8], 1.0)])


class TestPlainEmReference:
    """The fit against plain EM through the public E- and M-steps."""

    def test_matches_plain_em(self):
        # Plain EM stops once its move is below epsilon = 1e-6, which at a
        # contraction rate rho leaves it about 1e-6 / (1 - rho) from the fixed
        # point; slow fits here have rho near 0.99, hence 2e-4 on theta.  The
        # penalized objective is flat there, so it agrees to 1e-9 relative.
        rng = np.random.default_rng(61)
        cases = []
        settings = ((1, 0.1, 1.0), (2, 0.2, 1.0), (3, 0.3, 1.0), (3, 0.3, 60.0))
        for example, censoring, lambda2 in settings:
            scen = cw.builtin_scenario(example, censoring, seed=3)
            cases.append((scen.model, cw.generate(scen).data, cw.PenaltyConfig(2.0, lambda2)))
        for L in (1, 2, 3):
            spec, _, data = random_instance(rng, n=200, L=L)
            cases.append((spec, data, cw.PenaltyConfig(0.3, 0.1)))
        config = cw.FitConfig(compute_std_errors=False)
        maps, zeros = [], []
        for spec, data, penalty in cases:
            start = cw.initialize_theta(spec, data)
            reference, n_maps = plain_em(spec, data, penalty, config, start)
            fit = cw.fit_em(spec, data, penalty, config)
            assert fit.converged
            expected = _penalized_loglik(
                _Point(_Workspace(spec, data), reference).loglik, reference, penalty
            )
            assert abs(fit.final_penalized - expected) <= 1e-9 * (1.0 + abs(expected))
            flat, ref_flat = fit.theta_hat.flatten(), reference.flatten()
            assert np.max(np.abs(flat - ref_flat)) < 2e-4
            assert np.array_equal(flat == 0.0, ref_flat == 0.0)
            zeros.append(np.count_nonzero(flat == 0.0))
            maps.append((fit.n_iters, n_maps))
        assert zeros[3] > 0  # example 3 at lambda2 = 60 has exact zeros
        # On example 1 the Newton finish needs fewer iterations than plain EM.
        assert maps[0][0] < maps[0][1]


class TestSquarem:
    """The EM driver: plain EM maps with Newton steps (the class is named for
    the extrapolation the driver once had)."""

    # At the default floor no sigma reaches it, and Newton steps finish the
    # larger budgets; at 1.05, which the fitted sigmas of this dataset press
    # against, the M-step pins one more sigma to the floor every few maps.
    @pytest.mark.parametrize("sigma_floor", [0.01, 1.05])
    @pytest.mark.parametrize("budget", range(1, 7))
    def test_budget_floor_and_monotone_trace(self, budget, sigma_floor):
        scen = cw.builtin_scenario(1, 0.1, seed=3)
        data = cw.generate(scen).data
        config = cw.FitConfig(
            max_em_iters=budget, sigma_floor=sigma_floor, compute_std_errors=False
        )
        fit = cw.fit_em(scen.model, data, cw.PenaltyConfig(2.0, 1.0), config)
        assert fit.n_iters <= budget
        assert len(fit.penalized_trace) == fit.n_iters + 1
        assert all(g.sigma >= config.sigma_floor for g in fit.theta_hat.groups)
        trace = fit.penalized_trace
        assert np.all(np.diff(trace) >= -1e-8 * (1.0 + np.abs(trace[1:])))

    @pytest.mark.parametrize("lambda1", [0.0, 2.0])
    def test_far_intercept_start_does_not_raise(self, lambda1):
        # exp(720) overflows a double: the intercept penalty must not raise,
        # and the fit must still climb out to the fit from the default start.
        spec, data, start = one_group_far_start(-720.0)
        penalty = cw.PenaltyConfig(lambda1, 0.0)
        config = cw.FitConfig(compute_std_errors=False)
        reference = cw.fit_em(spec, data, penalty, config)
        fit = cw.fit_em(spec, data, penalty, config, theta_init=start)
        assert fit.converged
        assert np.max(np.abs(fit.theta_hat.flatten() - reference.theta_hat.flatten())) < 1e-6

    def test_far_start_reaches_the_mle(self):
        # From alpha = -700 the first gradient is of order e^700; the fit must
        # still reach the MLE rather than stop far from it as converged.
        spec, data, start = one_group_far_start(-700.0)
        config = cw.FitConfig(compute_std_errors=False)
        reference = cw.fit_em(spec, data, cw.PenaltyConfig(), config)
        fit = cw.fit_em(spec, data, cw.PenaltyConfig(), config, theta_init=start)
        assert fit.converged
        assert np.max(np.abs(fit.theta_hat.flatten() - reference.theta_hat.flatten())) < 1e-6
        assert fit.final_loglik == pytest.approx(reference.final_loglik, abs=1e-6)

    def test_far_start_change_norm_is_quiet(self):
        spec, data, start = one_group_far_start(-700.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = cw.fit_em(spec, data, theta_init=start)
        assert fit.n_iters >= 1


class TestOneLoop:
    """EM maps and Newton steps are iterations of one loop, so a budget of k
    iterations stops the unbudgeted fit after its first k."""

    @pytest.mark.parametrize(
        "example, censoring, lambda2, n_full",
        [(1, 0.1, 30.0, 26), (2, 0.2, 1.0, 12)],
        ids=["ex1-crawl", "ex2"],
    )
    def test_budget_truncates_the_unbudgeted_fit(self, example, censoring, lambda2, n_full):
        # Example 1 at lambda2 = 30 is the crawl of TestNewtonFinish.
        scen = cw.builtin_scenario(example, censoring, seed=3)
        data = cw.generate(scen).data
        penalty = cw.PenaltyConfig(2.0, lambda2)
        full = cw.fit_em(scen.model, data, penalty)
        assert full.converged and full.n_iters == n_full
        for k in range(1, n_full + 1):
            fit = cw.fit_em(scen.model, data, penalty, cw.FitConfig(max_em_iters=k))
            assert np.array_equal(fit.penalized_trace, full.penalized_trace[: k + 1])
            assert fit.converged == (k == n_full)
        assert np.array_equal(fit.theta_hat.flatten(), full.theta_hat.flatten())
        for name in ("std_errors", "winning_probs", "loglik_trace"):
            assert np.array_equal(getattr(fit, name), getattr(full, name))
        assert (fit.n_iters, fit.warnings, fit.kkt_residual) == (
            full.n_iters, full.warnings, full.kkt_residual
        )


def spy_newton(monkeypatch):
    """Record every run of Newton steps as (steps taken, whether the run was
    still going when the fit ended); a run ends when a step fails a
    safeguard, and one that ended the fit of a converged fit converged."""
    phases = []
    real = estimation._newton_point

    def spy(*args):
        out = real(*args)
        steps = phases.pop()[0] if phases and phases[-1][1] else 0
        phases.append((steps + (out is not None), out is not None))
        return out

    monkeypatch.setattr(estimation, "_newton_point", spy)
    return phases


class TestNewtonFinish:
    def test_lasso_crawl_finishes(self):
        # At lambda2 = 30 the lasso zeroes group 3's beta, and its alpha and
        # sigma drift together along a flat ridge on which EM maps crawl;
        # -854.2154791484 is where EM maps alone stop.
        scen = cw.builtin_scenario(1, 0.1, seed=3)
        fit = cw.fit_em(
            scen.model,
            cw.generate(scen).data,
            cw.PenaltyConfig(2.0, 30.0),
            cw.FitConfig(compute_std_errors=False),
        )
        assert fit.converged
        assert fit.n_iters <= 100
        assert fit.final_penalized >= -854.2154791484
        assert fit.kkt_residual < 1e-6

    def test_relabelled_newton_fit_is_bit_identical(self, monkeypatch):
        phases = spy_newton(monkeypatch)
        scen = cw.builtin_scenario(2, 0.2, seed=3)
        data = cw.generate(scen).data
        penalty = cw.PenaltyConfig(2.0, 1.0)
        fit = cw.fit_em(scen.model, data, penalty)
        assert fit.converged and phases[-1][0] > 0 and phases[-1][1]

        perm = [2, 0, 1]
        spec_p = cw.ModelSpec([scen.model.groups[l] for l in perm], p=scen.model.p)
        fit_p = cw.fit_em(spec_p, data, penalty)

        def by_group(flat, spec):
            ends = np.cumsum([2 + g.n_covariates for g in spec.groups])
            return np.split(flat, ends[:-1])

        for values, values_p in (
            (fit.theta_hat.flatten(), fit_p.theta_hat.flatten()),
            (fit.std_errors, fit_p.std_errors),
        ):
            groups, groups_p = by_group(values, scen.model), by_group(values_p, spec_p)
            for new_pos, old_pos in enumerate(perm):
                assert np.array_equal(groups_p[new_pos], groups[old_pos])
        assert np.array_equal(fit_p.penalized_trace, fit.penalized_trace)

    def test_singular_information_completes_through_em(self, monkeypatch):
        # A constant-zero column gives its nonzero coefficient no curvature:
        # the Newton block has no Cholesky factor, so EM maps finish the fit.
        phases = spy_newton(monkeypatch)
        rng = np.random.default_rng(12)
        spec = cw.ModelSpec([cw.GroupSpec([0, 1])], p=2)
        x = np.column_stack([rng.standard_normal(150), np.zeros(150)])
        truth = cw.Theta([cw.GroupParams(0.2, [0.8, 0.0], 1.0)])
        times, _ = cw.sample_events(truth, spec, x, rng)
        data = cw.Dataset(times, np.ones(150, dtype=int), x)
        start = cw.Theta([cw.GroupParams(0.0, [0.5, 0.3], 1.0)])
        fit = cw.fit_em(spec, data, theta_init=start)
        assert phases and all(phase == (0, False) for phase in phases)
        assert fit.converged
        assert fit.std_errors is None
        assert any("standard errors" in w for w in fit.warnings)
        assert fit.theta_hat.groups[0].beta[1] == 0.3
        reduced = cw.fit_em(cw.ModelSpec([cw.GroupSpec([0])], p=2), data)
        kept = fit.theta_hat.flatten()[[0, 1, 3]]
        assert np.max(np.abs(kept - reduced.theta_hat.flatten())) < 1e-5


def central_difference_information(work, spec, x0):
    """Minus the symmetrized central-difference Jacobian of the analytic score."""
    d = x0.shape[0]
    jac = np.empty((d, d))
    for j in range(d):
        step = np.zeros(d)
        step[j] = 1e-6 * (1.0 + abs(x0[j]))
        jac[:, j] = (
            _Point(work, cw.Theta.from_flat(x0 + step, spec)).derivatives[0]
            - _Point(work, cw.Theta.from_flat(x0 - step, spec)).derivatives[0]
        ) / (2.0 * step[j])
    return -0.5 * (jac + jac.T)


class TestObservedInformation:
    @staticmethod
    def instances():
        for example, censoring in ((1, 0.1), (2, 0.2), (3, 0.3)):
            scen = cw.builtin_scenario(example, censoring, seed=1)
            yield scen.model, scen.truth, cw.generate(scen).data
        rng = np.random.default_rng(31)
        for L in (1, 2, 3):
            spec, truth, data = random_instance(rng, n=300, L=L, target_censoring=0.2)
            moved = truth.flatten() + rng.normal(0.0, 0.1, truth.n_params)
            yield spec, cw.Theta.from_flat(moved, spec), data
        # An intercept-only group beside one whose sigma is near the floor.
        spec = cw.ModelSpec([cw.GroupSpec([0]), cw.GroupSpec([])], p=1)
        truth = cw.Theta([cw.GroupParams(0.4, [0.9], 0.02), cw.GroupParams(1.0, [], 1.2)])
        x = rng.standard_normal((300, 1))
        times, _ = cw.sample_events(truth, spec, x, rng)
        observed, status, _ = cw.apply_censoring(times, 0.2, rng)
        yield spec, truth, cw.Dataset(observed, status, x)

    def test_matches_central_differences_of_score(self):
        for spec, theta, data in self.instances():
            work = _Workspace(spec, data)
            info = _Point(work, theta).derivatives[1]
            assert np.array_equal(info, info.T)
            reference = central_difference_information(work, spec, theta.flatten())
            assert np.max(np.abs(info - reference)) <= 1e-6 * np.max(np.abs(reference))

    def test_fit_reuses_the_information_at_theta_hat(self):
        scen = cw.builtin_scenario(2, 0.2, seed=3)
        data = cw.generate(scen).data
        fit = cw.fit_em(scen.model, data, cw.PenaltyConfig(2.0, 1.0))
        assert np.array_equal(fit.std_errors, cw.standard_errors(fit.theta_hat, scen.model, data))


class TestStandardErrors:
    def test_exponential_alpha_se_scales_as_fisher(self):
        # Joint (alpha, sigma) Gumbel information gives SE(alpha) of about
        # 1.054/sqrt(n), within 10% of 1/sqrt(n).
        rng = np.random.default_rng(808)
        n = 10_000
        t = rng.exponential(1.0, size=n)
        data = cw.Dataset(t, np.ones(n, dtype=int), np.zeros((n, 0)))
        spec = cw.ModelSpec([cw.GroupSpec([])], p=0)
        fit = cw.fit_em(spec, data)
        se_alpha = fit.std_errors[0]
        assert abs(se_alpha * math.sqrt(n) - 1.0) < 0.1

    def test_example_one_ses_match_sampling_spread(self):
        # The honest oracle for the SE estimator is the Monte-Carlo spread of
        # the estimator itself (probed at 20 replications: sd ~ 0.20, 0.14,
        # 0.075 for group 1).  The benchmark's reported values are tighter
        # than the actual sampling spread for the intercepts, so agreement
        # with them is only factor-level.
        mc_sd = np.array([0.202, 0.143, 0.075, 0.134, 0.083, 0.046, 0.230, 0.135, 0.126])
        reported = np.array([0.091, 0.082, 0.051, 0.088, 0.076, 0.044, 0.138, 0.115, 0.068])
        scen = cw.builtin_scenario(1, 0.0, seed=5)
        sim = cw.generate(scen)
        fit = cw.fit_em(scen.model, sim.data, cw.PenaltyConfig(0.5, 0.2), cw.FitConfig())
        se = fit.std_errors
        ratio_mc = se / mc_sd
        assert np.all(ratio_mc > 1 / 1.5) and np.all(ratio_mc < 1.5)
        ratio_reported = se / reported
        assert np.all(ratio_reported < 2.5) and np.all(ratio_reported > 1 / 2.5)

    @pytest.mark.parametrize("sigma", [0.3, 1.0, 2.5])
    def test_single_group_matches_closed_form_information(self, sigma):
        # Intercept-only Weibull with censoring: with z = (log t - alpha)/sigma
        # and D events, l = sum delta (z - log t - log sigma) - sum e^z.
        rng = np.random.default_rng(5)
        n, alpha = 2000, 0.7
        spec = cw.ModelSpec([cw.GroupSpec([])], p=0)
        theta = cw.Theta([cw.GroupParams(alpha, [], sigma)])
        times, _ = cw.sample_events(theta, spec, np.zeros((n, 0)), rng)
        observed, status, _ = cw.apply_censoring(times, 0.25, rng)
        data = cw.Dataset(observed, status, np.zeros((n, 0)))

        z = (np.log(observed) - alpha) / sigma
        e, d = np.exp(z), status.astype(float)
        info = np.array(
            [
                [e.sum(), (e * z).sum() + e.sum() - d.sum()],
                [
                    (e * z).sum() + e.sum() - d.sum(),
                    (e * z * z).sum() + 2 * (e * z).sum() - 2 * (d * z).sum() - d.sum(),
                ],
            ]
        ) / sigma**2
        expected = np.sqrt(np.diag(np.linalg.inv(info)))
        assert cw.standard_errors(theta, spec, data) == pytest.approx(expected, rel=1e-7)

    def test_singular_information_names_directions(self):
        # A constant-zero covariate column leaves its coefficient
        # unidentified, so the observed information is singular along it.
        rng = np.random.default_rng(12)
        spec = cw.ModelSpec([cw.GroupSpec([0, 1])], p=2)
        x = np.column_stack([rng.standard_normal(200), np.zeros(200)])
        truth = cw.Theta([cw.GroupParams(0.2, [0.8, 0.0], 1.0)])
        times, _ = cw.sample_events(truth, spec, x, rng)
        data = cw.Dataset(times, np.ones(200, dtype=int), x)
        with pytest.raises(cw.SingularHessianError, match="beta\\[x2\\]"):
            cw.standard_errors(truth, spec, data)

    def test_huge_sigma_raises_numeric_error(self):
        # sigma**2 of a Python float raised OverflowError at sigma = 1e308.
        scen = cw.builtin_scenario(1, 0.1, seed=3)
        data = cw.generate(scen).data
        theta = cw.Theta([cw.GroupParams(g.alpha, g.beta, 1e308) for g in scen.truth.groups])
        with pytest.raises(cw.NumericError):
            cw.standard_errors(theta, scen.model, data)

    def test_fit_em_survives_singular_information(self):
        rng = np.random.default_rng(12)
        spec = cw.ModelSpec([cw.GroupSpec([0, 1])], p=2)
        x = np.column_stack([rng.standard_normal(150), np.zeros(150)])
        truth = cw.Theta([cw.GroupParams(0.2, [0.8, 0.0], 1.0)])
        times, _ = cw.sample_events(truth, spec, x, rng)
        data = cw.Dataset(times, np.ones(150, dtype=int), x)
        fit = cw.fit_em(spec, data)
        assert fit.std_errors is None
        assert any("standard errors" in w for w in fit.warnings)
