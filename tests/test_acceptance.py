"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is fixed here; the statistical criteria use frozen
seeds so the suite is fully deterministic.
"""

import math
import time

import numpy as np
import pytest
from scipy import optimize

import competing_weibull as cw
from competing_weibull.estimation import _Point, _Workspace, penalized_q_group
from competing_weibull.metrics import (
    concordance_index,
    default_time_grid,
    integrated_auc,
    risk_markers,
    time_dependent_roc,
)
from competing_weibull.model import tail_integral_bounds
from conftest import random_instance

# Benchmark truth and reported standard errors (flattened layout
# alpha, beta..., sigma per group).
EX1_TRUTH = np.array([1.6, 1.2, 1.0, 1.2, 2.0, 1.0, 2.1, 1.0, 1.1])
EX1_REPORTED_SE = np.array([0.091, 0.082, 0.051, 0.088, 0.076, 0.044, 0.138, 0.115, 0.068])
EX2_TRUTH = np.array(
    [1.0, -3.0, 2.0, 1.0, 1.0, 1.5, 2.0, 2.0, 1.0, 1.0, -2.0, 3.0, 2.0, 1.1]
)
EX2_REPORTED_SE = np.array(
    [0.101, 0.085, 0.062, 0.061, 0.040, 0.115, 0.088, 0.062, 0.038, 0.117, 0.094, 0.064, 0.081, 0.043]
)
# Benchmark C-index / iAUC for Example 2 without censoring.
EX2_METRICS = {"competing": (0.865, 0.950), "single": (0.805, 0.902)}


def report(criterion, passed, detail):
    print(f"[criterion {criterion}] {'PASS' if passed else 'FAIL'}: {detail}")


def fit_scenario(scenario, lambda1, lambda2, **config_kwargs):
    config = cw.FitConfig(compute_std_errors=False, **config_kwargs)
    return cw.fit_em(
        scenario.model, cw.generate(scenario).data, cw.PenaltyConfig(lambda1, lambda2), config
    )


class TestCriterion1Recovery:
    def test_parameter_recovery_examples_one_and_two(self):
        start = time.time()
        scen1 = cw.builtin_scenario(1, 0.0, seed=5)
        fit1 = fit_scenario(scen1, 0.5, 0.2)
        err1 = np.abs(fit1.theta_hat.flatten() - EX1_TRUTH)
        ok1 = bool(np.all(err1 < 3 * EX1_REPORTED_SE))

        scen2 = cw.builtin_scenario(2, 0.1, seed=3)
        fit2 = fit_scenario(scen2, 2.0, 1.0)
        err2 = np.abs(fit2.theta_hat.flatten() - EX2_TRUTH)
        ok2 = bool(np.all(err2 < 3 * EX2_REPORTED_SE))
        elapsed = time.time() - start

        report(
            1,
            ok1 and ok2 and elapsed < 60,
            f"example 1 max err/3SE {np.max(err1 / (3 * EX1_REPORTED_SE)):.2f}, "
            f"example 2 {np.max(err2 / (3 * EX2_REPORTED_SE)):.2f}, {elapsed:.1f}s",
        )
        assert ok1 and ok2
        assert elapsed < 60
        assert fit1.converged and fit2.converged


class TestCriterion2Sparsity:
    def test_exact_zero_detection_at_benchmark_penalties(self):
        # Example 3 replicas at ~10% censoring with the benchmark tuning
        # lambda1=2, lambda2=1.  The two true-zero coefficients are
        # g2.beta[x2] (flat index 6) and g3.beta[x4] (flat index 11).
        scen0 = cw.builtin_scenario(3, 0.1, seed=0)
        names = cw.parameter_names(scen0.model)
        zero_idx = [names.index("g2.beta[x2]"), names.index("g3.beta[x4]")]
        nonzero_idx = [
            j for j, nm in enumerate(names) if "beta" in nm and j not in zero_idx
        ]
        both_zero_runs = 0
        wrongly_zeroed = 0
        for r in range(10):
            scen = scen0.with_seed(cw.replication_seed(42, r))
            fit = fit_scenario(scen, 2.0, 1.0)
            est = fit.theta_hat.flatten()
            if all(est[j] == 0.0 for j in zero_idx):
                both_zero_runs += 1
            wrongly_zeroed += sum(est[j] == 0.0 for j in nonzero_idx)
        passed = both_zero_runs >= 8 and wrongly_zeroed == 0
        report(
            2,
            passed,
            f"true zeros exactly 0 in {both_zero_runs}/10 runs "
            f"(need >= 8), {wrongly_zeroed} true-nonzero coefficients zeroed",
        )
        assert wrongly_zeroed == 0
        # Known spec/paper gap: at lambda2=1 the penalized-MLE soft-threshold
        # fixed point zeroes these coordinates only when the group score at 0
        # (spread ~ sqrt of the observed information, about 15 here) falls
        # below lambda2, which happens in roughly 1 run in 20.  See the
        # decisions ledger; the sparsity machinery itself is validated in
        # test_estimation.py with a penalty calibrated above the score noise.
        assert both_zero_runs >= 8


class TestCriterion3MetricOrdering:
    def test_competing_model_beats_single_weibull(self):
        scen = cw.builtin_scenario(2, 0.0, seed=3)
        sim = cw.generate(scen)
        data = sim.data
        fit = cw.fit_em(
            scen.model, data, cw.PenaltyConfig(2.0, 1.0), cw.FitConfig(compute_std_errors=False)
        )
        single_spec = cw.ModelSpec([cw.GroupSpec(range(scen.model.p))], p=scen.model.p)
        single = cw.fit_em(
            single_spec, data, cw.PenaltyConfig(), cw.FitConfig(compute_std_errors=False)
        )

        grid = default_time_grid(data.times, data.status)
        results = {}
        for name, (theta, spec) in {
            "competing": (fit.theta_hat, scen.model),
            "single": (single.theta_hat, single_spec),
        }.items():
            risk = risk_markers(theta, spec, data.covariates)
            c_index = concordance_index(risk, data.times, data.status)
            iauc = integrated_auc(
                lambda t: risk_markers(
                    theta, spec, data.covariates, mode="one_minus_survival", horizon=t
                ),
                data.times,
                data.status,
                grid,
            )
            results[name] = (c_index, iauc)

        (c_cw, i_cw), (c_w, i_w) = results["competing"], results["single"]
        gap_ok = (c_cw - c_w >= 0.03) and (i_cw - i_w >= 0.02)
        abs_ok = all(
            abs(results[k][j] - EX2_METRICS[k][j]) <= 0.02
            for k in results
            for j in (0, 1)
        )
        report(
            3,
            gap_ok and abs_ok,
            f"C-index {c_cw:.3f} vs {c_w:.3f} (benchmark 0.865/0.805), "
            f"iAUC {i_cw:.3f} vs {i_w:.3f} (benchmark 0.950/0.902)",
        )
        assert gap_ok and abs_ok


class TestCriterion4EmMonotonicity:
    def test_unpenalized_loglik_never_decreases(self):
        rng = np.random.default_rng(99)
        worst = 0.0
        for rep in range(20):
            L = 1 + rep % 3
            spec, truth, data = random_instance(rng, n=200, L=L)
            fit = cw.fit_em(
                spec,
                data,
                cw.PenaltyConfig(),
                cw.FitConfig(max_em_iters=300, compute_std_errors=False),
            )
            drop = float(np.min(np.diff(fit.loglik_trace), initial=0.0))
            worst = min(worst, drop)
        passed = worst >= -1e-8
        report(4, passed, f"worst log-likelihood drop {worst:.2e} over 20 instances (slack 1e-8)")
        assert passed


class TestCriterion5Gradients:
    def test_analytic_gradients_match_finite_differences(self):
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
            worst = max(worst, float(np.max(np.abs(fd - analytic) / (1e-8 + np.abs(fd)))))
        passed = worst < 1e-5
        report(5, passed, f"worst relative gradient error {worst:.2e} over 100 points (bound 1e-5)")
        assert passed


class TestCriterion6MillsRatio:
    def test_sandwich_and_closed_form(self):
        rng = np.random.default_rng(15)
        failures = 0
        for _ in range(50):
            L = int(rng.integers(1, 4))
            spec = cw.ModelSpec([cw.GroupSpec([])] * L, p=0)
            theta = cw.Theta(
                [
                    cw.GroupParams(rng.normal(0.5, 1.0), [], rng.uniform(0.4, 2.0))
                    for _ in range(L)
                ]
            )
            cutoff = cw.auto_cutoff(theta, spec, [], 0.05)
            lower, _, upper = tail_integral_bounds(theta, spec, [], cutoff)
            ts = np.linspace(cutoff, 10 * cutoff, 20_001)
            tail = float(np.trapezoid([cw.survival(theta, spec, [], t) for t in ts], ts))
            if not (lower <= tail <= upper):
                failures += 1

        spec = cw.ModelSpec([cw.GroupSpec([]), cw.GroupSpec([])], p=0)
        theta = cw.Theta([cw.GroupParams(0.0, [], 1.0), cw.GroupParams(0.0, [], 0.5)])
        exact = math.exp(0.25) * (math.sqrt(math.pi) / 2.0) * math.erfc(0.5)
        estimate = cw.expected_survival_time(theta, spec, []).estimate
        closed_ok = abs(estimate - exact) < 1e-4
        report(
            6,
            failures == 0 and closed_ok,
            f"{failures}/50 sandwich violations; closed-form error {abs(estimate - exact):.2e}",
        )
        assert failures == 0
        assert closed_ok


class TestCriterion7Consistency:
    def test_errors_and_ses_shrink_with_n(self):
        scen0 = cw.builtin_scenario(1, 0.0, seed=0)

        def median_errors(n, tag):
            errs = []
            for r in range(20):
                scen = cw.ScenarioSpec(
                    scen0.model, scen0.truth, n, 0.0, cw.replication_seed(tag, r)
                )
                fit = fit_scenario(scen, 0.5, 0.2)
                errs.append(np.abs(fit.theta_hat.flatten() - EX1_TRUTH))
            return np.median(np.array(errs), axis=0)

        small = median_errors(500, 1)
        large = median_errors(4000, 2)
        errors_ok = bool(np.all(large < small))

        def mean_ses(n, tag):
            ses = []
            for r in range(10):
                scen = cw.ScenarioSpec(
                    scen0.model, scen0.truth, n, 0.0, cw.replication_seed(tag, r)
                )
                fit = cw.fit_em(scen.model, cw.generate(scen).data, cw.PenaltyConfig(), cw.FitConfig())
                ses.append(fit.std_errors)
            return np.mean(np.array(ses), axis=0)

        ratio_sq = (mean_ses(4000, 32) / mean_ses(2000, 31)) ** 2
        # doubling n halves the squared standard error (the 1/sqrt(n) law),
        # within +-15%
        se_ok = bool(np.all((ratio_sq > 0.5 * 0.85) & (ratio_sq < 0.5 * 1.15)))
        report(
            7,
            errors_ok and se_ok,
            f"median error shrinks for all 9 parameters: {errors_ok}; "
            f"squared-SE ratio range [{ratio_sq.min():.3f}, {ratio_sq.max():.3f}] (need 0.5 +- 15%)",
        )
        assert errors_ok
        assert se_ok


class TestCriterion8MetricOracles:
    def test_exhaustive_small_instances(self):
        rng = np.random.default_rng(2718)
        checked_c = checked_auc = 0
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(3, 13))
            times = np.round(rng.uniform(0.1, 3.0, size=n), 2)
            marker = np.round(rng.normal(size=n), 1)
            status = np.ones(n, dtype=int)

            # Harrell's C against brute-force pair enumeration
            num = den = 0.0
            for i in range(n):
                for j in range(n):
                    if times[i] < times[j]:
                        den += 1
                        num += (
                            1.0
                            if marker[i] > marker[j]
                            else (0.5 if marker[i] == marker[j] else 0.0)
                        )
            if den:
                c = cw.concordance_index(marker, times, status)
                worst = max(worst, abs(c - num / den))
                checked_c += 1

            horizon = float(np.median(times))
            case = times <= horizon
            if case.any() and not case.all():
                curve = time_dependent_roc(marker, times, status, horizon)
                total = 0.0
                for a in marker[case]:
                    for b in marker[~case]:
                        total += 1.0 if a > b else (0.5 if a == b else 0.0)
                mw = total / (case.sum() * (~case).sum())
                worst = max(worst, abs(curve.auc - mw))
                checked_auc += 1
        passed = worst < 1e-12 and checked_c >= 150 and checked_auc >= 100
        report(
            8,
            passed,
            f"max |metric - brute force| {worst:.2e} over {checked_c} C and {checked_auc} AUC instances",
        )
        assert passed


class TestCriterion9IdentityReduction:
    def test_single_group_fit_equals_direct_maximization(self):
        scen = cw.builtin_scenario(1, 0.0, seed=5)
        sim = cw.generate(scen)
        spec = cw.ModelSpec([cw.GroupSpec([0, 1, 2])], p=3)
        fit = cw.fit_em(
            spec, sim.data, cw.PenaltyConfig(), cw.FitConfig(compute_std_errors=False)
        )

        work = _Workspace(spec, sim.data)

        def negll(vec):
            flat = np.array([*vec[:4], math.exp(vec[4])])
            return -_Point(work, cw.Theta.from_flat(flat, spec)).loglik

        start = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        res = optimize.minimize(
            negll, start, method="L-BFGS-B", options=dict(maxiter=5000, ftol=1e-15, gtol=1e-12)
        )
        direct = np.array([*res.x[:4], math.exp(res.x[4])])
        ll_gap = abs(fit.final_loglik - (-res.fun))
        param_gap = float(np.max(np.abs(direct - fit.theta_hat.flatten())))
        passed = ll_gap < 1e-6 and param_gap < 1e-4
        report(
            9,
            passed,
            f"log-likelihood gap {ll_gap:.2e} (bound 1e-6), parameter gap {param_gap:.2e} (bound 1e-4)",
        )
        assert passed
