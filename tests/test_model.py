import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import competing_weibull as cw
from competing_weibull.model import (
    _ROW_CHUNK,
    _Model,
    _expected_times,
    _hazards,
    _survival_and_winning,
    tail_integral_bounds,
)


def random_theta(rng, spec):
    return cw.Theta(
        [
            cw.GroupParams(
                rng.normal(0.0, 1.0),
                rng.normal(0.0, 0.7, size=g.n_covariates),
                rng.uniform(0.4, 2.0),
            )
            for g in spec.groups
        ]
    )


HEAD_EXPORTS = """
    CompetingWeibullError ConfigError Dataset DomainError ExpectedSurvivalTime FitConfig
    FitResult GroupParams GroupSpec MetricError ModelSpec NumericError PenaltyConfig RocCurve
    ScenarioSpec SimulatedDataset SingularHessianError SpecError StepSurvival Theta
    apply_censoring auto_cutoff builtin_scenario calibrate_censoring_rate concordance_index
    density e_step expected_survival_time fit_em generate group_log_scale hazard
    hazard_by_group initialize_theta integrated_auc kaplan_meier log_likelihood log_survival
    m_step parameter_names q_function q_gradients q_group replication_seed risk_marker
    risk_markers sample_event sample_events standard_errors survival tail_integral_bounds
    time_dependent_roc winning_probability
""".split()


def test_package_exports_each_module_public_surface():
    from competing_weibull import errors, estimation, metrics, model, simulation

    modules = (errors, estimation, metrics, model, simulation)
    expected = [name for module in modules for name in module.__all__]
    assert cw.__all__ == expected
    assert len(set(expected)) == len(expected)
    assert all(hasattr(cw, name) for name in expected)
    # Nothing the package exported before each module's list defined it is lost.
    assert len(HEAD_EXPORTS) == 53 and set(HEAD_EXPORTS) <= set(expected)


@pytest.mark.parametrize(
    "build",
    [
        lambda base: cw.ScenarioSpec(base.model, base.truth, 150.5, 0.1, 1),
        lambda base: cw.ScenarioSpec(base.model, base.truth, True, 0.1, 1),
        lambda base: cw.ScenarioSpec(base.model, base.truth, 150, 0.1, 1.5),
        lambda base: cw.ScenarioSpec(base.model, base.truth, 150, 0.1, True),
        lambda base: cw.ScenarioSpec(base.model, base.truth, 150, "0.2", 1),
        lambda base: cw.GroupSpec([1.9]),
        lambda base: cw.GroupSpec([True]),
        lambda base: cw.GroupSpec(["1"]),
        lambda base: cw.ModelSpec([cw.GroupSpec([0])], p=2.5),
    ],
    ids=["n-float", "n-bool", "seed-float", "seed-bool", "censoring-str", "index-float",
         "index-bool", "index-str", "p-float"],
)
def test_value_objects_reject_values_of_the_wrong_type(build):
    base = cw.builtin_scenario(1, 0.1)
    with pytest.raises(cw.SpecError):
        build(base)
    # numpy integers are integers.
    assert cw.GroupSpec(np.array([0, 2])).covariate_indices == (0, 2)
    scenario = cw.ScenarioSpec(base.model, base.truth, np.int64(150), 0.1, np.int64(1))
    assert type(scenario.n) is int and type(scenario.seed) is int


class TestTypes:
    def test_group_spec_rejects_unsorted_and_duplicate_indices(self):
        with pytest.raises(cw.SpecError):
            cw.GroupSpec([2, 1])
        with pytest.raises(cw.SpecError):
            cw.GroupSpec([1, 1])
        with pytest.raises(cw.SpecError):
            cw.GroupSpec([-1])

    def test_model_spec_bounds_indices(self):
        with pytest.raises(cw.SpecError):
            cw.ModelSpec([cw.GroupSpec([3])], p=3)
        with pytest.raises(cw.SpecError):
            cw.ModelSpec([], p=1)

    def test_identical_sets_allowed_for_evaluation_but_not_fitting(self):
        spec = cw.ModelSpec([cw.GroupSpec([0]), cw.GroupSpec([0])], p=1)
        with pytest.raises(cw.SpecError):
            spec.check_identifiable()

    def test_group_params_validation(self):
        with pytest.raises(cw.SpecError):
            cw.GroupParams(0.0, [], -1.0)
        with pytest.raises(cw.SpecError):
            cw.GroupParams(np.nan, [], 1.0)

    def test_theta_flatten_roundtrip(self):
        spec = cw.ModelSpec([cw.GroupSpec([0, 2]), cw.GroupSpec([1])], p=3)
        theta = cw.Theta(
            [cw.GroupParams(0.5, [1.0, -2.0], 0.8), cw.GroupParams(-0.3, [0.7], 1.2)]
        )
        flat = theta.flatten()
        back = cw.Theta.from_flat(flat, spec)
        assert np.array_equal(back.flatten(), flat)
        with pytest.raises(cw.SpecError):
            cw.Theta.from_flat(flat[:-1], spec)

    def test_theta_beta_length_checked_against_spec(self):
        spec = cw.ModelSpec([cw.GroupSpec([0, 1])], p=2)
        theta = cw.Theta([cw.GroupParams(0.0, [1.0], 1.0)])
        with pytest.raises(cw.SpecError):
            theta.validate_against(spec)

    def test_dataset_validation(self):
        with pytest.raises(cw.SpecError):
            cw.Dataset([0.0, 1.0], [1, 1], np.zeros((2, 1)))
        with pytest.raises(cw.SpecError):
            cw.Dataset([1.0, 2.0], [1, 2], np.zeros((2, 1)))
        with pytest.raises(cw.SpecError):
            cw.Dataset([1.0, 2.0], [1, 1], np.zeros((3, 1)))
        with pytest.raises(cw.SpecError):
            cw.Dataset([1.0, 2.0], [1, 1], [[np.nan], [0.0]])

    def test_dataset_arrays_are_readonly(self):
        data = cw.Dataset([1.0, 2.0], [1, 0], np.zeros((2, 1)))
        with pytest.raises(ValueError):
            data.times[0] = 3.0


class TestGroupLogScale:
    def test_empty_covariate_set(self):
        params = cw.GroupParams(0.0, [], 1.0)
        assert cw.group_log_scale(params, [5.0, -3.0], cw.GroupSpec([])) == 0.0

    def test_single_term(self):
        params = cw.GroupParams(1.6, [1.2], 1.0)
        assert cw.group_log_scale(params, [1.0], cw.GroupSpec([0])) == pytest.approx(2.8)

    def test_hand_sum(self):
        # alpha + beta . x = 1.0 + (-3.0 + 2.0 + 1.0) = 1.0
        params = cw.GroupParams(1.0, [-3.0, 2.0, 1.0], 1.0)
        mu = cw.group_log_scale(params, [1.0, 1.0, 1.0], cw.GroupSpec([0, 1, 2]))
        assert mu == pytest.approx(1.0, abs=1e-15)
        # and the dot-product part alone is zero
        assert mu - params.alpha == pytest.approx(0.0, abs=1e-15)

    def test_dimension_mismatch(self):
        params = cw.GroupParams(0.0, [1.0, 2.0], 1.0)
        with pytest.raises(cw.SpecError):
            cw.group_log_scale(params, [1.0], cw.GroupSpec([0]))

    def test_equals_the_model_mu_column_bit_for_bit(self):
        # group_log_scale is the one-group view of _Model.mu, so it matches
        # the column of its group in the full model's predictors of the row.
        rng = np.random.default_rng(23)
        spec = cw.ModelSpec([cw.GroupSpec([0, 2]), cw.GroupSpec([1]), cw.GroupSpec([0, 1, 3])], p=4)
        theta = random_theta(rng, spec)
        model = _Model(theta, spec)
        for row in rng.standard_normal((50, spec.p)) * 3.0:
            mu = model.mu([row])[0, model.back]
            for l, (params, group) in enumerate(zip(theta.groups, spec.groups)):
                assert cw.group_log_scale(params, row, group) == mu[l]


class TestSurvivalHazardDensity:
    def test_exponential_survival(self, exp_unit):
        spec, theta = exp_unit
        assert cw.survival(theta, spec, [], 1.0) == pytest.approx(math.exp(-1))

    def test_two_identical_groups(self):
        spec = cw.ModelSpec([cw.GroupSpec([]), cw.GroupSpec([])], p=0)
        theta = cw.Theta([cw.GroupParams(0.0, [], 1.0)] * 2)
        assert cw.survival(theta, spec, [], 1.0) == pytest.approx(math.exp(-2))

    def test_mixed_groups_survival(self, mixed_pair):
        spec, theta = mixed_pair
        # cumulative hazard t + t^2 evaluated at t=1
        assert cw.survival(theta, spec, [], 1.0) == pytest.approx(math.exp(-2))

    def test_survival_zero_is_right_limit(self, exp_unit):
        spec, theta = exp_unit
        assert cw.survival(theta, spec, [], 0.0) == 1.0

    def test_negative_time_is_domain_error(self, exp_unit):
        spec, theta = exp_unit
        with pytest.raises(cw.DomainError):
            cw.survival(theta, spec, [], -0.5)
        with pytest.raises(cw.DomainError):
            cw.hazard(theta, spec, [], 0.0)
        with pytest.raises(cw.DomainError):
            cw.density(theta, spec, [], 0.0)
        with pytest.raises(cw.DomainError):
            cw.winning_probability(theta, spec, [], 0.0)

    def test_constant_hazard(self, exp_unit):
        spec, theta = exp_unit
        for t in (0.2, 1.0, 7.0):
            assert cw.hazard(theta, spec, [], t) == pytest.approx(1.0)

    def test_shape_two_hazard(self):
        spec = cw.ModelSpec([cw.GroupSpec([])], p=0)
        theta = cw.Theta([cw.GroupParams(0.0, [], 0.5)])
        assert cw.hazard(theta, spec, [], 1.0) == pytest.approx(2.0)

    def test_hazard_by_group(self, mixed_pair):
        spec, theta = mixed_pair
        per_group = cw.hazard_by_group(theta, spec, [], 1.0)
        assert per_group == pytest.approx([1.0, 2.0])
        assert cw.hazard(theta, spec, [], 1.0) == pytest.approx(3.0)

    def test_exponential_density(self, exp_unit):
        spec, theta = exp_unit
        assert cw.density(theta, spec, [], 1.0) == pytest.approx(math.exp(-1))

    def test_identical_groups_density(self):
        spec = cw.ModelSpec([cw.GroupSpec([]), cw.GroupSpec([])], p=0)
        theta = cw.Theta([cw.GroupParams(0.0, [], 1.0)] * 2)
        assert cw.density(theta, spec, [], 0.5) == pytest.approx(2 * math.exp(-1))

    def test_density_is_survival_times_hazard(self):
        rng = np.random.default_rng(42)
        spec = cw.ModelSpec([cw.GroupSpec([0]), cw.GroupSpec([1]), cw.GroupSpec([0, 1])], p=2)
        for _ in range(25):
            theta = random_theta(rng, spec)
            x = rng.standard_normal(2)
            t = float(rng.uniform(0.05, 5.0))
            f = cw.density(theta, spec, x, t)
            sh = cw.survival(theta, spec, x, t) * cw.hazard(theta, spec, x, t)
            assert f == pytest.approx(sh, rel=1e-12)

    def test_density_matches_negative_survival_slope(self):
        rng = np.random.default_rng(7)
        spec = cw.ModelSpec([cw.GroupSpec([0]), cw.GroupSpec([1])], p=2)
        for _ in range(20):
            theta = random_theta(rng, spec)
            x = rng.standard_normal(2)
            t = float(rng.uniform(0.3, 3.0))
            h = 1e-5 * t
            slope = -(
                cw.survival(theta, spec, x, t + h) - cw.survival(theta, spec, x, t - h)
            ) / (2 * h)
            assert cw.density(theta, spec, x, t) == pytest.approx(slope, rel=1e-6)

    def test_survival_strictly_decreasing_from_one(self, mixed_pair):
        spec, theta = mixed_pair
        ts = np.linspace(0.01, 5.0, 50)
        values = [cw.survival(theta, spec, [], t) for t in ts]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert cw.survival(theta, spec, [], 1e-12) == pytest.approx(1.0, abs=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(
        alpha1=st.floats(-1.5, 1.5),
        alpha2=st.floats(-1.5, 1.5),
        sigma1=st.floats(0.3, 2.5),
        sigma2=st.floats(0.3, 2.5),
        t=st.floats(0.05, 8.0),
    )
    def test_log_survival_adds_over_groups(self, alpha1, alpha2, sigma1, sigma2, t):
        spec = cw.ModelSpec([cw.GroupSpec([]), cw.GroupSpec([])], p=0)
        joint = cw.Theta(
            [cw.GroupParams(alpha1, [], sigma1), cw.GroupParams(alpha2, [], sigma2)]
        )
        single = cw.ModelSpec([cw.GroupSpec([])], p=0)
        parts = [
            cw.log_survival(cw.Theta([g]), single, [], t) for g in joint.groups
        ]
        assert cw.log_survival(joint, spec, [], t) == pytest.approx(
            sum(parts), rel=1e-13, abs=1e-13
        )


class TestWinningProbability:
    def test_identical_groups_share_equally(self):
        for L in (2, 3, 4):
            spec = cw.ModelSpec([cw.GroupSpec([])] * L, p=0)
            theta = cw.Theta([cw.GroupParams(0.3, [], 0.8)] * L)
            eta = cw.winning_probability(theta, spec, [], 1.7)
            assert eta == pytest.approx(np.full(L, 1.0 / L), abs=1e-14)

    def test_hazard_ratio(self, mixed_pair):
        spec, theta = mixed_pair
        eta = cw.winning_probability(theta, spec, [], 1.0)
        assert eta == pytest.approx([1.0 / 3.0, 2.0 / 3.0], abs=1e-14)

    def test_matches_joint_density_ratio(self):
        # eta_l * f(t) must equal h_l(t) * S(t), the joint density of the
        # event time and cause.
        rng = np.random.default_rng(11)
        spec = cw.ModelSpec([cw.GroupSpec([0]), cw.GroupSpec([1]), cw.GroupSpec([0, 1])], p=2)
        for _ in range(25):
            theta = random_theta(rng, spec)
            x = rng.standard_normal(2)
            t = float(rng.uniform(0.05, 4.0))
            eta = cw.winning_probability(theta, spec, x, t)
            f = cw.density(theta, spec, x, t)
            s = cw.survival(theta, spec, x, t)
            joint = cw.hazard_by_group(theta, spec, x, t) * s
            assert np.sum(eta) == pytest.approx(1.0, abs=1e-12)
            assert np.all(eta > 0)
            assert eta * f == pytest.approx(joint, rel=1e-12, abs=1e-300)


class TestSampling:
    def test_exponential_mean(self, exp_unit):
        spec, theta = exp_unit
        rng = np.random.default_rng(123)
        times, _ = cw.sample_events(theta, spec, np.zeros((100_000, 0)), rng)
        se = times.std() / math.sqrt(times.size)
        assert abs(times.mean() - 1.0) < 3 * se

    def test_identical_groups_split_causes(self):
        spec = cw.ModelSpec([cw.GroupSpec([]), cw.GroupSpec([])], p=0)
        theta = cw.Theta([cw.GroupParams(0.0, [], 1.0)] * 2)
        rng = np.random.default_rng(5)
        _, causes = cw.sample_events(theta, spec, np.zeros((50_000, 0)), rng)
        freq = np.bincount(causes, minlength=2) / causes.size
        assert abs(freq[0] - 0.5) < 3 * math.sqrt(0.25 / causes.size)

    def test_empirical_survival_matches_closed_form(self, mixed_pair):
        spec, theta = mixed_pair
        rng = np.random.default_rng(77)
        times, _ = cw.sample_events(theta, spec, np.zeros((40_000, 0)), rng)
        for t in (0.5, 1.0, 2.0):
            s = cw.survival(theta, spec, [], t)
            se = math.sqrt(s * (1 - s) / times.size)
            assert abs((times > t).mean() - s) < 3 * se

    def test_kolmogorov_smirnov_against_survival(self):
        from scipy import stats

        spec = cw.ModelSpec([cw.GroupSpec([0]), cw.GroupSpec([1])], p=2)
        theta = cw.Theta(
            [cw.GroupParams(0.3, [0.8], 0.9), cw.GroupParams(0.9, [-0.5], 0.6)]
        )
        x = np.array([0.4, -1.1])
        rng = np.random.default_rng(2024)
        n = 100_000
        times, _ = cw.sample_events(theta, spec, np.tile(x, (n, 1)), rng)

        def cdf(ts):
            return 1.0 - np.array(
                [cw.survival(theta, spec, x, t) for t in np.atleast_1d(ts)]
            )

        stat = stats.kstest(times, cdf).statistic
        assert stat < 1.628 / math.sqrt(n)  # 1% critical value

    def test_sampling_is_deterministic_given_seed(self, mixed_pair):
        spec, theta = mixed_pair
        a = cw.sample_events(theta, spec, np.zeros((100, 0)), np.random.default_rng(9))
        b = cw.sample_events(theta, spec, np.zeros((100, 0)), np.random.default_rng(9))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_single_draw_interface(self, exp_unit):
        spec, theta = exp_unit
        t, cause = cw.sample_event(theta, spec, [], np.random.default_rng(0))
        assert t > 0 and cause == 0


class TestExpectedSurvivalTime:
    def test_exponential_mean(self, exp_unit):
        spec, theta = exp_unit
        result = cw.expected_survival_time(theta, spec, [])
        assert result.estimate == pytest.approx(1.0, abs=1e-6)

    def test_weibull_shape_two_mean(self):
        spec = cw.ModelSpec([cw.GroupSpec([])], p=0)
        theta = cw.Theta([cw.GroupParams(0.0, [], 0.5)])
        result = cw.expected_survival_time(theta, spec, [])
        assert result.estimate == pytest.approx(math.gamma(1.5), abs=1e-6)

    def test_mixed_pair_closed_form(self, mixed_pair):
        # integral of exp(-t - t^2): complete the square.
        spec, theta = mixed_pair
        exact = math.exp(0.25) * (math.sqrt(math.pi) / 2.0) * math.erfc(0.5)
        result = cw.expected_survival_time(theta, spec, [])
        assert result.estimate == pytest.approx(exact, abs=1e-4)
        # brute-force fine-grid trapezoid oracle over the same split
        ts = np.linspace(0.0, result.cutoff, 400_001)
        finite = np.trapezoid(np.exp(-ts - ts**2), ts)
        assert result.finite_part == pytest.approx(float(finite), abs=1e-6)

    def test_tail_term_inside_bounds(self, mixed_pair):
        spec, theta = mixed_pair
        result = cw.expected_survival_time(theta, spec, [])
        assert result.tail_lower <= result.tail_part <= result.tail_upper
        assert result.estimate == pytest.approx(
            result.finite_part + result.tail_part
        )

    def test_cutoff_preconditions_named(self, exp_unit):
        spec, theta = exp_unit
        with pytest.raises(cw.ConfigError, match="S\\(cutoff\\) < 0.5"):
            cw.expected_survival_time(theta, spec, [], cutoff=0.1)
        # S(0.9) = 0.4066 < 0.5 but 0.9 * h(0.9) = 0.9 < 1
        with pytest.raises(cw.ConfigError, match="cutoff \\* h\\(cutoff\\) > 1"):
            cw.expected_survival_time(theta, spec, [], cutoff=0.9)

    def test_automatic_cutoff_names_a_sigma_beyond_its_limit(self):
        # At the automatic cutoff sum_l H_l = -log(1e-6) = 13.8155, so the
        # tail bounds need every sigma of the dominant groups below it.  At
        # sigma 14 and 20 the error blamed a cutoff that was never given.
        spec = cw.ModelSpec([cw.GroupSpec([])], p=0)
        for sigma in (14.0, 20.0):
            theta = cw.Theta([cw.GroupParams(0.0, [], sigma)])
            message = f"sigma up to -log\\(1e-06\\) = 13.8155; the largest sigma is {sigma:g}"
            with pytest.raises(cw.ConfigError, match=message):
                cw.expected_survival_time(theta, spec, [])
        result = cw.expected_survival_time(cw.Theta([cw.GroupParams(0.0, [], 13.0)]), spec, [])
        assert result.estimate == pytest.approx(math.gamma(14.0), rel=1e-12)

    def test_cutoff_far_above_the_mass_matches_the_automatic_one(self):
        # E[T] = 0.627 here.  The window [cutoff e^-40, cutoff] once returned
        # 0.0 at cutoff 1e300 and then was rejected there and at 1e30; at 1e5
        # it was off by 1.3e-4 relative.
        spec = cw.ModelSpec([cw.GroupSpec([]), cw.GroupSpec([])], p=0)
        theta = cw.Theta([cw.GroupParams(0.0, [], 0.5), cw.GroupParams(0.0, [], 0.5)])
        auto = cw.expected_survival_time(theta, spec, [])
        for cutoff in (1e300, 1e30, 1e5):
            result = cw.expected_survival_time(theta, spec, [], cutoff=cutoff)
            assert result.estimate == pytest.approx(auto.estimate, rel=1e-12)

    def test_user_cutoff_above_the_automatic_one_against_closed_form(self):
        # Single groups with log H(cutoff) from 4 to 46: at 1e10 a cutoff once
        # gave +2.1% on two sigma = 0.5 groups, and this grid reached 6e-2.
        spec = cw.ModelSpec([cw.GroupSpec([])], p=0)
        mu = 0.3
        for sigma in (0.05, 0.2, 0.5, 1.0, 3.0, 13.0):
            theta = cw.Theta([cw.GroupParams(mu, [], sigma)])
            exact = math.exp(mu) * math.gamma(1.0 + sigma)
            for log_h in (4, 6, 8, 10, 12, 16, 20, 30, 46):
                cutoff = math.exp(mu + sigma * log_h)
                result = cw.expected_survival_time(theta, spec, [], cutoff=cutoff)
                assert result.estimate == pytest.approx(exact, rel=1e-12)

    def test_mills_sandwich_against_fine_trapezoid(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            L = int(rng.integers(1, 4))
            spec = cw.ModelSpec([cw.GroupSpec([])] * L, p=0)
            theta = cw.Theta(
                [cw.GroupParams(rng.normal(0.5, 1.0), [], rng.uniform(0.4, 2.0)) for _ in range(L)]
            )
            cutoff = cw.auto_cutoff(theta, spec, [], 0.05)
            assert cw.survival(theta, spec, [], cutoff) < 0.1
            lower, point, upper = tail_integral_bounds(theta, spec, [], cutoff)
            ts = np.linspace(cutoff, 10 * cutoff, 20_001)
            log_s = -sum(np.exp((np.log(ts) - g.alpha) / g.sigma) for g in theta.groups)
            tail = float(np.trapezoid(np.exp(log_s), ts))
            assert lower <= tail <= upper
            assert lower <= point <= upper

    def test_auto_cutoff_hits_target(self, mixed_pair):
        spec, theta = mixed_pair
        cutoff = cw.auto_cutoff(theta, spec, [], 1e-6)
        assert cw.survival(theta, spec, [], cutoff) <= 1e-6
        assert cw.survival(theta, spec, [], cutoff * 0.99) > 1e-6

    def test_auto_cutoff_hits_target_over_a_random_grid(self):
        rng = np.random.default_rng(404)
        for _ in range(60):
            L = int(rng.integers(1, 5))
            spec = cw.ModelSpec([cw.GroupSpec([])] * L, p=0)
            theta = cw.Theta(
                [
                    cw.GroupParams(
                        rng.normal(0.5, 2.0), [], math.exp(rng.uniform(math.log(0.01), math.log(13.0)))
                    )
                    for _ in range(L)
                ]
            )
            for tail_survival in (1e-6, 0.05):
                cutoff = cw.auto_cutoff(theta, spec, [], tail_survival)
                assert cw.survival(theta, spec, [], cutoff) <= tail_survival
                assert cw.survival(theta, spec, [], 0.99 * cutoff) > tail_survival

    @pytest.mark.parametrize(
        "sigma", [0.01, 0.03, 0.1, 0.3, 1.0, 1.5, 2.0, 3.0, 5.0, 7.0, 10.0, 13.0]
    )
    def test_single_group_closed_form_grid(self, sigma):
        # E[T] = e^mu Gamma(1 + sigma), and the part below the cutoff is
        # e^mu Gamma(1 + sigma) P(sigma, H(cutoff)) with P the regularized
        # lower incomplete gamma function.  Both windows are integrated by
        # quadrature, so the estimate is within rel 1e-12 over the whole grid
        # (the former S/h tail term was off by 5e-4 at sigma = 5 and 7e-2 at
        # sigma = 10), and the exact tail lies inside the Mill's-ratio
        # sandwich.  Small sigma once overflowed to NaN.
        from scipy import special

        spec = cw.ModelSpec([cw.GroupSpec([])], p=0)
        for mu in (-10.0, -5.0, -3.0, 0.0, 2.0, 5.0):
            result = cw.expected_survival_time(cw.Theta([cw.GroupParams(mu, [], sigma)]), spec, [])
            exact = math.exp(mu) * math.gamma(1.0 + sigma)
            reached = (result.cutoff / math.exp(mu)) ** (1.0 / sigma)
            finite = exact * float(special.gammainc(sigma, reached))
            assert result.finite_part == pytest.approx(finite, rel=1e-12)
            assert result.tail_lower <= exact - finite <= result.tail_upper
            assert result.tail_lower <= result.tail_part <= result.tail_upper
            assert result.estimate == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("sigma", [0.5, 2.0, 13.0, 40.0])
    @pytest.mark.parametrize("reached", [2.5, 13.8, 41.0, 60.0])
    def test_single_group_tail_against_incomplete_gamma(self, sigma, reached):
        # The tail beyond a cutoff with H(cutoff) = reached is
        # e^mu sigma Gamma(sigma) Q(sigma, reached), Q the regularized upper
        # incomplete gamma function.  tail_part is checked itself: it is
        # estimate - finite_part before rounding, and that difference cancels
        # once Q is far below the precision of the estimate.
        from scipy import special

        mu = 0.3
        spec = cw.ModelSpec([cw.GroupSpec([])], p=0)
        theta = cw.Theta([cw.GroupParams(mu, [], sigma)])
        cutoff = math.exp(mu + sigma * math.log(reached))
        if reached / sigma <= 1.0:
            # cutoff * h(cutoff) = H / sigma: the tail bounds are undefined
            with pytest.raises(cw.ConfigError, match="cutoff \\* h\\(cutoff\\) > 1"):
                cw.expected_survival_time(theta, spec, [], cutoff=cutoff)
            return
        result = cw.expected_survival_time(theta, spec, [], cutoff=cutoff)
        exact = math.exp(mu) * sigma * math.gamma(sigma) * float(special.gammaincc(sigma, reached))
        assert result.tail_part == pytest.approx(exact, rel=1e-12)
        assert result.estimate == result.finite_part + result.tail_part
        assert result.tail_lower <= result.tail_part <= result.tail_upper

    def test_narrow_group_far_beyond_the_cutoff_changes_nothing(self):
        # The second group's cumulative hazard underflows at the cutoff and
        # its growth factor exp(40 / 0.01) overflows.  Its time e^11 lies where
        # the unit exponential's survival is 0, so E[T] = 1 and the tail is
        # e^-cutoff.
        spec = cw.ModelSpec([cw.GroupSpec([]), cw.GroupSpec([])], p=0)
        theta = cw.Theta([cw.GroupParams(0.0, [], 1.0), cw.GroupParams(11.0, [], 0.01)])
        result = cw.expected_survival_time(theta, spec, [])
        assert result.estimate == pytest.approx(1.0, rel=1e-12)
        assert result.tail_part == pytest.approx(math.exp(-result.cutoff), rel=1e-12)

    def test_tolerance_against_closed_form_and_log_trapezoid(self, mixed_pair):
        # The stated tolerance of expected_survival_time: rel 1e-6 on the
        # estimate against closed forms, and on the finite part against a
        # fine trapezoid oracle (in u = log t, where the integrand is smooth).
        spec, theta = mixed_pair
        exact = math.exp(0.25) * (math.sqrt(math.pi) / 2.0) * math.erfc(0.5)
        assert cw.expected_survival_time(theta, spec, []).estimate == pytest.approx(
            exact, rel=1e-6
        )
        rng = np.random.default_rng(31)
        for _ in range(20):
            L = int(rng.integers(1, 4))
            spec = cw.ModelSpec([cw.GroupSpec([])] * L, p=0)
            theta = cw.Theta(
                [cw.GroupParams(rng.normal(0.5, 1.0), [], rng.uniform(0.4, 2.0)) for _ in range(L)]
            )
            result = cw.expected_survival_time(theta, spec, [])
            u = np.linspace(math.log(result.cutoff) - 40.0, math.log(result.cutoff), 400_001)
            log_s = -sum(np.exp((u - g.alpha) / g.sigma) for g in theta.groups)
            oracle = float(np.trapezoid(np.exp(u + log_s), u))
            assert result.finite_part == pytest.approx(oracle, rel=1e-6)


class TestBatchedRowsMatchScalarViews:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), t=st.floats(0.05, 20.0))
    def test_row_i_equals_scalar_function(self, seed, n, t):
        rng = np.random.default_rng(seed)
        p = 3
        spec = cw.ModelSpec(
            [cw.GroupSpec(sorted(rng.choice(p, size=int(rng.integers(0, p + 1)), replace=False)))
             for _ in range(int(rng.integers(1, 4)))],
            p=p,
        )
        theta = random_theta(rng, spec)
        x = rng.standard_normal((n, p))
        s, eta = _survival_and_winning(theta, spec, x, t)
        model = _Model(theta, spec)
        log_haz, _ = _hazards(model.mu(x), model.sigma, np.log(t))
        expected = _expected_times(theta, spec, x)[0]
        # Row i and a 1-row matrix may differ in the last bits of the linear
        # predictor (matrix-vector products), hence the 1e-12.
        for i in range(n):
            assert s[i] == pytest.approx(cw.survival(theta, spec, x[i], t), rel=1e-12)
            assert np.exp(log_haz[i, model.back]) == pytest.approx(
                cw.hazard_by_group(theta, spec, x[i], t), rel=1e-12
            )
            assert eta[i] == pytest.approx(cw.winning_probability(theta, spec, x[i], t), rel=1e-12)
            assert expected[i] == pytest.approx(
                cw.expected_survival_time(theta, spec, x[i]).estimate, rel=1e-12
            )


class TestExpectedTimesChunks:
    def test_rows_across_chunk_boundaries_equal_their_scalar_views(self):
        scen = cw.builtin_scenario(2, 0.0)
        c = _ROW_CHUNK
        x = np.random.default_rng(7).standard_normal((2 * c + 5, scen.model.p))
        parts = _expected_times(scen.truth, scen.model, x)
        for i in (0, c - 1, c, 2 * c - 1, 2 * c, 2 * c + 4):
            one = cw.expected_survival_time(scen.truth, scen.model, x[i])
            assert [v[i] for v in parts] == pytest.approx(
                [one.estimate, one.tail_lower, one.tail_upper, one.cutoff, one.finite_part, one.tail_part],
                rel=1e-12,
            )


class TestExpectedTimesRelabelling:
    def test_every_output_is_bit_identical_under_group_permutations(self):
        # The expected-time reductions run in an order that does not depend on
        # the group labels, so permuting the groups changes no output bit.
        import itertools

        scen = cw.builtin_scenario(2, 0.0)
        x = np.random.default_rng(2025).standard_normal((50, scen.model.p))
        reference = _expected_times(scen.truth, scen.model, x)
        for perm in itertools.permutations(range(scen.model.n_groups)):
            spec = cw.ModelSpec([scen.model.groups[l] for l in perm], p=scen.model.p)
            theta = cw.Theta([scen.truth.groups[l] for l in perm])
            for got, want in zip(_expected_times(theta, spec, x), reference):
                assert np.array_equal(got, want)


class TestTiedGroupsRelabelling:
    def test_groups_with_one_covariate_tuple_permute_bit_for_bit(self):
        # An evaluation-only spec whose groups share the empty covariate
        # tuple: (alpha, beta, sigma) breaks the tie, and the two equal groups
        # give equal kernel columns whichever label each one has.
        import itertools

        spec = cw.ModelSpec([cw.GroupSpec([])] * 3, p=0)
        groups = [
            cw.GroupParams(1.1, [], 1.9),
            cw.GroupParams(1.1, [], 1.9),
            cw.GroupParams(-0.8, [], 1.1),
        ]
        times = (0.05, 0.4, 1.3, 6.0)

        def outputs(theta, perm):
            values = []
            for t in times:
                values += [
                    cw.survival(theta, spec, [], t),
                    cw.hazard(theta, spec, [], t),
                    cw.density(theta, spec, [], t),
                    cw.winning_probability(theta, spec, [], t)[np.argsort(perm)],
                ]
            return values + list(_expected_times(theta, spec, np.zeros((1, 0))))

        reference = outputs(cw.Theta(groups), [0, 1, 2])
        for perm in itertools.permutations(range(3)):
            got = outputs(cw.Theta([groups[l] for l in perm]), list(perm))
            for a, b in zip(got, reference):
                assert np.array_equal(a, b)


class TestCovariateWidth:
    @pytest.mark.parametrize("extra", [-1, 1])
    def test_every_entry_rejects_rows_of_another_width(self, extra):
        # A row one column short or one column long is a SpecError everywhere,
        # never a silent evaluation at the wrong covariates.
        scen = cw.builtin_scenario(2, 0.0)
        theta, spec = scen.truth, scen.model
        x = np.full((3, spec.p + extra), 0.3)
        row = x[0]
        data = cw.Dataset([0.5, 1.0, 2.0], [1, 0, 1], x)
        eta = np.full((3, spec.n_groups), 1.0 / spec.n_groups)
        rng = np.random.default_rng(0)
        no_penalty = cw.PenaltyConfig()
        calls = {
            "survival": lambda: cw.survival(theta, spec, row, 1.0),
            "log_survival": lambda: cw.log_survival(theta, spec, row, 1.0),
            "log_survival at 0": lambda: cw.log_survival(theta, spec, row, 0.0),
            "hazard": lambda: cw.hazard(theta, spec, row, 1.0),
            "hazard_by_group": lambda: cw.hazard_by_group(theta, spec, row, 1.0),
            "density": lambda: cw.density(theta, spec, row, 1.0),
            "winning_probability": lambda: cw.winning_probability(theta, spec, row, 1.0),
            "expected_survival_time": lambda: cw.expected_survival_time(theta, spec, row),
            "auto_cutoff": lambda: cw.auto_cutoff(theta, spec, row),
            "tail_integral_bounds": lambda: cw.tail_integral_bounds(theta, spec, row, 50.0),
            "sample_event": lambda: cw.sample_event(theta, spec, row, rng),
            "sample_events": lambda: cw.sample_events(theta, spec, x, rng),
            "risk_marker": lambda: cw.risk_marker(theta, spec, row),
            "risk_markers": lambda: cw.risk_markers(
                theta, spec, x, mode="one_minus_survival", horizon=1.0
            ),
            "log_likelihood": lambda: cw.log_likelihood(theta, spec, data),
            "e_step": lambda: cw.e_step(theta, spec, data),
            "standard_errors": lambda: cw.standard_errors(theta, spec, data),
            "q_group": lambda: cw.q_group(0, theta, spec, data, eta),
            "q_gradients": lambda: cw.q_gradients(0, theta, spec, data, eta, no_penalty),
            "m_step": lambda: cw.m_step(theta, spec, data, eta, no_penalty, cw.FitConfig()),
            "initialize_theta": lambda: cw.initialize_theta(spec, data),
            "fit_em": lambda: cw.fit_em(spec, data),
            "fit_em from theta": lambda: cw.fit_em(spec, data, theta_init=theta),
        }
        accepted = []
        for name, call in calls.items():
            try:
                call()
            except cw.SpecError:
                continue
            except Exception as exc:  # the wrong error type counts as accepted
                accepted.append(f"{name}: {type(exc).__name__}")
                continue
            accepted.append(name)
        assert accepted == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_every_entry_rejects_non_finite_rows(self, bad):
        # A NaN covariate gave S = nan and a sampled time nan with cause 0,
        # and made expected_survival_time report a failed bracket.
        scen = cw.builtin_scenario(2, 0.0)
        theta, spec = scen.truth, scen.model
        x = np.full((3, spec.p), 0.3)
        x[1, 0] = bad
        row = x[1]
        rng = np.random.default_rng(0)
        calls = {
            "survival": lambda: cw.survival(theta, spec, row, 1.0),
            "log_survival": lambda: cw.log_survival(theta, spec, row, 1.0),
            "log_survival at 0": lambda: cw.log_survival(theta, spec, row, 0.0),
            "hazard": lambda: cw.hazard(theta, spec, row, 1.0),
            "hazard_by_group": lambda: cw.hazard_by_group(theta, spec, row, 1.0),
            "density": lambda: cw.density(theta, spec, row, 1.0),
            "winning_probability": lambda: cw.winning_probability(theta, spec, row, 1.0),
            "expected_survival_time": lambda: cw.expected_survival_time(theta, spec, row),
            "auto_cutoff": lambda: cw.auto_cutoff(theta, spec, row),
            "tail_integral_bounds": lambda: cw.tail_integral_bounds(theta, spec, row, 50.0),
            "sample_event": lambda: cw.sample_event(theta, spec, row, rng),
            "sample_events": lambda: cw.sample_events(theta, spec, x, rng),
            "risk_marker": lambda: cw.risk_marker(theta, spec, row),
            "risk_markers": lambda: cw.risk_markers(
                theta, spec, x, mode="one_minus_survival", horizon=1.0
            ),
            "group_log_scale": lambda: cw.group_log_scale(theta.groups[0], row, spec.groups[0]),
        }
        accepted = []
        for name, call in calls.items():
            try:
                call()
            except cw.SpecError:
                continue
            except Exception as exc:  # the wrong error type counts as accepted
                accepted.append(f"{name}: {type(exc).__name__}")
                continue
            accepted.append(name)
        assert accepted == []
