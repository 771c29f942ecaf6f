import math

import numpy as np
import pytest

import competing_weibull as cw
from competing_weibull import simulation


class TestBuiltinScenarios:
    def test_example_one_parameters(self):
        scen = cw.builtin_scenario(1, 0.0)
        assert scen.n == 1000 and scen.model.p == 3
        assert [g.covariate_indices for g in scen.model.groups] == [(0,), (1,), (2,)]
        assert [g.sigma for g in scen.truth.groups] == [1.0, 1.0, 1.1]
        assert [g.alpha for g in scen.truth.groups] == [1.6, 1.2, 2.1]
        assert [list(g.beta) for g in scen.truth.groups] == [[1.2], [2.0], [1.0]]

    def test_example_two_parameters(self):
        scen = cw.builtin_scenario(2, 0.1)
        assert scen.n == 1500 and scen.model.p == 4
        assert [g.covariate_indices for g in scen.model.groups] == [
            (0, 1, 3),
            (0, 1),
            (0, 1, 2),
        ]
        assert scen.truth.groups[0].beta[0] == -3.0
        assert [g.alpha for g in scen.truth.groups] == [1.0, 1.5, 1.0]
        assert [g.sigma for g in scen.truth.groups] == [1.0, 1.0, 1.1]

    def test_example_three_true_zeros_stay_in_design(self):
        scen = cw.builtin_scenario(3, 0.1)
        assert scen.n == 1500 and scen.model.p == 6
        groups = [g.covariate_indices for g in scen.model.groups]
        assert groups == [(0, 1), (1, 2, 3), (3, 4, 5)]
        # group 2 keeps x2 with a zero coefficient; group 3 keeps x4
        assert scen.truth.groups[1].beta[0] == 0.0
        assert scen.truth.groups[2].beta[0] == 0.0
        assert list(scen.truth.groups[2].beta[1:]) == [-2.0, 3.0]

    def test_unknown_example_or_level_rejected(self):
        with pytest.raises(cw.SpecError):
            cw.builtin_scenario(4, 0.0)
        with pytest.raises(cw.SpecError):
            cw.builtin_scenario(1, 0.2)
        with pytest.raises(cw.SpecError):
            cw.builtin_scenario(3, 0.0)


class TestGenerate:
    def test_covariates_are_standard_normal(self):
        sim = cw.generate(cw.builtin_scenario(2, 0.0, seed=10))
        x = sim.data.covariates
        n = x.shape[0]
        assert np.all(np.abs(x.mean(axis=0)) < 4 / math.sqrt(n))
        assert np.all((x.var(axis=0) > 0.85) & (x.var(axis=0) < 1.15))

    def test_zero_censoring_keeps_event_times(self):
        sim = cw.generate(cw.builtin_scenario(1, 0.0, seed=4))
        assert np.all(sim.data.status == 1)
        assert np.array_equal(sim.data.times, sim.true_event_times)
        assert sim.realized_censoring_rate == 0.0

    def test_realized_censoring_near_target(self):
        rates = []
        for seed in range(5):
            sim = cw.generate(cw.builtin_scenario(1, 0.1, seed=seed))
            rates.append(sim.realized_censoring_rate)
        assert all(0.07 <= r <= 0.13 for r in rates)

    def test_determinism(self):
        a = cw.generate(cw.builtin_scenario(2, 0.2, seed=99))
        b = cw.generate(cw.builtin_scenario(2, 0.2, seed=99))
        assert np.array_equal(a.data.times, b.data.times)
        assert np.array_equal(a.data.status, b.data.status)
        assert np.array_equal(a.data.covariates, b.data.covariates)
        assert np.array_equal(a.latent_causes, b.latent_causes)

    def test_censoring_identity(self):
        sim = cw.generate(cw.builtin_scenario(3, 0.3, seed=21))
        events = sim.data.status == 1
        assert np.array_equal(sim.data.times[events], sim.true_event_times[events])
        assert np.all(sim.data.times[~events] < sim.true_event_times[~events])
        assert sim.realized_censoring_rate == pytest.approx(
            1.0 - sim.data.status.mean()
        )

    def test_latent_cause_frequencies_match_direct_oracle(self):
        # Oracle: a large independent draw using numpy's own Weibull sampler.
        scen = cw.builtin_scenario(1, 0.0, seed=31)
        sim = cw.generate(scen)
        rng = np.random.default_rng(1_000_003)
        n_oracle = 1_000_000
        x = rng.standard_normal((n_oracle, scen.model.p))
        latent = np.empty((n_oracle, scen.model.n_groups))
        for l, (params, group) in enumerate(zip(scen.truth.groups, scen.model.groups)):
            mu = params.alpha + x[:, list(group.covariate_indices)] @ params.beta
            latent[:, l] = np.exp(mu) * rng.weibull(1.0 / params.sigma, size=n_oracle)
        oracle_freq = np.bincount(np.argmin(latent, axis=1)) / n_oracle
        observed = np.bincount(sim.latent_causes, minlength=3) / sim.data.n
        se = np.sqrt(oracle_freq * (1 - oracle_freq) / sim.data.n)
        assert np.all(np.abs(observed - oracle_freq) < 3 * se)

    def test_kaplan_meier_matches_model_at_population_median(self):
        scen = cw.builtin_scenario(1, 0.0, seed=8)
        sim = cw.generate(scen)
        rng = np.random.default_rng(513)
        x = rng.standard_normal((200_000, scen.model.p))
        times, _ = cw.sample_events(scen.truth, scen.model, x, rng)
        median = float(np.median(times))
        km = cw.kaplan_meier(sim.data.times, sim.data.status)
        km_at_median = float(km.evaluate(median))
        greenwood = math.sqrt(0.5 * 0.5 / sim.data.n)
        assert abs(km_at_median - 0.5) < 3 * greenwood


class TestApplyCensoring:
    def test_zero_target(self):
        rng = np.random.default_rng(0)
        times, status, realized = cw.apply_censoring(np.array([1.0, 2.0]), 0.0, rng)
        assert np.all(status == 1) and realized == 0.0
        assert np.array_equal(times, [1.0, 2.0])

    def test_closed_form_calibration(self):
        # equal unit times: mean P(C < 1) = 1 - exp(-rate) = 0.5 at log 2
        rate = cw.calibrate_censoring_rate([1.0, 1.0, 1.0, 1.0], 0.5)
        assert rate == pytest.approx(math.log(2.0), rel=1e-10)

    def test_invalid_target_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(cw.ConfigError):
            cw.apply_censoring(np.ones(3), 1.0, rng)
        with pytest.raises(cw.ConfigError):
            cw.apply_censoring(np.ones(3), -0.1, rng)

    @pytest.mark.parametrize("times", [[1.0, 0.0], [1.0, -1.0], [1.0, np.inf], [np.nan, 1.0]])
    def test_times_outside_the_positive_reals_rejected(self, times):
        # All-zero times divided by zero when bracketing the rate.
        with pytest.raises(cw.ConfigError, match="positive and finite"):
            cw.calibrate_censoring_rate(times, 0.2)

    def test_calibration_equals_scipy_brentq(self):
        # The rate once came from scipy.optimize.brentq; the in-package port
        # must return the very same float on the built-in examples at every
        # censoring level and on exponential samples of any scale.
        from scipy import optimize

        def reference(times, target):
            f = lambda r: float(np.mean(-np.expm1(-r * times))) - target
            hi = 1.0 / float(np.mean(times))
            while f(hi) < 0.0:
                hi *= 2.0
            return float(optimize.brentq(f, 0.0, hi, xtol=1e-12, rtol=8.9e-16))

        samples = []
        for example in (1, 2, 3):
            for level in simulation.builtin_censoring_levels(example):
                scenario = cw.builtin_scenario(example, level)
                for seed in range(4):
                    for n in (50, 1000):
                        rng = np.random.default_rng(seed)
                        x = rng.standard_normal((n, scenario.model.p))
                        times, _ = cw.sample_events(scenario.truth, scenario.model, x, rng)
                        samples.append((times, {level, 0.05, 0.5, 0.95, 1e-9} - {0.0}))
        rng = np.random.default_rng(17)
        for _ in range(200):
            times = rng.exponential(10.0 ** rng.uniform(-6.0, 6.0), size=int(rng.integers(1, 300)))
            samples.append((times, {float(rng.uniform(0.001, 0.99))}))
        # At times near 1e-300 an extrapolation denominator underflows to 0.
        for scale in (1e-300, 1e300):
            samples.append((rng.exponential(scale, size=100), {1e-9, 0.3, 0.9}))
        for times, targets in samples:
            for target in sorted(targets):
                assert cw.calibrate_censoring_rate(times, target) == reference(times, target)

    @pytest.mark.parametrize(
        "f, lo, hi",
        [
            (lambda x: x**3 - 2.0, 0.0, 3.0),
            (lambda x: math.tanh(x - 0.3) * 1e-300, -5.0, 5.0),
            (lambda x: math.exp(x) - 1e5, -10.0, 20.0),
            (lambda x: math.atan(x) - 1.5, 0.0, 1e20),
            # f(lo) * f(hi) underflows to -0.0: the bracket is kept by sign
            (lambda x: x - 1e-320, -1e-310, 1e-310),
        ],
    )
    def test_brent_root_equals_scipy_brentq(self, f, lo, hi):
        from scipy import optimize

        for xtol, rtol in ((1e-12, 8.9e-16), (1e-300, 8.9e-16)):
            assert simulation._brent_root(f, lo, hi, xtol, rtol) == optimize.brentq(
                f, lo, hi, xtol=xtol, rtol=rtol
            )

    def test_root_search_past_its_iteration_cap_raises_config_error(self, monkeypatch):
        times = cw.generate(cw.builtin_scenario(2, 0.0, seed=3)).true_event_times
        monkeypatch.setattr(simulation, "_BRENT_MAXITER", 3)
        with pytest.raises(cw.ConfigError, match="did not converge in 3 iterations"):
            cw.calibrate_censoring_rate(times, 0.2)

    def test_example_two_censored_counts_near_benchmark(self):
        # benchmark censored counts at n=1500: 161, 289, 443
        for target, rate in ((0.1, 161 / 1500), (0.2, 289 / 1500), (0.3, 443 / 1500)):
            sim = cw.generate(cw.builtin_scenario(2, target, seed=3))
            assert abs(sim.realized_censoring_rate - rate) < 0.04


class TestReplicationSeeds:
    def test_deterministic_and_distinct(self):
        seeds = [cw.replication_seed(5, r) for r in range(10)]
        assert seeds == [cw.replication_seed(5, r) for r in range(10)]
        assert len(set(seeds)) == 10
        assert cw.replication_seed(6, 0) != cw.replication_seed(5, 0)
