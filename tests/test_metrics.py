import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import competing_weibull as cw
from competing_weibull.metrics import default_time_grid


def mann_whitney_auc(case_markers, control_markers):
    """Brute-force tie-corrected Mann-Whitney statistic."""
    total = 0.0
    for a in case_markers:
        for b in control_markers:
            total += 1.0 if a > b else (0.5 if a == b else 0.0)
    return total / (len(case_markers) * len(control_markers))


def harrell_pairs(risk, times, status):
    """Brute-force enumeration of comparable pairs for Harrell's C."""
    num = den = 0.0
    n = len(times)
    for i in range(n):
        if status[i] != 1:
            continue
        for j in range(n):
            if times[i] < times[j]:
                den += 1
                num += 1.0 if risk[i] > risk[j] else (0.5 if risk[i] == risk[j] else 0.0)
    return num / den if den else None


def ipcw_pairs(risk, times, status):
    """Brute-force IPCW concordance: each comparable pair weighted by 1/G(t_i-)^2."""
    g = cw.kaplan_meier(times, 1 - np.asarray(status)).left_limit(times)
    g = np.maximum(g, np.min(g[g > 0]) if np.any(g > 0) else 1.0)
    num = den = 0.0
    n = len(times)
    for i in range(n):
        if status[i] != 1:
            continue
        w = 1.0 / g[i] ** 2
        for j in range(n):
            if times[i] < times[j]:
                den += w
                num += w * (1.0 if risk[i] > risk[j] else (0.5 if risk[i] == risk[j] else 0.0))
    return num / den if den else None


def roc_by_cut(marker, times, status, horizon):
    """Reference ROC: masked weight sums at every unique marker cut, O(n * unique).

    Returns (fpr, tpr) or None for a horizon without cases or controls.
    """
    case = (times <= horizon) & (status == 1)
    control = times > horizon
    if not case.any() or not control.any():
        return None
    km = cw.kaplan_meier(times, 1 - status)
    g_event = km.left_limit(times)
    g_horizon = float(km.evaluate(horizon))
    positive = np.concatenate([g_event[g_event > 0], [g_horizon] if g_horizon > 0 else []])
    floor = float(np.min(positive))
    w_case = np.where(case, 1.0 / np.maximum(g_event, floor), 0.0)
    w_control = np.where(control, 1.0 / max(g_horizon, floor), 0.0)
    fpr, tpr = [0.0], [0.0]
    for cut in np.unique(marker)[::-1]:
        chosen = marker >= cut
        tpr.append(w_case[chosen].sum() / w_case.sum())
        fpr.append(w_control[chosen].sum() / w_control.sum())
    return np.asarray(fpr), np.asarray(tpr)


@st.composite
def tied_censored_samples(draw):
    """Markers and times on a 0.1 grid (heavy ties), random censoring, a horizon among them."""
    n = draw(st.integers(2, 60))
    column = st.lists(st.integers(-20, 20), min_size=n, max_size=n)
    marker = np.asarray(draw(column)) / 10
    times = np.asarray(draw(st.lists(st.integers(1, 30), min_size=n, max_size=n))) / 10
    status = np.asarray(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    horizon = float(times[draw(st.integers(0, n - 1))])
    return marker, times, status, horizon


class TestKaplanMeier:
    def test_no_censoring_matches_empirical(self):
        km = cw.kaplan_meier([1.0, 2.0, 3.0], [1, 1, 1])
        assert np.array_equal(km.jump_times, [1.0, 2.0, 3.0])
        assert km.values == pytest.approx([2 / 3, 1 / 3, 0.0])

    def test_hand_product_limit_with_censoring(self):
        km = cw.kaplan_meier([1.0, 2.0, 3.0], [1, 0, 1])
        assert float(km.evaluate(1.0)) == pytest.approx(2 / 3)
        assert float(km.evaluate(2.5)) == pytest.approx(2 / 3)
        assert float(km.evaluate(3.0)) == pytest.approx(0.0)

    def test_all_censored_is_identically_one(self):
        km = cw.kaplan_meier([1.0, 2.0], [0, 0])
        assert float(km.evaluate(5.0)) == 1.0

    def test_ties_process_events_before_censorings(self):
        # censored subject at t=2 still counts as at risk for the event at 2
        km = cw.kaplan_meier([1.0, 2.0, 2.0, 3.0], [1, 1, 0, 0])
        assert float(km.evaluate(2.0)) == pytest.approx(0.75 * (1 - 1 / 3))

    def test_empirical_equality_random(self):
        rng = np.random.default_rng(3)
        times = rng.uniform(0.1, 5.0, size=50)
        km = cw.kaplan_meier(times, np.ones(50, dtype=int))
        grid = np.linspace(0.05, 5.5, 40)
        empirical = np.array([(times > t).mean() for t in grid])
        assert km.evaluate(grid) == pytest.approx(empirical)

    def test_left_limit(self):
        km = cw.kaplan_meier([1.0, 2.0], [1, 1])
        assert float(km.left_limit(1.0)) == 1.0
        assert float(km.evaluate(1.0)) == pytest.approx(0.5)

    @settings(max_examples=300)
    @given(tied_censored_samples(), st.booleans())
    def test_censoring_left_limit_is_positive_at_every_observed_time(self, sample, last_censored):
        # The IPCW weights 1 / G(t-) need no floor: G reaches 0 only at the
        # largest time, when everyone at risk there is censored, and no
        # subject is observed after it.
        _, times, status, _ = sample
        if last_censored:
            status = np.where(times == times.max(), 0, status)
        assert np.all(cw.kaplan_meier(times, 1 - status).left_limit(times) > 0)

    def test_empty_rejected(self):
        with pytest.raises(cw.SpecError):
            cw.kaplan_meier([], [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_time_rejected(self, bad):
        with pytest.raises(cw.SpecError, match="time"):
            cw.kaplan_meier([1.0, bad, 3.0], [1, 1, 1])

    @pytest.mark.parametrize("bad", [0.5, 2, -1])
    def test_status_outside_zero_one_rejected(self, bad):
        with pytest.raises(cw.SpecError, match="status"):
            cw.kaplan_meier([1.0, 2.0, 3.0], [1, bad, 1])


class TestConcordance:
    def test_perfect_ranking(self):
        assert cw.concordance_index([3, 2, 1], [1, 2, 3], [1, 1, 1]) == 1.0

    def test_reversed_ranking(self):
        assert cw.concordance_index([1, 2, 3], [1, 2, 3], [1, 1, 1]) == 0.0

    def test_hand_enumeration(self):
        assert cw.concordance_index([2, 3, 1], [1, 2, 3], [1, 1, 1]) == pytest.approx(2 / 3)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(4)
        risk = rng.normal(size=30)
        times = rng.uniform(0.5, 4.0, size=30)
        status = rng.integers(0, 2, size=30)
        status[0] = 1
        base = cw.concordance_index(risk, times, status)
        assert cw.concordance_index(np.exp(2 * risk) + 5, times, status) == pytest.approx(base)

    def test_flip_symmetry_without_ties(self):
        rng = np.random.default_rng(5)
        risk = rng.normal(size=25)
        times = rng.uniform(0.5, 4.0, size=25)
        status = np.ones(25, dtype=int)
        c = cw.concordance_index(risk, times, status)
        assert c + cw.concordance_index(-risk, times, status) == pytest.approx(1.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(4, 12))
            risk = rng.normal(size=n)
            times = rng.uniform(0.5, 4.0, size=n)
            status = rng.integers(0, 2, size=n)
            expected = harrell_pairs(risk, times, status)
            if expected is None:
                continue
            assert cw.concordance_index(risk, times, status) == pytest.approx(expected)

    def test_no_comparable_pairs_warns_and_returns_half(self):
        with pytest.warns(UserWarning):
            value = cw.concordance_index([1.0, 2.0], [1.0, 2.0], [0, 1])
        assert value == 0.5

    def test_ipcw_equals_harrell_without_censoring(self):
        rng = np.random.default_rng(7)
        risk = rng.normal(size=30)
        times = rng.uniform(0.5, 4.0, size=30)
        status = np.ones(30, dtype=int)
        assert cw.concordance_index(risk, times, status, method="ipcw") == pytest.approx(
            cw.concordance_index(risk, times, status)
        )

    def test_length_mismatch_rejected(self):
        with pytest.raises(cw.SpecError):
            cw.concordance_index([1.0], [1.0, 2.0], [1, 1])


class TestTimeDependentRoc:
    def test_perfect_marker(self):
        times = np.array([0.5, 0.8, 2.0, 3.0])
        marker = np.array([9.0, 8.0, 1.0, 0.0])
        curve = cw.time_dependent_roc(marker, times, np.ones(4, dtype=int), 1.0)
        assert curve.auc == pytest.approx(1.0)

    def test_constant_marker_is_half(self):
        times = np.array([0.5, 0.8, 2.0, 3.0])
        curve = cw.time_dependent_roc(np.ones(4), times, np.ones(4, dtype=int), 1.0)
        assert curve.auc == pytest.approx(0.5)

    def test_small_instance_matches_mann_whitney(self):
        times = np.array([0.2, 0.4, 0.9, 1.5, 2.0, 4.0])
        marker = np.array([3.0, 1.0, 2.5, 2.5, 0.5, 1.5])
        status = np.ones(6, dtype=int)
        horizon = 1.0
        curve = cw.time_dependent_roc(marker, times, status, horizon)
        cases = marker[(times <= horizon)]
        controls = marker[times > horizon]
        assert curve.auc == pytest.approx(mann_whitney_auc(cases, controls), abs=1e-12)

    def test_exhaustive_uncensored_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(4, 13))
            times = rng.uniform(0.1, 3.0, size=n)
            marker = np.round(rng.normal(size=n), 1)  # induce ties
            status = np.ones(n, dtype=int)
            horizon = float(np.median(times))
            case = times <= horizon
            if not case.any() or case.all():
                continue
            curve = cw.time_dependent_roc(marker, times, status, horizon)
            assert curve.auc == pytest.approx(
                mann_whitney_auc(marker[case], marker[~case]), abs=1e-12
            )

    def test_degenerate_horizon_rejected(self):
        times = np.array([1.0, 2.0, 3.0])
        with pytest.raises(cw.MetricError):
            cw.time_dependent_roc([1, 2, 3], times, [0, 0, 1], 1.5)
        with pytest.raises(cw.MetricError):
            cw.time_dependent_roc([1, 2, 3], times, [1, 1, 1], 5.0)

    def test_curve_monotone_and_auc_consistent_under_censoring(self):
        rng = np.random.default_rng(13)
        times = rng.uniform(0.1, 4.0, size=60)
        status = rng.integers(0, 2, size=60)
        marker = rng.normal(size=60)
        curve = cw.time_dependent_roc(marker, times, status, float(np.median(times)))
        assert np.all(np.diff(curve.fpr) >= -1e-12)
        assert np.all(np.diff(curve.tpr) >= -1e-12)
        assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
        assert curve.fpr[-1] == pytest.approx(1.0) and curve.tpr[-1] == pytest.approx(1.0)
        assert curve.auc == pytest.approx(float(np.trapezoid(curve.tpr, curve.fpr)), abs=1e-12)


class TestAgainstPairwiseReferences:
    @settings(max_examples=200)
    @given(tied_censored_samples())
    def test_counts_and_sweep_match_references(self, sample):
        marker, times, status, horizon = sample
        for method, reference in (("harrell", harrell_pairs), ("ipcw", ipcw_pairs)):
            expected = reference(marker, times, status)
            if expected is None:
                with pytest.warns(UserWarning):
                    assert cw.concordance_index(marker, times, status, method=method) == 0.5
                continue
            value = cw.concordance_index(marker, times, status, method=method)
            if method == "harrell":
                assert value == expected
            else:
                assert abs(value - expected) <= 1e-12 * abs(expected)

        expected_roc = roc_by_cut(marker, times, status, horizon)
        if expected_roc is None:
            with pytest.raises(cw.MetricError):
                cw.time_dependent_roc(marker, times, status, horizon)
            return
        fpr, tpr = expected_roc
        curve = cw.time_dependent_roc(marker, times, status, horizon)
        assert curve.fpr.shape == fpr.shape
        assert np.max(np.abs(curve.fpr - fpr)) <= 1e-12
        assert np.max(np.abs(curve.tpr - tpr)) <= 1e-12
        assert abs(curve.auc - np.trapezoid(tpr, fpr)) <= 1e-12
        assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0


class TestInputChecks:
    times = np.array([0.5, 0.8, 2.0, 3.0])
    scores = np.array([9.0, 8.0, 1.0, 0.0])
    status = np.array([1, 0, 1, 1])

    def replaced(self, name, k, value):
        arrays = {"scores": self.scores, "times": self.times, "status": self.status}
        arrays[name] = arrays[name].astype(float)
        arrays[name][k] = value
        return arrays["scores"], arrays["times"], arrays["status"]

    @pytest.mark.parametrize("method", ["harrell", "ipcw"])
    def test_nan_risk_rejected(self, method):
        with pytest.raises(cw.SpecError, match="risk"):
            cw.concordance_index(*self.replaced("scores", 1, np.nan), method=method)

    def test_nan_marker_rejected(self):
        with pytest.raises(cw.SpecError, match="marker"):
            cw.time_dependent_roc(*self.replaced("scores", 1, np.nan), 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_time_rejected(self, bad):
        with pytest.raises(cw.SpecError, match="time"):
            cw.concordance_index(*self.replaced("times", 3, bad))
        with pytest.raises(cw.SpecError, match="time"):
            cw.time_dependent_roc(*self.replaced("times", 3, bad), 1.0)

    @pytest.mark.parametrize("bad", [2, 0.5, -1])
    def test_status_outside_zero_one_rejected(self, bad):
        with pytest.raises(cw.SpecError, match="status"):
            cw.concordance_index(*self.replaced("status", 2, bad))
        with pytest.raises(cw.SpecError, match="status"):
            cw.time_dependent_roc(*self.replaced("status", 2, bad), 1.0)

    def test_empty_vectors_rejected(self):
        with pytest.raises(cw.SpecError, match="nonempty"):
            cw.concordance_index([], [], [])
        with pytest.raises(cw.SpecError, match="nonempty"):
            cw.time_dependent_roc([], [], [], 1.0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda t, s: cw.kaplan_meier(t, s),
            lambda t, s: default_time_grid(t, s),
            lambda t, s: cw.integrated_auc(lambda h: -np.asarray(t), t, s),
            lambda t, s: cw.concordance_index(t, t, s),
            lambda t, s: cw.time_dependent_roc(t, t, s, 2.0),
        ],
        ids=["kaplan_meier", "default_time_grid", "integrated_auc", "concordance", "roc"],
    )
    def test_unequal_lengths_rejected(self, call):
        # default_time_grid and integrated_auc raised IndexError here.
        with pytest.raises(cw.SpecError, match="equal-length"):
            call([1.0, 2.0, 3.0, 4.0], [1, 1, 0])

    @pytest.mark.parametrize("name, bad", [("times", np.nan), ("times", np.inf), ("status", 2)])
    def test_default_time_grid_rejects_bad_inputs(self, name, bad):
        # A NaN time gave the grid [nan], and status 2 counted as censored.
        _, times, status = self.replaced(name, 1, bad)
        with pytest.raises(cw.SpecError, match=name[:-1]):
            default_time_grid(np.concatenate([times, times]), np.concatenate([status, status]))


class TestMemory:
    def test_peak_stays_linear_at_n_4000(self):
        # One n x n float matrix at n = 4000 is 128 MB; linear-memory metrics
        # stay far below 16 MB.
        rng = np.random.default_rng(29)
        n = 4000
        marker = rng.normal(size=n)
        times = rng.exponential(size=n)
        status = rng.integers(0, 2, size=n)
        calls = [
            lambda: cw.concordance_index(marker, times, status),
            lambda: cw.concordance_index(marker, times, status, method="ipcw"),
            lambda: cw.time_dependent_roc(marker, times, status, float(np.median(times))),
        ]
        for call in calls:
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2**20


class TestIntegratedAuc:
    def test_perfect_marker_integrates_to_one(self):
        rng = np.random.default_rng(17)
        times = rng.uniform(0.1, 5.0, size=80)
        status = np.ones(80, dtype=int)
        iauc = cw.integrated_auc(lambda t: -times, times, status)
        assert iauc == pytest.approx(1.0)

    def test_constant_marker_integrates_to_half(self):
        rng = np.random.default_rng(18)
        times = rng.uniform(0.1, 5.0, size=80)
        status = np.ones(80, dtype=int)
        iauc = cw.integrated_auc(lambda t: np.zeros(80), times, status)
        assert iauc == pytest.approx(0.5)

    def test_lies_between_min_and_max_auc(self):
        rng = np.random.default_rng(19)
        times = rng.uniform(0.1, 5.0, size=100)
        status = np.ones(100, dtype=int)
        marker = -times + rng.normal(scale=1.0, size=100)
        grid = default_time_grid(times, status)
        aucs = [
            cw.time_dependent_roc(marker, times, status, float(t)).auc for t in grid
        ]
        iauc = cw.integrated_auc(lambda t: marker, times, status, grid)
        assert min(aucs) - 1e-12 <= iauc <= max(aucs) + 1e-12

    def test_grid_validation(self):
        times = np.array([1.0, 2.0, 3.0, 4.0])
        status = np.ones(4, dtype=int)
        with pytest.raises(cw.MetricError):
            cw.integrated_auc(lambda t: -times, times, status, grid=[1.5])
        with pytest.raises(cw.SpecError):
            cw.integrated_auc(lambda t: -times, times, status, grid=[2.0, 1.0])
        # 0.5 has no case, so one horizon is valid: no iAUC, as evaluate
        # reports iauc null.
        with pytest.warns(UserWarning, match="skipping horizon 0.5"):
            with pytest.raises(cw.MetricError, match="two valid horizons"):
                cw.integrated_auc(lambda t: -times, times, status, grid=[0.5, 2.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_grid_point_rejected(self, bad):
        # A skipped non-finite horizon must not leave its Kaplan-Meier weight
        # behind: the grid is rejected instead.
        times = np.array([1.0, 2.0, 3.0, 4.0])
        status = np.ones(4, dtype=int)
        with pytest.raises(cw.SpecError, match="finite"):
            cw.integrated_auc(lambda t: -times, times, status, grid=[1.5, 3.5, bad])


class TestRiskMarker:
    def test_single_group_modes_rank_like_linear_predictor(self):
        # With one group both markers are strictly decreasing in mu, so the
        # ascending marker order is the descending mu order.
        spec = cw.ModelSpec([cw.GroupSpec([0, 1])], p=2)
        theta = cw.Theta([cw.GroupParams(0.4, [0.9, -0.6], 0.8)])
        rng = np.random.default_rng(23)
        x = rng.standard_normal((15, 2))
        mu = 0.4 + x @ np.array([0.9, -0.6])
        neg_et = cw.risk_markers(theta, spec, x, mode="neg_expected_time")
        one_ms = cw.risk_markers(theta, spec, x, mode="one_minus_survival", horizon=1.5)
        assert np.array_equal(np.argsort(neg_et), np.argsort(-mu))
        assert np.array_equal(np.argsort(one_ms), np.argsort(-mu))

    def test_identical_covariates_identical_markers(self):
        spec = cw.ModelSpec([cw.GroupSpec([0])], p=1)
        theta = cw.Theta([cw.GroupParams(0.1, [0.5], 1.2)])
        x = np.array([[0.7], [0.7]])
        m = cw.risk_markers(theta, spec, x)
        assert m[0] == m[1]

    def test_survival_mode_requires_horizon(self):
        spec = cw.ModelSpec([cw.GroupSpec([])], p=0)
        theta = cw.Theta([cw.GroupParams(0.0, [], 1.0)])
        with pytest.raises(cw.SpecError):
            cw.risk_marker(theta, spec, [], mode="one_minus_survival")
        with pytest.raises(cw.SpecError):
            cw.risk_marker(theta, spec, [], mode="unknown")


class TestStepSurvivalAndRocTypes:
    def test_step_survival_validation(self):
        with pytest.raises(cw.SpecError):
            cw.StepSurvival(np.array([2.0, 1.0]), np.array([0.5, 0.4]))
        with pytest.raises(cw.SpecError):
            cw.StepSurvival(np.array([1.0, 2.0]), np.array([0.4, 0.5]))

    @pytest.mark.parametrize("where", ["jump_times", "values"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_step_survival_rejects_non_finite_entries(self, where, bad):
        arrays = {"jump_times": np.array([1.0, 2.0, 3.0]), "values": np.array([0.9, 0.5, 0.2])}
        for k in range(3):
            changed = dict(arrays, **{where: arrays[where].copy()})
            changed[where][k] = bad
            with pytest.raises(cw.SpecError):
                cw.StepSurvival(**changed)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_roc_curve_rejects_non_finite_entries(self, bad):
        with pytest.raises(cw.SpecError):
            cw.RocCurve(1.0, np.array([0.0, 1.0]), np.array([0.0, 1.0]), bad)
        for field in ("fpr", "tpr"):
            arrays = {"fpr": np.array([0.0, 0.5, 1.0]), "tpr": np.array([0.0, 0.5, 1.0])}
            arrays[field][1] = bad
            with pytest.raises(cw.SpecError):
                cw.RocCurve(1.0, auc=0.5, **arrays)

    def test_roc_curve_validation(self):
        with pytest.raises(cw.SpecError):
            cw.RocCurve(1.0, np.array([0.0, 1.0]), np.array([0.0, 1.0]), 0.9)
        curve = cw.RocCurve(1.0, np.array([0.0, 1.0]), np.array([0.0, 1.0]), 0.5)
        assert curve.auc == 0.5
