import contextlib
import csv
import io
import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import competing_weibull as cw
from competing_weibull.cli import main
from competing_weibull.metrics import default_time_grid
from competing_weibull.io import canonical_json, fit_from_json, read_dataset_csv, write_dataset_csv
from conftest import run_python


def run(*argv):
    return main([str(a) for a in argv])


def read_json(path):
    with open(path) as handle:
        return json.load(handle)


def read_csv_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


@pytest.fixture()
def spec_json_ex1(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(
        json.dumps(
            {"groups": [{"covariates": ["x1"]}, {"covariates": ["x2"]}, {"covariates": ["x3"]}]}
        )
    )
    return path


class TestSimulate:
    def test_example_one_no_censoring(self, tmp_path):
        out = tmp_path / "data.csv"
        assert run("simulate", "--example", 1, "--censoring", 0, "--seed", 5, "--out", out) == 0
        rows = read_csv_rows(out)
        assert rows[0] == ["time", "status", "x1", "x2", "x3"]
        assert len(rows) == 1001
        assert all(r[1] == "1" for r in rows[1:])
        truth = read_json(tmp_path / "data.truth.json")
        assert truth["n"] == 1000 and len(truth["latent_causes"]) == 1000

    def test_byte_identical_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert (
                run("simulate", "--example", 2, "--censoring", 0.1, "--seed", 7, "--out", out)
                == 0
            )
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.truth.json").read_bytes() == (tmp_path / "b.truth.json").read_bytes()

    def test_malformed_scenario_exits_2_without_output(self, tmp_path):
        bad = tmp_path / "scenario.json"
        bad.write_text("{ not json")
        out = tmp_path / "data.csv"
        assert run("simulate", "--scenario", bad, "--out", out) == 2
        assert not out.exists()

    def test_unknown_scenario_keys_rejected(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(
            json.dumps(
                {
                    "groups": [{"indices": [0], "alpha": 0.0, "beta": [1.0], "sigma": 1.0}],
                    "n": 10,
                    "target_censoring": 0.0,
                    "seed": 1,
                    "bogus": 1,
                }
            )
        )
        out = tmp_path / "data.csv"
        assert run("simulate", "--scenario", scenario, "--out", out) == 2
        assert not out.exists()

    def test_scenario_file_roundtrip(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(
            canonical_json(
                {
                    "format_version": 1,
                    "groups": [
                        {"indices": [0], "alpha": 0.3, "beta": [0.9], "sigma": 1.0},
                        {"indices": [1], "alpha": 0.8, "beta": [-0.5], "sigma": 0.7},
                    ],
                    "n": 50,
                    "p": 2,
                    "target_censoring": 0.2,
                    "seed": 12,
                }
            )
        )
        out = tmp_path / "data.csv"
        assert run("simulate", "--scenario", scenario, "--out", out) == 0
        rows = read_csv_rows(out)
        assert len(rows) == 51 and rows[0] == ["time", "status", "x1", "x2"]

    @pytest.mark.parametrize("alpha", [-800.0, 800.0])
    def test_latent_times_outside_the_doubles_exit_2(self, tmp_path, capsys, alpha):
        # At alpha = -800 every latent time underflows to 0, at +800 to inf.
        group = {"indices": [0], "alpha": alpha, "beta": [0.9], "sigma": 1.0}
        scenario = {"groups": [group], "n": 20, "p": 1, "target_censoring": 0.2, "seed": 1}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        out = tmp_path / "data.csv"
        assert run("simulate", "--scenario", path, "--out", out) == 2
        err = capsys.readouterr().err
        assert "positive and finite" in err and "Traceback" not in err
        assert not out.exists()

    def test_requires_exactly_one_source(self, tmp_path):
        assert run("simulate", "--out", tmp_path / "x.csv") == 2

    @pytest.mark.parametrize(
        "key, value",
        [
            ("n", "abc"),
            ("n", 2.5),
            ("n", True),
            ("seed", "s"),
            ("seed", -1),
            ("target_censoring", None),
            ("groups", [5]),
            ("beta", "x"),
            ("indices", [0.5]),
            ("alpha", 10**400),
            ("sigma", 10**400),
            ("target_censoring", 10**400),
            ("n", 10**30),
            ("p", 10**400),
            ("indices", [10**400]),
        ],
        ids=[
            "n-string",
            "n-fraction",
            "n-bool",
            "seed-string",
            "seed-negative",
            "censoring-null",
            "groups-not-objects",
            "beta-string",
            "indices-fraction",
            "alpha-beyond-doubles",
            "sigma-beyond-doubles",
            "censoring-beyond-doubles",
            "n-beyond-intp",
            "p-beyond-intp",
            "index-beyond-intp",
        ],
    )
    def test_malformed_scenario_values_exit_2(self, tmp_path, capsys, key, value):
        group = {"indices": [0], "alpha": 0.0, "beta": [1.0], "sigma": 1.0}
        scenario = {"groups": [group], "n": 10, "target_censoring": 0.0, "seed": 1}
        if key in group:
            group[key] = value
        else:
            scenario[key] = value
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        out = tmp_path / "data.csv"
        assert run("simulate", "--scenario", path, "--out", out) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pipeline")
    data = tmp / "data.csv"
    spec = tmp / "spec.json"
    fit = tmp / "fit.json"
    spec.write_text(
        json.dumps(
            {
                "groups": [
                    {"covariates": ["x1"]},
                    {"covariates": ["x2"]},
                    {"covariates": ["x3"]},
                ]
            }
        )
    )
    assert run("simulate", "--example", 1, "--censoring", 0, "--seed", 5, "--out", data) == 0
    assert (
        run(
            "fit",
            "--data", data,
            "--spec", spec,
            "--lambda1", 0.5,
            "--lambda2", 0.2,
            "--out", fit,
        )
        == 0
    )
    return tmp, data, spec, fit


class TestFitPredictEvaluate:
    def test_fit_output_contents(self, pipeline):
        tmp, data, spec, fit = pipeline
        payload = read_json(fit)
        assert payload["converged"] is True
        assert payload["penalty"] == {"lambda1": 0.5, "lambda2": 0.2}
        assert len(payload["groups"]) == 3
        assert len(payload["std_errors"]) == 9
        assert math.isfinite(payload["final_loglik"])
        truth = read_json(tmp / "data.truth.json")
        for est, true_group in zip(payload["groups"], truth["groups"]):
            assert abs(est["alpha"] - true_group["alpha"]) < 3 * 0.138 * 3
        eta_rows = read_csv_rows(tmp / "fit.eta.csv")
        assert eta_rows[0] == ["eta1", "eta2", "eta3", "censored"]
        sums = [sum(float(v) for v in r[:3]) for r in eta_rows[1:]]
        assert all(abs(s - 1.0) < 1e-10 for s in sums)

    def test_fit_json_roundtrips_byte_identical(self, pipeline):
        _, _, _, fit = pipeline
        text = fit.read_text()
        assert canonical_json(json.loads(text)) == text

    def test_warm_start_refit_converges_fast(self, pipeline):
        tmp, data, spec, fit = pipeline
        refit = tmp / "refit.json"
        assert (
            run(
                "fit",
                "--data", data,
                "--spec", spec,
                "--lambda1", 0.5,
                "--lambda2", 0.2,
                "--init", fit,
                "--out", refit,
            )
            == 0
        )
        assert read_json(refit)["n_iters"] <= 2

    def test_predict_columns_and_normalization(self, pipeline):
        tmp, data, spec, fit = pipeline
        pred = tmp / "pred.csv"
        assert run("predict", "--fit", fit, "--data", data, "--at", "1,2.5", "--out", pred) == 0
        rows = read_csv_rows(pred)
        assert rows[0][:3] == ["expected_time", "s_at_1", "s_at_2.5"]
        assert len(rows[0]) == 3 + 2 * 3
        for r in rows[1:50]:
            values = [float(v) for v in r]
            eta_first = values[3:6]
            eta_second = values[6:9]
            assert abs(sum(eta_first) - 1.0) < 1e-10
            assert abs(sum(eta_second) - 1.0) < 1e-10
            assert values[1] > values[2]  # survival decreases with the horizon

    def test_predict_rejects_nonpositive_times(self, pipeline):
        tmp, data, spec, fit = pipeline
        assert run("predict", "--fit", fit, "--data", data, "--at", "0,-1", "--out", tmp / "p.csv") == 2

    def test_sigma_beyond_13_8_predicts_and_evaluates(self, pipeline, tmp_path):
        # At sigma 14 the survival cutoff fails cutoff * h(cutoff) > 1, and
        # predict and evaluate exited 2 though E[T] = e^mu Gamma(15) exists.
        tmp, data, spec, fit = pipeline
        group = {"covariates": ["x1"], "alpha": 0.0, "beta": [0.5], "sigma": 14.0}
        wide = tmp_path / "fit.json"
        wide.write_text(json.dumps(dict(read_json(fit), groups=[group])))
        out = tmp_path / "p.csv"
        assert run("predict", "--fit", wide, "--data", data, "--at", "1", "--out", out) == 0
        assert run("evaluate", "--fit", wide, "--data", data, "--out", tmp_path / "r.json") == 0
        x1 = [float(row[2]) for row in read_csv_rows(data)[1:]]
        expected = [float(row[0]) for row in read_csv_rows(out)[1:]]
        assert expected == pytest.approx([math.exp(0.5 * x) * math.gamma(15.0) for x in x1], rel=1e-12)

    def test_predict_rejects_mismatched_columns(self, pipeline, tmp_path):
        tmp, data, spec, fit = pipeline
        other = tmp_path / "other.csv"
        other.write_text("time,status,z1\n1.0,1,0.5\n")
        assert run("predict", "--fit", fit, "--data", other, "--at", "1", "--out", tmp_path / "p.csv") == 2

    @pytest.mark.parametrize(
        "groups",
        [["x1"], [{"alpha": 0.0, "beta": [], "sigma": 1.0}]],
        ids=["entry-not-an-object", "entry-without-covariates"],
    )
    def test_predict_rejects_malformed_fit_groups(self, pipeline, tmp_path, groups):
        tmp, data, spec, fit = pipeline
        bad = tmp_path / "fit.json"
        bad.write_text(json.dumps(dict(read_json(fit), groups=groups)))
        out = tmp_path / "p.csv"
        assert run("predict", "--fit", bad, "--data", data, "--at", "1", "--out", out) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("alpha", "abc"),
            ("alpha", None),
            ("alpha", True),
            ("alpha", [1.0]),
            ("beta", 5),
            ("beta", ["x"]),
            ("beta", None),
            ("sigma", True),
            ("sigma", "1"),
            ("sigma", None),
            ("covariates", 5),
            ("covariates", [["x1"]]),
            ("format_version", 1.0),
            ("format_version", True),
            pytest.param("alpha", 10**400, id="alpha-beyond-doubles"),
        ],
    )
    def test_predict_rejects_malformed_fit_values(self, pipeline, tmp_path, capsys, key, value):
        tmp, data, spec, fit = pipeline
        payload = read_json(fit)
        if key == "format_version":
            payload[key] = value
        else:
            payload["groups"][0][key] = value
        bad = tmp_path / "fit.json"
        bad.write_text(json.dumps(payload))
        out = tmp_path / "p.csv"
        assert run("predict", "--fit", bad, "--data", data, "--at", "1", "--out", out) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    def test_evaluate_report_and_curves(self, pipeline):
        tmp, data, spec, fit = pipeline
        report = tmp / "report.json"
        rocdir = tmp / "rocs"
        assert (
            run("evaluate", "--fit", fit, "--data", data, "--horizons", "1,2,50", "--out", report, "--rocdir", rocdir)
            == 0
        )
        payload = read_json(report)
        assert 0.5 < payload["c_index"] < 1.0
        assert 0.5 < payload["iauc"] <= 1.0
        assert set(payload["auc_by_horizon"]) == {"1", "2"}
        assert "50" in payload["skipped_horizons"]  # beyond the data range
        for t in ("1", "2"):
            curve = read_json(rocdir / f"roc_{t}.json")
            assert curve["auc"] == payload["auc_by_horizon"][t]

    def test_inputs_not_mutated(self, pipeline):
        tmp, data, spec, fit = pipeline
        before = data.read_bytes()
        report = tmp / "report2.json"
        assert run("evaluate", "--fit", fit, "--data", data, "--horizons", "1,2", "--out", report) == 0
        assert data.read_bytes() == before

    def test_single_valid_horizon_skips_iauc(self, pipeline, caplog):
        tmp, data, spec, fit = pipeline
        report = tmp / "report3.json"
        # At info level the summary line must format without an iAUC.
        caplog.set_level(logging.INFO, logger="competing_weibull")
        assert run("evaluate", "--fit", fit, "--data", data, "--horizons", "1", "--out", report) == 0
        payload = read_json(report)
        assert payload["iauc"] is None
        assert "iauc" in payload["skipped_horizons"]
        assert any("c-index" in m and "iAUC" not in m for m in caplog.messages)

    def test_survival_marker_uses_middle_horizon(self, pipeline):
        tmp, data, spec, fit = pipeline
        report = tmp / "report_survival.json"
        assert (
            run(
                "evaluate", "--fit", fit, "--data", data, "--horizons", "2.5,1,2",
                "--marker", "one_minus_survival", "--out", report,
            )
            == 0
        )
        payload = read_json(report)
        assert payload["marker"] == "one_minus_survival"
        assert 0.0 <= payload["c_index"] <= 1.0
        dataset, _ = read_dataset_csv(str(data))
        spec_obj, theta, _ = fit_from_json(read_json(fit))
        marker = cw.risk_markers(
            theta, spec_obj, dataset.covariates, mode="one_minus_survival", horizon=2.0
        )
        assert payload["c_index"] == cw.concordance_index(marker, dataset.times, dataset.status)


    def test_report_equals_the_library_metrics(self, pipeline):
        # The report's AUCs and iAUC are those of time_dependent_roc and
        # integrated_auc on the same markers, bit for bit; 50 is skipped.
        tmp, data, spec, fit = pipeline
        report = tmp / "report_library.json"
        assert (
            run("evaluate", "--fit", fit, "--data", data, "--horizons", "2.5,1,50,2", "--out", report)
            == 0
        )
        payload = read_json(report)
        dataset, _ = read_dataset_csv(str(data))
        spec_obj, theta, _ = fit_from_json(read_json(fit))

        def marker_at(t):
            return cw.risk_markers(
                theta, spec_obj, dataset.covariates, mode="one_minus_survival", horizon=t
            )

        times, status = dataset.times, dataset.status
        assert payload["auc_by_horizon"] == {
            f"{t:g}": cw.time_dependent_roc(marker_at(t), times, status, t).auc
            for t in (2.5, 1.0, 2.0)
        }
        with pytest.warns(UserWarning, match="skipping horizon 50"):
            iauc = cw.integrated_auc(marker_at, times, status, grid=[1.0, 2.0, 2.5, 50.0])
        assert payload["iauc"] == iauc

    def test_roc_files_equal_the_library_curves(self, pipeline, tmp_path):
        # Each valid horizon's file holds time_dependent_roc's curve, value
        # for value; the degenerate horizon 50 gets no file.
        tmp, data, spec, fit = pipeline
        report, rocdir = tmp_path / "report.json", tmp_path / "rocs"
        assert (
            run("evaluate", "--fit", fit, "--data", data, "--horizons", "2.5,1,50,2", "--out", report, "--rocdir", rocdir)
            == 0
        )
        aucs = read_json(report)["auc_by_horizon"]
        dataset, _ = read_dataset_csv(str(data))
        spec_obj, theta, _ = fit_from_json(read_json(fit))
        horizons = (2.5, 1.0, 2.0)
        assert sorted(os.listdir(rocdir)) == sorted(f"roc_{t:g}.json" for t in horizons)
        for t in horizons:
            marker = cw.risk_markers(
                theta, spec_obj, dataset.covariates, mode="one_minus_survival", horizon=t
            )
            curve = cw.time_dependent_roc(marker, dataset.times, dataset.status, t)
            assert read_json(rocdir / f"roc_{t:g}.json") == {
                "auc": curve.auc,
                "fpr": curve.fpr.tolist(),
                "horizon": t,
                "tpr": curve.tpr.tolist(),
            }
            assert curve.auc == aucs[f"{t:g}"]


class TestExponentialPredictions:
    def test_exponential_predict_values(self, tmp_path):
        # hand-built unit-exponential fit: alpha=0, sigma=1, no covariates
        n = 4
        data = tmp_path / "data.csv"
        data.write_text("time,status\n" + "\n".join(f"{t},1" for t in (0.5, 1.0, 1.5, 2.0)) + "\n")
        fit = tmp_path / "fit.json"
        fit.write_text(
            canonical_json(
                {
                    "format_version": 1,
                    "covariate_names": [],
                    "groups": [{"covariates": [], "alpha": 0.0, "beta": [], "sigma": 1.0}],
                    "std_errors": None,
                    "converged": True,
                    "n_iters": 1,
                    "final_loglik": 0.0,
                    "penalty": {"lambda1": 0.0, "lambda2": 0.0},
                    "warnings": [],
                }
            )
        )
        pred = tmp_path / "pred.csv"
        assert run("predict", "--fit", fit, "--data", data, "--at", "1", "--out", pred) == 0
        rows = read_csv_rows(pred)
        for r in rows[1:]:
            assert float(r[0]) == pytest.approx(1.0, abs=1e-4)
            assert float(r[1]) == pytest.approx(math.exp(-1.0), abs=1e-4)
            assert float(r[2]) == pytest.approx(1.0, abs=1e-12)

    def test_expected_time_matches_trapezoid_oracle(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("time,status,x1\n0.5,1,0.3\n2.0,1,-0.8\n1.0,0,1.2\n")
        fit = tmp_path / "fit.json"
        fit.write_text(
            canonical_json(
                {
                    "format_version": 1,
                    "covariate_names": ["x1"],
                    "groups": [
                        {"covariates": ["x1"], "alpha": 0.2, "beta": [0.7], "sigma": 0.9},
                        {"covariates": [], "alpha": 1.1, "beta": [], "sigma": 1.3},
                    ],
                    "std_errors": None,
                    "converged": True,
                    "n_iters": 1,
                    "final_loglik": 0.0,
                    "penalty": {"lambda1": 0.0, "lambda2": 0.0},
                    "warnings": [],
                }
            )
        )
        pred = tmp_path / "pred.csv"
        assert run("predict", "--fit", fit, "--data", data, "--out", pred) == 0
        rows = read_csv_rows(pred)
        spec = cw.ModelSpec([cw.GroupSpec([0]), cw.GroupSpec([])], p=1)
        theta = cw.Theta(
            [cw.GroupParams(0.2, [0.7], 0.9), cw.GroupParams(1.1, [], 1.3)]
        )
        for r, x in zip(rows[1:], ([0.3], [-0.8], [1.2])):
            cutoff = cw.auto_cutoff(theta, spec, x, 1e-9)
            ts = np.linspace(0, cutoff, 200_001)
            # S(t) = exp(-sum_l (t e^(-mu_l))^(1/sigma_l)), in closed form.
            log_s = -sum(
                (ts * math.exp(-cw.group_log_scale(g, x, group))) ** (1.0 / g.sigma)
                for g, group in zip(theta.groups, spec.groups)
            )
            oracle = float(np.trapezoid(np.exp(log_s), ts))
            assert float(r[0]) == pytest.approx(oracle, rel=1e-4)


class TestPipelineDeterminism:
    def test_simulate_fit_evaluate_byte_identical(self, tmp_path, spec_json_ex1):
        outputs = []
        for tag in ("one", "two"):
            d = tmp_path / tag
            d.mkdir()
            data, fit, report = d / "data.csv", d / "fit.json", d / "report.json"
            assert run("simulate", "--example", 1, "--censoring", 0.1, "--seed", 11, "--out", data) == 0
            assert (
                run(
                    "fit",
                    "--data", data,
                    "--spec", spec_json_ex1,
                    "--lambda1", 0.5,
                    "--lambda2", 0.2,
                    "--out", fit,
                )
                == 0
            )
            assert run("evaluate", "--fit", fit, "--data", data, "--horizons", "1,3", "--out", report) == 0
            outputs.append((data.read_bytes(), fit.read_bytes(), report.read_bytes()))
        assert outputs[0] == outputs[1]


class TestFitErrors:
    def test_dimension_mismatch_exits_2(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("time,status,x1\n1.0,1,0.5\n2.0,1,-0.3\n")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"groups": [{"covariates": ["nope"]}]}))
        assert run("fit", "--data", data, "--spec", spec, "--out", tmp_path / "f.json") == 2

    def test_fractional_status_exits_2(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("time,status,x1\n1.0,1,0.5\n2.0,0.7,-0.3\n3.0,0,0.1\n")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"groups": [{"covariates": ["x1"]}]}))
        out = tmp_path / "f.json"
        assert run("fit", "--data", data, "--spec", spec, "--out", out) == 2
        assert not out.exists()

    def test_non_utf8_data_exits_2(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_bytes("time,status,x1\n1.0,1,0.5\n2.0,1,-0.3\n".encode("utf-16"))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"groups": [{"covariates": ["x1"]}]}))
        assert run("fit", "--data", data, "--spec", spec, "--out", tmp_path / "f.json") == 2

    def test_field_over_the_csv_size_limit_exits_2(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("time,status,x1\n1.0,1," + "1" * (csv.field_size_limit() + 1) + "\n")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"groups": [{"covariates": ["x1"]}]}))
        assert run("fit", "--data", data, "--spec", spec, "--out", tmp_path / "f.json") == 2
        assert "field larger than field limit" in capsys.readouterr().err

    def test_missing_file_exits_3(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"groups": [{"covariates": []}]}))
        assert (
            run("fit", "--data", tmp_path / "missing.csv", "--spec", spec, "--out", tmp_path / "f.json")
            == 3
        )

    def test_non_convergence_still_exits_0(self, tmp_path):
        data = tmp_path / "data.csv"
        rng = np.random.default_rng(1)
        rows = "\n".join(f"{t},1,{x}" for t, x in zip(rng.exponential(1, 30), rng.normal(size=30)))
        data.write_text("time,status,x1\n" + rows + "\n")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"groups": [{"covariates": ["x1"]}]}))
        fit = tmp_path / "fit.json"
        assert (
            run("fit", "--data", data, "--spec", spec, "--max-iters", 1, "--epsilon", "1e-14", "--out", fit)
            == 0
        )
        assert read_json(fit)["converged"] is False

    @pytest.mark.parametrize("lambda1", [0.0, 2.0])
    def test_far_intercept_init_exits_without_traceback(self, tmp_path, capsys, lambda1):
        # exp(720) overflows a double; the fit must not raise through the CLI.
        rng = np.random.default_rng(0)
        data = tmp_path / "data.csv"
        rows = "\n".join(f"{t},1,{x}" for t, x in zip(rng.exponential(2, 100), rng.normal(size=100)))
        data.write_text("time,status,x1\n" + rows + "\n")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"groups": [{"covariates": ["x1"]}]}))
        init = tmp_path / "init.json"
        init.write_text(
            json.dumps(
                {"covariate_names": ["x1"], "groups": [
                    {"covariates": ["x1"], "alpha": -720.0, "beta": [0.8], "sigma": 1.0}
                ]}
            )
        )
        code = run(
            "fit", "--data", data, "--spec", spec, "--lambda1", lambda1,
            "--init", init, "--out", tmp_path / "fit.json",
        )
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in capsys.readouterr().err

    def test_init_sigma_beyond_its_bound_starts_at_the_bound(self, tmp_path):
        # sigma = 1e308 overflowed sigma**2 in the M-step.
        rng = np.random.default_rng(0)
        data = tmp_path / "data.csv"
        rows = "\n".join(f"{t},1,{x}" for t, x in zip(rng.exponential(2, 100), rng.normal(size=100)))
        data.write_text("time,status,x1\n" + rows + "\n")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"groups": [{"covariates": ["x1"]}]}))
        outputs = []
        for sigma in (1e308, 10.0):
            init = tmp_path / f"init{sigma:g}.json"
            group = {"covariates": ["x1"], "alpha": 0.5, "beta": [0.8], "sigma": sigma}
            init.write_text(json.dumps({"covariate_names": ["x1"], "groups": [group]}))
            fit = tmp_path / f"fit{sigma:g}.json"
            assert run("fit", "--data", data, "--spec", spec, "--init", init, "--out", fit) == 0
            outputs.append(fit.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command", ["simulate", "fit", "predict"])
    def test_non_utf8_json_exits_2(self, tmp_path, capsys, command):
        data = tmp_path / "data.csv"
        data.write_text("time,status,x1\n1.0,1,0.5\n2.0,1,-0.3\n")
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"groups": [{"covariates": ["x1\xff"]}]}')
        out = tmp_path / "out"
        argv = {
            "simulate": ("--scenario", bad),
            "fit": ("--data", data, "--spec", bad),
            "predict": ("--fit", bad, "--data", data),
        }[command]
        assert run(command, *argv, "--out", out) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--lambda1", "nan"),
            ("--lambda2", "nan"),
            ("--sigma-floor", "nan"),
            ("--epsilon", "nan"),
            ("--lambda1", "inf"),
            ("--epsilon", "inf"),
            ("--sigma-floor", "20"),
            ("--seed", "-1"),
        ],
    )
    def test_invalid_fit_settings_exit_2(self, tmp_path, capsys, flag, value):
        data = tmp_path / "data.csv"
        rng = np.random.default_rng(2)
        rows = "\n".join(f"{t},1,{x}" for t, x in zip(rng.exponential(1, 30), rng.normal(size=30)))
        data.write_text("time,status,x1\n" + rows + "\n")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"groups": [{"covariates": ["x1"]}]}))
        out = tmp_path / "fit.json"
        argv = ("fit", "--data", data, "--spec", spec, "--starts", 2, flag, value, "--out", out)
        assert run(*argv) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    def test_duplicate_covariate_names_rejected(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("time,status,x1,x1\n1.0,1,0.5,7.0\n2.0,1,-0.3,8.0\n3.0,0,0.1,9.0\n")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"groups": [{"covariates": ["x1"]}]}))
        out = tmp_path / "f.json"
        assert run("fit", "--data", data, "--spec", spec, "--out", out) == 2
        assert not out.exists()
        fit = {
            "covariate_names": ["x1", "x1"],
            "groups": [{"covariates": ["x1"], "alpha": 0.0, "beta": [1.0], "sigma": 1.0}],
        }
        with pytest.raises(cw.ConfigError, match="not unique"):
            fit_from_json(fit)


class TestJsonErrorsNameTheFile:
    @pytest.mark.parametrize("command", ["simulate", "fit", "fit --init", "predict", "evaluate"])
    def test_message_starts_with_the_path(self, pipeline, tmp_path, capsys, command):
        tmp, data, spec, fit = pipeline
        bad = tmp_path / "bad.json"
        out = tmp_path / "out"
        if command == "simulate":
            bad.write_text(json.dumps({"groups": [], "n": "abc", "target_censoring": 0.1, "seed": 1}))
            argv, where = ("simulate", "--scenario", bad), "scenario.n must be an integer"
        elif command == "fit":
            bad.write_text(json.dumps({"groups": [{"covariates": "x1"}]}))
            argv, where = ("fit", "--data", data, "--spec", bad), ".groups[0].covariates must be a list"
        else:
            payload = read_json(fit)
            payload["groups"][0]["alpha"] = "abc"
            bad.write_text(json.dumps(payload))
            where = "fit.groups[0].alpha must be a number, got 'abc'"
            argv = {
                "fit --init": ("fit", "--data", data, "--spec", spec, "--init", bad),
                "predict": ("predict", "--fit", bad, "--data", data),
                "evaluate": ("evaluate", "--fit", bad, "--data", data),
            }[command]
        assert run(*argv, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ")
        assert where in err
        assert not out.exists()


class TestHorizonLabels:
    """A horizon's ``:g`` label names a prediction column, a report key and a
    ROC file, so an explicit list may not repeat a label."""

    @pytest.mark.parametrize("times", ["1,1.0000001", "2,2", "0.5, 2,2.0", "3e-7,2.9999999e-7"])
    def test_predict_rejects_repeated_labels(self, pipeline, tmp_path, capsys, times):
        tmp, data, spec, fit = pipeline
        out = tmp_path / "pred.csv"
        assert run("predict", "--fit", fit, "--data", data, "--at", times, "--out", out) == 2
        err = capsys.readouterr().err
        first, second = [part.strip() for part in times.split(",")][-2:]
        assert f"times {first} and {second} share the label" in err
        assert not out.exists()

    @pytest.mark.parametrize("times", ["1,1.0000001", "1,2,1"])
    def test_evaluate_rejects_repeated_labels(self, pipeline, tmp_path, capsys, times):
        tmp, data, spec, fit = pipeline
        report, rocdir = tmp_path / "report.json", tmp_path / "rocs"
        assert (
            run("evaluate", "--fit", fit, "--data", data, "--horizons", times, "--out", report, "--rocdir", rocdir)
            == 2
        )
        assert "share the label 1" in capsys.readouterr().err
        assert not report.exists() and not rocdir.exists()

    def test_default_grid_keeps_the_first_time_per_label(self, pipeline, tmp_path):
        # Every event decile lies in [1, 1.0000001], so all nine grid times
        # print as "1"; one horizon remains and the iAUC is skipped.
        tmp, _, spec, fit = pipeline
        rng = np.random.default_rng(0)
        n = 60
        times = np.where(np.arange(n) % 2 == 0, 1.0, 1.0000001)
        times[:10] = 5.0
        status = np.ones(n, dtype=int)
        status[:10] = 0
        data = tmp_path / "data.csv"
        write_dataset_csv(
            str(data), cw.Dataset(times, status, rng.standard_normal((n, 3))), ["x1", "x2", "x3"]
        )
        grid = default_time_grid(times, status)
        assert grid.size > 1 and {f"{t:g}" for t in grid} == {"1"}
        report, rocdir = tmp_path / "report.json", tmp_path / "rocs"
        assert run("evaluate", "--fit", fit, "--data", data, "--out", report, "--rocdir", rocdir) == 0
        payload = read_json(report)
        assert list(payload["auc_by_horizon"]) == ["1"]
        assert payload["iauc"] is None and "iauc" in payload["skipped_horizons"]
        assert sorted(os.listdir(rocdir)) == ["roc_1.json"]
        assert read_json(rocdir / "roc_1.json")["horizon"] == float(grid[0])


class TestLogLevel:
    """``COMPETING_WEIBULL_LOG`` names a standard level in any case; any other
    value means warning and never stops a command."""

    @pytest.mark.parametrize("value", ["basic_format", "notset", "", "bogus", "DEBUG"])
    def test_any_value_runs_the_command(self, tmp_path, value):
        env = dict(os.environ, COMPETING_WEIBULL_LOG=value)
        src = str(Path(cw.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = "simulate --example 1 --censoring 0.1 --out x.csv".split()
        done = subprocess.run(
            [sys.executable, "-m", "competing_weibull", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        assert "Traceback" not in done.stderr
        info_lines = [line for line in done.stderr.splitlines() if line.startswith("INFO ")]
        assert bool(info_lines) == (value == "DEBUG")


def _denied_modules_after(commands, cwd, deny=("scipy", "numpy.polynomial")) -> list[str]:
    """The modules of the packages in ``deny`` that a fresh interpreter has
    loaded once it has imported the CLI and run each of ``commands``."""
    script = (
        "import json, sys\n"
        "from competing_weibull.cli import main\n"
        f"for argv in {list(commands)!r}:\n"
        "    assert main(argv.split()) == 0, argv\n"
        f"deny = {list(deny)!r}\n"
        "print(json.dumps(sorted(m for m in sys.modules if any(\n"
        "    m == d or m.startswith(d + '.') for d in deny))))\n"
    )
    return json.loads(run_python(script, cwd=cwd))


class TestImportCost:
    # The runtime needs numpy alone: scipy is only a test oracle, and
    # importing it would cost about half a second and 45 MB.  Only the
    # expected time needs numpy.polynomial (nine modules), for its
    # quadrature rule, so the CLI import, simulate and fit skip it.
    SIMULATE_AND_FIT = (
        "simulate --example 1 --censoring 0.1 --seed 3 --out data.csv",
        "fit --data data.csv --spec spec.json --lambda1 2 --lambda2 1 --out fit.json",
    )

    def test_cli_import_loads_neither_scipy_nor_numpy_polynomial(self, tmp_path):
        assert _denied_modules_after((), tmp_path) == []

    def test_simulate_and_fit_load_neither_scipy_nor_numpy_polynomial(self, tmp_path, spec_json_ex1):
        # simulate with censoring calibrates the rate by the in-package root
        # search.
        assert _denied_modules_after(self.SIMULATE_AND_FIT, tmp_path) == []

    def test_commands_do_not_load_scipy(self, tmp_path, spec_json_ex1):
        commands = self.SIMULATE_AND_FIT + (
            "predict --fit fit.json --data data.csv --at 0.5,1 --out pred.csv",
            "evaluate --fit fit.json --data data.csv --out report.json --rocdir rocs",
        )
        assert _denied_modules_after(commands, tmp_path, deny=("scipy",)) == []


_ODD_VALUES = [None, True, "x", [], {}, 2.5, -1, 0, 10**400]
_MUTATIONS = ["drop", "add", "replace", "truncate", "0xff"]


def _containers(node):
    """Every JSON object and list in ``node``, the root first."""
    if isinstance(node, (dict, list)):
        yield node
        for child in node.values() if isinstance(node, dict) else node:
            yield from _containers(child)


def _mutated_json(data, text: str, kind: str) -> bytes:
    """``text`` with one key or item dropped, added or replaced by an odd value.

    The document sits in a one-item list, so it can itself be dropped (an
    empty file), replaced, or followed by a second value (invalid JSON).
    """
    holder = [json.loads(text)]
    node = data.draw(st.sampled_from([n for n in _containers(holder) if n or kind == "add"]))
    odd = data.draw(st.sampled_from(_ODD_VALUES))
    if kind == "add":
        if isinstance(node, dict):
            node["extra"] = odd
        else:
            node.append(odd)
    else:
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        if kind == "drop":
            del node[key]
        else:
            node[key] = odd
    return "".join(map(json.dumps, holder)).encode()


def _mutated_csv(data, text: str, kind: str) -> bytes:
    """``text`` with a column (picked in the header) or one cell dropped,
    added or replaced by an odd value."""
    rows = list(csv.reader(io.StringIO(text)))
    i = data.draw(st.integers(0, len(rows) - 1))
    j = data.draw(st.integers(0, len(rows[i]) - 1))
    if kind == "drop":
        for row in rows if i == 0 else [rows[i]]:
            del row[j]
    elif kind == "add":
        for row in rows if i == 0 else [rows[i]]:
            row.append("extra" if row is rows[0] else "0")
    else:
        rows[i][j] = json.dumps(data.draw(st.sampled_from(_ODD_VALUES))).strip('"')
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue().encode()


@pytest.fixture(scope="module")
def contract_inputs(tmp_path_factory):
    """A valid scenario, data CSV, model spec and fit, all small."""
    tmp = tmp_path_factory.mktemp("contract")
    groups = [
        {"indices": [0], "alpha": 0.5, "beta": [1.0], "sigma": 1.0},
        {"indices": [1], "alpha": 0.8, "beta": [-0.5], "sigma": 0.7},
    ]
    scenario = {"format_version": 1, "groups": groups, "n": 40, "p": 2, "target_censoring": 0.2, "seed": 1}
    (tmp / "scenario.json").write_text(canonical_json(scenario))
    (tmp / "spec.json").write_text(json.dumps({"groups": [{"covariates": ["x1"]}, {"covariates": ["x2"]}]}))
    assert run("simulate", "--scenario", tmp / "scenario.json", "--out", tmp / "data.csv") == 0
    fit_argv = ("fit", "--data", tmp / "data.csv", "--spec", tmp / "spec.json", "--max-iters", 5)
    assert run(*fit_argv, "--out", tmp / "fit.json") == 0
    return tmp


class TestInputContract:
    @settings(max_examples=500)
    @given(
        target=st.sampled_from(["scenario.json", "spec.json", "fit.json", "data.csv"]),
        kind=st.sampled_from(_MUTATIONS),
        command=st.sampled_from(["fit", "predict", "evaluate"]),
        data=st.data(),
    )
    def test_mutated_inputs_keep_the_exit_code_contract(
        self, contract_inputs, tmp_path_factory, target, kind, command, data
    ):
        # Every malformed input exits 0, 2, 3 or 4, never with a traceback,
        # and a failed command leaves no output behind.
        valid = contract_inputs
        text = (valid / target).read_text()
        raw = text.encode()
        if kind == "truncate":
            raw = raw[: data.draw(st.integers(0, len(raw) - 1))]
        elif kind == "0xff":
            at = data.draw(st.integers(0, len(raw)))
            raw = raw[:at] + b"\xff" + raw[at:]
        elif target == "data.csv":
            raw = _mutated_csv(data, text, kind)
        else:
            raw = _mutated_json(data, text, kind)
        work = tmp_path_factory.mktemp("mutant")
        mutant = work / target
        mutant.write_bytes(raw)
        out = work / "out"
        out.mkdir()
        inputs = {name: valid / name for name in ("scenario.json", "spec.json", "fit.json", "data.csv")}
        inputs[target] = mutant
        if target == "scenario.json":
            argv = ("simulate", "--scenario", inputs[target], "--out", out / "data.csv")
        elif command == "fit" or target == "spec.json":
            argv = ("fit", "--data", inputs["data.csv"], "--spec", inputs["spec.json"], "--max-iters", 5)
            if target == "fit.json":
                argv += ("--init", inputs["fit.json"])
            argv += ("--out", out / "fit.json")
        elif command == "predict":
            argv = ("predict", "--fit", inputs["fit.json"], "--data", inputs["data.csv"], "--at", 1)
            argv += ("--out", out / "pred.csv")
        else:
            argv = ("evaluate", "--fit", inputs["fit.json"], "--data", inputs["data.csv"])
            argv += ("--out", out / "report.json")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(*argv)
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err.getvalue()
        assert code == 0 or not os.listdir(out)
