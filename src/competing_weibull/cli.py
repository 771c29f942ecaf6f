"""Command-line interface: simulate, fit, predict, evaluate.

Exit codes: 0 success, 2 configuration or validation error, 3 I/O failure,
4 numeric failure.  Diagnostic messages go to standard error; the
``COMPETING_WEIBULL_LOG`` environment variable sets the log level
(debug/info/warning/error/critical, in any case; anything else means
warning).  No command mutates its inputs, and every output file
is written atomically.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from . import io as formats
from .errors import (
    CompetingWeibullError,
    ConfigError,
    DomainError,
    MetricError,
    NumericError,
    SpecError,
)
from .estimation import FitConfig, PenaltyConfig, fit_em
from .metrics import _horizon_sweep, concordance_index, default_time_grid, risk_markers
from .model import _expected_times, _survival_and_winning
from .simulation import builtin_scenario, generate

log = logging.getLogger("competing_weibull")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


_LOG_LEVELS = ("debug", "info", "warning", "error", "critical")


def _setup_logging():
    """Log at the level ``COMPETING_WEIBULL_LOG`` names, in any case; any
    other value, an empty one included, means warning."""
    level = os.environ.get("COMPETING_WEIBULL_LOG", "").lower()
    logging.basicConfig(
        level=level.upper() if level in _LOG_LEVELS else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


def _json_input(parse, path: str, *args):
    """``parse`` applied to the JSON document at ``path``; a ConfigError it
    raises is prefixed with the path."""
    document = formats.read_json(path)
    try:
        return parse(document, *args)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _parse_horizons(raw: str) -> list[float]:
    """The times of ``--at``/``--horizons``.  Each one's ``:g`` label names
    an output column, report key or ROC file, so two times with one label
    (exact duplicates included) are an error."""
    parts = [part.strip() for part in raw.split(",") if part.strip()]
    try:
        values = [float(part) for part in parts]
    except ValueError:
        raise ConfigError(f"invalid time list {raw!r}") from None
    if not values or any(v <= 0 for v in values):
        raise ConfigError("times must be a comma-separated list of positive reals")
    part_with_label: dict[str, str] = {}
    for part, value in zip(parts, values):
        label = f"{value:g}"
        if label in part_with_label:
            raise ConfigError(f"times {part_with_label[label]} and {part} share the label {label}")
        part_with_label[label] = part
    return values


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    if (args.scenario is None) == (args.example is None):
        raise ConfigError("provide exactly one of --scenario or --example")
    if args.scenario is not None:
        scenario = _json_input(formats.scenario_from_json, args.scenario)
        if args.seed is not None:
            scenario = scenario.with_seed(args.seed)
    else:
        if args.censoring is None:
            raise ConfigError("--example requires --censoring")
        scenario = builtin_scenario(
            args.example, args.censoring, seed=args.seed if args.seed is not None else 0
        )

    sim = generate(scenario)
    formats.write_dataset_csv(args.out, sim.data)

    truth_path = args.truth or _sidecar(args.out, ".truth.json")
    truth = formats.scenario_to_json(scenario)
    truth["latent_causes"] = sim.latent_causes.tolist()
    truth["true_event_times"] = sim.true_event_times.tolist()
    truth["realized_censoring_rate"] = sim.realized_censoring_rate
    formats.atomic_write_text(truth_path, formats.canonical_json(truth))
    log.info(
        "wrote %s (n=%d, realized censoring %.3f) and %s",
        args.out,
        sim.data.n,
        sim.realized_censoring_rate,
        truth_path,
    )
    return EXIT_OK


def _sidecar(path: str, suffix: str) -> str:
    root, _ = os.path.splitext(path)
    return root + suffix


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def cmd_fit(args) -> int:
    data, names = formats.read_dataset_csv(args.data)
    spec = _json_input(formats.model_spec_from_json, args.spec, names)
    penalty = PenaltyConfig(lambda1=args.lambda1, lambda2=args.lambda2)
    config = FitConfig(
        epsilon=args.epsilon,
        max_em_iters=args.max_iters,
        sigma_floor=args.sigma_floor,
        n_starts=args.starts,
        seed=args.seed,
    )
    theta_init = None
    if args.init is not None:
        init_spec, theta_init, init_names = _json_input(formats.fit_from_json, args.init)
        if init_names != names or init_spec != spec:
            raise ConfigError("--init fit does not match the requested spec/data")

    result = fit_em(spec, data, penalty, config, theta_init=theta_init)
    payload = formats.fit_to_json(spec, result, names, penalty)
    formats.atomic_write_text(args.out, formats.canonical_json(payload))

    eta_path = args.eta or _sidecar(args.out, ".eta.csv")
    header = [f"eta{l + 1}" for l in range(spec.n_groups)] + ["censored"]
    formats.write_csv(eta_path, header, [*result.winning_probs.T, result.censored_rows])

    if not result.converged:
        log.warning("EM did not converge within %d EM maps and Newton steps", result.n_iters)
    log.info("wrote %s and %s (loglik %.6f)", args.out, eta_path, result.final_loglik)
    return EXIT_OK


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------


def _fit_and_data(args):
    """The ``--fit`` model and the ``--data`` set, whose columns must match."""
    spec, theta, names = _json_input(formats.fit_from_json, args.fit)
    data, data_names = formats.read_dataset_csv(args.data)
    if data_names != names:
        raise ConfigError(f"data columns {data_names} do not match the fit's {names}")
    return spec, theta, data


def cmd_predict(args) -> int:
    spec, theta, data = _fit_and_data(args)
    horizons = _parse_horizons(args.at) if args.at else []

    header = ["expected_time"]
    for t in horizons:
        header.append(f"s_at_{t:g}")
    for t in horizons:
        header.extend(f"eta{l + 1}_at_{t:g}" for l in range(spec.n_groups))
    at_horizons = [_survival_and_winning(theta, spec, data.covariates, t) for t in horizons]
    columns = [
        _expected_times(theta, spec, data.covariates)[0],
        *(s for s, _ in at_horizons),
        *(column for _, eta in at_horizons for column in eta.T),
    ]
    formats.write_csv(args.out, header, columns)
    log.info("wrote %s (%d subjects, %d horizons)", args.out, data.n, len(horizons))
    return EXIT_OK


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def cmd_evaluate(args) -> int:
    spec, theta, data = _fit_and_data(args)
    if args.horizons:
        horizons = _parse_horizons(args.horizons)
    else:
        # Keep the first grid time for each ``:g`` label.
        by_label: dict[str, float] = {}
        for t in default_time_grid(data.times, data.status).tolist():
            by_label.setdefault(f"{t:g}", t)
        horizons = list(by_label.values())

    markers_by_horizon = {
        t: risk_markers(theta, spec, data.covariates, mode="one_minus_survival", horizon=t)
        for t in horizons
    }
    if args.marker == "one_minus_survival":
        # The concordance marker is the failure probability by the middle
        # evaluation horizon.
        risk = markers_by_horizon[sorted(horizons)[len(horizons) // 2]]
    else:
        risk = risk_markers(theta, spec, data.covariates, mode=args.marker)
    c_index = concordance_index(risk, data.times, data.status)
    curves, skipped_at, iauc = _horizon_sweep(markers_by_horizon, data.times, data.status)
    for t, reason in skipped_at.items():
        log.warning("skipping horizon %g: %s", t, reason)
    if not curves:
        raise MetricError("every requested horizon was degenerate")
    auc_by_horizon = {f"{t:g}": curve.auc for t, curve in curves.items()}
    skipped = {f"{t:g}": reason for t, reason in skipped_at.items()}
    if iauc is None:
        skipped["iauc"] = "needs at least two valid horizons"
        log.warning("iAUC skipped: only %d valid horizon(s)", len(curves))

    if args.rocdir:
        os.makedirs(args.rocdir, exist_ok=True)
        for t, curve in curves.items():
            roc = {"auc": curve.auc, "fpr": curve.fpr.tolist(), "horizon": t, "tpr": curve.tpr.tolist()}
            formats.atomic_write_text(
                os.path.join(args.rocdir, f"roc_{t:g}.json"), formats.canonical_json(roc)
            )

    report = {
        "format_version": formats.FORMAT_VERSION,
        "marker": args.marker,
        "c_index": c_index,
        "iauc": iauc,
        "auc_by_horizon": auc_by_horizon,
        "skipped_horizons": skipped,
    }
    formats.atomic_write_text(args.out, formats.canonical_json(report))
    if iauc is None:
        log.info("wrote %s (c-index %.4f)", args.out, c_index)
    else:
        log.info("wrote %s (c-index %.4f, iAUC %.4f)", args.out, c_index, iauc)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="competing-weibull",
        description="Competing (min-linear) Weibull survival modelling toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic censored dataset")
    sim.add_argument("--scenario", help="scenario JSON path")
    sim.add_argument("--example", type=int, choices=(1, 2, 3), help="built-in example id")
    sim.add_argument("--censoring", type=float, help="target censoring rate for --example")
    sim.add_argument("--seed", type=int, default=None, help="RNG seed (overrides scenario)")
    sim.add_argument("--out", required=True, help="output data CSV")
    sim.add_argument("--truth", help="sidecar truth JSON path (default: <out>.truth.json)")
    sim.set_defaults(func=cmd_simulate)

    fit = sub.add_parser("fit", help="fit a competing Weibull model by EM")
    fit.add_argument("--data", required=True, help="input data CSV")
    fit.add_argument("--spec", required=True, help="model spec JSON (covariate-name groups)")
    fit.add_argument("--lambda1", type=float, default=0.0, help="intercept penalty weight")
    fit.add_argument("--lambda2", type=float, default=0.0, help="coefficient lasso weight")
    fit.add_argument("--epsilon", type=float, default=1e-6, help="stopping tolerance on the move of one EM map or Newton step")
    fit.add_argument("--max-iters", type=int, default=2000, help="budget of EM maps and Newton steps together")
    fit.add_argument("--sigma-floor", type=float, default=0.01, help="lower bound on sigma")
    fit.add_argument("--starts", type=int, default=1, help="number of multi-start runs")
    fit.add_argument("--seed", type=int, default=0, help="seed for multi-start jitter")
    fit.add_argument("--init", help="warm-start from a previous fit JSON")
    fit.add_argument("--out", required=True, help="output fit JSON")
    fit.add_argument("--eta", help="winning-probability CSV path (default: <out>.eta.csv)")
    fit.set_defaults(func=cmd_fit)

    pred = sub.add_parser("predict", help="expected times, survival, winning probabilities")
    pred.add_argument("--fit", required=True, help="fit JSON from the fit command")
    pred.add_argument("--data", required=True, help="covariate CSV (same columns as fit)")
    pred.add_argument("--at", help="comma-separated positive times for S(t) and eta(t)")
    pred.add_argument("--out", required=True, help="output prediction CSV")
    pred.set_defaults(func=cmd_predict)

    ev = sub.add_parser("evaluate", help="concordance, time-dependent ROC, iAUC")
    ev.add_argument("--fit", required=True, help="fit JSON")
    ev.add_argument("--data", required=True, help="evaluation data CSV")
    ev.add_argument("--horizons", help="comma-separated ROC horizons (default: event deciles)")
    ev.add_argument(
        "--marker",
        choices=("neg_expected_time", "one_minus_survival"),
        default="neg_expected_time",
        help="risk marker for the concordance index",
    )
    ev.add_argument("--out", required=True, help="output report JSON")
    ev.add_argument("--rocdir", help="directory for per-horizon ROC JSON files")
    ev.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, SpecError, DomainError, MetricError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NumericError, CompetingWeibullError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
