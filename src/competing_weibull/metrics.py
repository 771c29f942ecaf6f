"""Survival predictive-performance metrics.

Kaplan-Meier estimation, Harrell / IPCW concordance, cumulative/dynamic
time-dependent ROC curves with inverse-probability-of-censoring weights, an
event-density-weighted integrated AUC, and model-based risk markers.

Concordance and ROC never enumerate pairs or cuts.  Concordance counts, for
each event, the later subjects ranked below and tied with it, from dense
ranks and binary searches (O(n log^2 n) time, O(n) memory); Harrell's C is
a ratio of exact integer counts.  A ROC curve is one sort by descending
marker plus cumulative weight sums read at the end of each tied-marker
block (O(n log n) time, O(n) memory).  One function checks every (times,
status) pair; a bad pair, or a score that is not finite, raises SpecError.

One horizon sweep serves ``integrated_auc`` and ``evaluate``; its iAUC
needs two valid horizons.  The IPCW weights 1 / G(t-) need no floor: the
censoring Kaplan-Meier G is 0 only after the largest time, when everyone
at risk there is censored, so G(t-) > 0 at every observed time.
"""

from __future__ import annotations

import warnings as _warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import MetricError, SpecError
from .model import ModelSpec, Theta, _expected_times, _survival_and_winning

__all__ = [
    "StepSurvival",
    "RocCurve",
    "kaplan_meier",
    "concordance_index",
    "time_dependent_roc",
    "integrated_auc",
    "default_time_grid",
    "risk_marker",
    "risk_markers",
]

_GRID_POINTS = 9  # quantile levels of the default iAUC grid


@dataclass(frozen=True, eq=False)
class StepSurvival:
    """Right-continuous step survival function.

    ``values[k]`` is the survival just after ``jump_times[k]``; the function
    is 1 before the first jump.
    """

    jump_times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        jt = np.asarray(self.jump_times, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if jt.shape != vals.shape or jt.ndim != 1:
            raise SpecError("jump_times and values must be equal-length vectors")
        # Each test is written so that a NaN fails it.
        if not (np.all(np.diff(jt) > 0) and np.all((jt > 0) & (jt < np.inf))):
            raise SpecError("jump_times must be positive, finite and strictly increasing")
        in_range = not vals.size or (vals[0] <= 1.0 and vals[-1] >= 0.0)
        if not (np.all(np.diff(vals) <= 1e-15) and in_range):
            raise SpecError("values must be non-increasing within [0, 1]")
        object.__setattr__(self, "jump_times", jt)
        object.__setattr__(self, "values", vals)

    def evaluate(self, t) -> np.ndarray:
        """S(t), right-continuous."""
        idx = np.searchsorted(self.jump_times, np.asarray(t, dtype=float), side="right")
        padded = np.concatenate([[1.0], self.values])
        return padded[idx]

    def left_limit(self, t) -> np.ndarray:
        """S(t-), the value just before t."""
        idx = np.searchsorted(self.jump_times, np.asarray(t, dtype=float), side="left")
        padded = np.concatenate([[1.0], self.values])
        return padded[idx]


@dataclass(frozen=True, eq=False)
class RocCurve:
    """Time-dependent ROC curve at one horizon."""

    horizon: float
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float

    def __post_init__(self):
        fpr = np.asarray(self.fpr, dtype=float)
        tpr = np.asarray(self.tpr, dtype=float)
        if fpr.shape != tpr.shape:
            raise SpecError("fpr and tpr must have equal length")
        if not (np.all(np.isfinite(fpr)) and np.all(np.isfinite(tpr)) and np.isfinite(self.auc)):
            raise SpecError("fpr, tpr and auc must be finite")
        if np.any(np.diff(fpr) < -1e-12) or np.any(np.diff(tpr) < -1e-12):
            raise SpecError("ROC sweep must be monotone")
        area = float(np.trapezoid(tpr, fpr))
        if abs(area - self.auc) > 1e-10:
            raise SpecError("auc does not match the trapezoid area of the curve")
        object.__setattr__(self, "fpr", fpr)
        object.__setattr__(self, "tpr", tpr)


def kaplan_meier(times, status) -> StepSurvival:
    """Product-limit estimator.

    At a tied time all events are processed before censorings, i.e. subjects
    censored at t still count as at risk for events at t.  Raises
    :class:`SpecError` when a time is not finite or a status is not 0 or 1.
    """
    times, event = _times_and_events(times, status)
    order = np.argsort(times, kind="stable")
    t_sorted = times[order]
    d_sorted = event[order].astype(int)
    uniq, start = np.unique(t_sorted, return_index=True)
    n = times.size
    at_risk = n - start
    events = np.add.reduceat(d_sorted, start)
    keep = events > 0
    if not np.any(keep):
        return StepSurvival(np.empty(0), np.empty(0))
    factors = 1.0 - events[keep] / at_risk[keep]
    return StepSurvival(uniq[keep], np.cumprod(factors))


def _times_and_events(times, status):
    """Float times and event mask of a (times, status) pair of equal-length
    nonempty vectors, finite times (a NaN has no place in an ordering) and
    statuses 0 or 1 (any other is neither event nor censoring)."""
    times, status = np.asarray(times, dtype=float), np.asarray(status)
    if times.ndim != 1 or not times.size or status.shape != times.shape:
        raise SpecError("times and status must be equal-length nonempty vectors")
    if not np.all(np.isfinite(times)):
        raise SpecError("every time must be finite")
    if not np.all((status == 0) | (status == 1)):
        raise SpecError("every status must be 0 or 1")
    return times, status == 1


def _survival_inputs(scores, times, status, what: str):
    """Validated (scores, times, event) vectors for a concordance or ROC call:
    one finite score per time of a pair that :func:`_times_and_events` takes."""
    times, event = _times_and_events(times, status)
    scores = np.asarray(scores, dtype=float)
    if scores.shape != times.shape:
        raise SpecError(f"{what}, times, and status must be equal-length nonempty vectors")
    if not np.all(np.isfinite(scores)):
        raise SpecError(f"every {what} must be finite")
    return scores, times, event


def _later_pair_counts(risk: np.ndarray, times: np.ndarray, rows: np.ndarray):
    """Pair counts against the subjects observed strictly later than each row.

    For every index i in ``rows`` returns ``later_i = #{j: t_j > t_i}``,
    ``below_i = #{j: t_j > t_i, r_j < r_i}`` and
    ``tied_i = #{j: t_j > t_i, r_j = r_i}`` as integer arrays, in
    O(n log^2 n) time and O(n) memory.  With dense ranks, the risk values
    below r_i split into at most one dyadic block per set bit of r_i's rank;
    at each bit level one sorted array of keys (rank prefix, time rank) gives
    every row's count in its block by two binary searches.
    """
    _, t_rank = np.unique(times, return_inverse=True)
    _, r_rank = np.unique(risk, return_inverse=True)
    n_times = times.size  # exceeds every time rank
    q_time, q_risk = t_rank[rows], r_rank[rows]
    later = times.size - np.cumsum(np.bincount(t_rank))[q_time]

    def later_with_prefix(keys, prefix, time):
        # per row: #{j: key prefix of j == prefix, time rank of j > time}
        base = prefix * n_times
        return np.searchsorted(keys, base + n_times) - np.searchsorted(
            keys, base + time, side="right"
        )

    tied = later_with_prefix(np.sort(r_rank * n_times + t_rank), q_risk, q_time)
    below = np.zeros(rows.size, dtype=np.int64)
    shift = 0
    while np.any(q_risk >> shift):
        prefix = q_risk >> shift
        odd = (prefix & 1) == 1
        keys = np.sort((r_rank >> shift) * n_times + t_rank)
        below[odd] += later_with_prefix(keys, prefix[odd] - 1, q_time[odd])
        shift += 1
    return later, below, tied


def concordance_index(risk, times, status, method: str = "harrell") -> float:
    """Concordance between risk scores and observed survival ordering.

    Higher risk must mean an earlier predicted event.  A pair is comparable
    when the earlier subject's event was observed and its time is strictly
    smaller; concordant pairs have the earlier subject riskier, and risk ties
    count one half.  ``method="ipcw"`` weights each comparable pair by the
    inverse squared censoring survival at the earlier time (Uno-style);
    with no censoring the two methods coincide.  Returns 0.5 (with a warning)
    when no pair is comparable.

    The pairs are counted, not enumerated: O(n log^2 n) time and O(n)
    memory.  Harrell's C is a ratio of exact integer counts, so it equals
    the pairwise enumeration bit for bit.  Raises :class:`SpecError` when a
    risk or time is not finite or a status is not 0 or 1.
    """
    risk, times, event = _survival_inputs(risk, times, status, "risk")
    if method not in ("harrell", "ipcw"):
        raise SpecError(f"unknown concordance method {method!r}")

    rows = np.flatnonzero(event)
    later, below, tied = _later_pair_counts(risk, times, rows)
    if method == "ipcw":
        weight = 1.0 / kaplan_meier(times, ~event).left_limit(times[rows]) ** 2
        total = float(np.sum(weight * later))
        concordant = float(np.sum(weight * (below + 0.5 * tied)))
    else:
        total = float(np.sum(later))
        concordant = float(np.sum(2 * below + tied)) / 2.0
    if total == 0.0:
        _warnings.warn("no comparable pairs; returning 0.5", stacklevel=2)
        return 0.5
    return concordant / total


def time_dependent_roc(marker, times, status, horizon: float) -> RocCurve:
    """Cumulative/dynamic ROC at ``horizon`` with IPCW case weights.

    Cases are subjects with an observed event by the horizon; controls are
    subjects still at risk beyond it.  Subjects censored before the horizon
    carry no weight; the remaining case weights are inverse censoring
    survival at the event time, control weights inverse censoring survival at
    the horizon.  The sweep runs over the unique marker values, classifying
    ``marker >= cut`` as predicted positive, so tied markers trace diagonal
    segments and the trapezoid area equals the tie-corrected
    Mann-Whitney statistic.

    One sort by descending marker and cumulative weight sums read at the end
    of each tied-marker block give every point: O(n log n) time, O(n)
    memory.  The curve starts at the origin and ends exactly at (1, 1);
    true and false positive rates agree with a per-cut masked sum to about
    1e-14.  Raises :class:`SpecError` when a marker or time is not finite
    or a status is not 0 or 1.
    """
    marker, times, event = _survival_inputs(marker, times, status, "marker")
    horizon = float(horizon)
    if not (times.min() <= horizon <= times.max()):
        raise MetricError(
            f"horizon {horizon} lies outside the observed time range "
            f"[{times.min():g}, {times.max():g}]"
        )
    case = (times <= horizon) & event
    control = times > horizon
    if not case.any() or not control.any():
        raise MetricError(
            f"degenerate horizon {horizon}: "
            f"{int(case.sum())} cases, {int(control.sum())} controls"
        )

    w_case = np.where(case, 1.0 / kaplan_meier(times, ~event).left_limit(times), 0.0)

    # Every control carries the same weight, so the false positive rate is a
    # ratio of counts.
    order = np.argsort(-marker, kind="stable")
    sorted_marker = marker[order]
    block_end = np.flatnonzero(np.append(sorted_marker[1:] != sorted_marker[:-1], True))
    case_sum = np.cumsum(w_case[order])[block_end]
    control_count = np.cumsum(control[order])[block_end]
    tpr = np.concatenate([[0.0], case_sum / case_sum[-1]])
    fpr = np.concatenate([[0.0], control_count / control_count[-1]])
    return RocCurve(horizon=horizon, fpr=fpr, tpr=tpr, auc=float(np.trapezoid(tpr, fpr)))


def default_time_grid(times, status) -> np.ndarray:
    """The distinct deciles 0.1, 0.2, ..., 0.9 of the observed event times.

    A time that is not finite or a status other than 0 or 1 raises
    :class:`SpecError`.
    """
    times, event = _times_and_events(times, status)
    event_times = times[event]
    if event_times.size < 2:
        raise MetricError("need at least two event times to build a grid")
    return np.unique(np.quantile(event_times, np.linspace(0.1, 0.9, _GRID_POINTS)))


def integrated_auc(
    marker_at: Callable[[float], np.ndarray],
    times,
    status,
    grid: Sequence[float] | None = None,
) -> float:
    """Event-density-weighted average of AUC(t) over a time grid.

    ``marker_at(t)`` must return the per-subject risk markers used at
    horizon t.  The grid defaults to :func:`default_time_grid`.  Degenerate
    horizons are skipped with one warning each, and the weights are those
    of :func:`_horizon_sweep`.  Fewer than two valid horizons leave no
    iAUC and raise :class:`MetricError`, as ``evaluate`` reports a null
    ``iauc``.  A time or grid point that is not finite, or a status other
    than 0 or 1, raises :class:`SpecError`.
    """
    times, event = _times_and_events(times, status)
    grid_arr = default_time_grid(times, event) if grid is None else np.asarray(grid, dtype=float)
    if grid_arr.size < 2:
        raise MetricError("the iAUC grid needs at least two points")
    if not np.all(np.isfinite(grid_arr)) or np.any(np.diff(grid_arr) <= 0):
        raise SpecError("the iAUC grid must be finite and strictly increasing")

    markers = {t: marker_at(t) for t in grid_arr.tolist()}
    curves, skipped, iauc = _horizon_sweep(markers, times, event)
    for t, reason in skipped.items():
        _warnings.warn(f"skipping horizon {t:g}: {reason}", stacklevel=2)
    if iauc is None:
        raise MetricError(f"the iAUC needs two valid horizons, got {len(curves)} of {len(markers)}")
    return iauc


def _horizon_sweep(markers: dict[float, np.ndarray], times, status):
    """The :class:`RocCurve` of each valid horizon of ``markers`` (horizon ->
    per-subject markers) and the reason each degenerate one was skipped,
    both keyed by horizon in the given order, and the iAUC: the valid AUCs
    weighted by the Kaplan-Meier event-distribution increments between
    consecutive valid horizons, normalized to one (None for fewer than two).

    A case at t is a case at every later horizon and a control one at every
    earlier one, so the valid horizons are one run of the sorted ones, and
    the event distribution is 0 at a degenerate horizon before them.
    """
    curves, skipped = {}, {}
    for horizon, marker in markers.items():
        try:
            curves[horizon] = time_dependent_roc(marker, times, status, horizon)
        except MetricError as exc:
            skipped[horizon] = str(exc)
    if len(curves) < 2:
        return curves, skipped, None
    grid = sorted(curves)
    cdf = 1.0 - kaplan_meier(times, status).evaluate(grid)
    weights = np.diff(cdf, prepend=0.0)
    weights = weights / weights.sum()
    return curves, skipped, float(weights @ np.asarray([curves[t].auc for t in grid]))


def risk_marker(
    theta: Theta,
    spec: ModelSpec,
    x_row,
    mode: str = "neg_expected_time",
    horizon: float | None = None,
) -> float:
    """Scalar risk score from a fitted model; higher means riskier.

    ``neg_expected_time`` is minus the expected survival time;
    ``one_minus_survival`` is the failure probability by ``horizon``.
    """
    return float(risk_markers(theta, spec, [x_row], mode=mode, horizon=horizon)[0])


def risk_markers(
    theta: Theta,
    spec: ModelSpec,
    covariates,
    mode: str = "neg_expected_time",
    horizon: float | None = None,
) -> np.ndarray:
    """:func:`risk_marker` for every row of a covariate matrix, in one batch."""
    if mode == "neg_expected_time":
        return -_expected_times(theta, spec, covariates)[0]
    if mode == "one_minus_survival":
        if horizon is None:
            raise SpecError("mode 'one_minus_survival' needs a horizon")
        return 1.0 - _survival_and_winning(theta, spec, covariates, horizon)[0]
    raise SpecError(f"unknown risk marker mode {mode!r}")
