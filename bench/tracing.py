"""Span recorder for the traced benchmark pass.

Wrappers go on module attributes of the package: the public functions that
one module calls in another (see ``install``).  Each call records one span,
``[name, start, end, parent, op]``, where ``parent`` is the index of the
enclosing span (-1 for a root) and ``op`` the id of the benchmark op that
caused it.  Spans stay in memory; ``summarize`` aggregates them after the
pass, and ``uninstall`` puts the original functions back.

A name that the package no longer has is skipped, so it shows up as zero
calls and its time falls into the caller's self time.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# (module, attribute) pairs to wrap.  Span names are "<defining module>.<name>".
CLI_IMPORTS = (
    "fit_em",
    "concordance_index",
    "default_time_grid",
    "integrated_auc",
    "risk_markers",
    "time_dependent_roc",
    "expected_survival_time",
    "survival",
    "winning_probability",
    "builtin_scenario",
    "generate",
)
IO_FUNCTIONS = (
    "read_dataset_csv",
    "write_dataset_csv",
    "atomic_write_text",
    "canonical_json",
    "scenario_from_json",
    "scenario_to_json",
    "model_spec_from_json",
    "fit_to_json",
    "fit_from_json",
)
METRICS_GLOBALS = (
    "expected_survival_time",
    "survival",
    "risk_marker",
    "risk_markers",
    "kaplan_meier",
    "concordance_index",
    "time_dependent_roc",
    "integrated_auc",
    "default_time_grid",
)
ESTIMATION_GLOBALS = ("e_step", "initialize_theta", "standard_errors")


def _arg(args, kwargs, index, key, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[index] if len(args) > index else default


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op: int | None = None
        self.counters: dict[str, float] = defaultdict(float)
        self.roc_horizons: set[float] = set()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(index)
        return index

    def exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    # -- wrappers ----------------------------------------------------------

    def wrap(self, module, attr: str, name_fn=None, before=None, after=None) -> None:
        original = getattr(module, attr, None)
        if original is None:
            return
        layer = getattr(original, "__module__", module.__name__).rsplit(".", 1)[-1]
        span_name = f"{layer}.{attr}"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            index = self.enter(name_fn(args, kwargs) if name_fn else span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.exit(index)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self._saved.append((module, attr, original))

    def install(self) -> None:
        from competing_weibull import cli, estimation, metrics
        from competing_weibull import io as formats

        def concordance_name(args, kwargs):
            return "metrics.concordance_index." + _arg(args, kwargs, 3, "method", "harrell")

        def note_roc(tracer, args, kwargs):
            tracer.roc_horizons.add(float(_arg(args, kwargs, 3, "horizon")))

        def count_rows(tracer, args, kwargs, result):
            tracer.counters["io.rows_read"] += result[0].n

        def count_bytes(tracer, args, kwargs, result):
            tracer.counters["io.bytes_written"] += len(
                _arg(args, kwargs, 1, "text").encode("utf-8")
            )

        hooks = {
            "concordance_index": {"name_fn": concordance_name},
            "time_dependent_roc": {"before": note_roc},
            "read_dataset_csv": {"after": count_rows},
            "atomic_write_text": {"after": count_bytes},
        }
        for module, names in (
            (cli, CLI_IMPORTS),
            (formats, IO_FUNCTIONS),
            (metrics, METRICS_GLOBALS),
            (estimation, ESTIMATION_GLOBALS),
        ):
            for attr in names:
                self.wrap(module, attr, **hooks.get(attr, {}))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def summarize(spans: list[list]):
    """Per span name: call count, inclusive seconds and self seconds.

    Self time is a span's duration minus the durations of its direct
    children; spans are strictly nested, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    inclusive: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    for index, (name, start, end, parent, op) in enumerate(spans):
        calls[name] += 1
        inclusive[name] += end - start
        self_time[name] += end - start - child_time[index]
    return calls, inclusive, self_time, child_time
