"""Spans around dtrkit's public functions, recorded from outside the program.

``Tracer.install()`` replaces each traced function at the name its caller
looks it up by (``qlearn.wls_fit``, ``alearn.logistic_fit``, the
``generate`` held in the scenario registry, ...) with a wrapper that records
one span ``(name, start, end, parent)``; ``uninstall()`` puts the originals
back.  Spans are kept in memory.  Only the process that installed the tracer
records: pool workers forked from it run the wrappers but keep nothing.

``layer_metrics`` turns one round's spans into the per-layer metrics: call
counts, and self time (span duration minus the time covered by its child
spans) summed per layer.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import time

from dtrkit import alearn, calibrate, cli, data, evaluate, qlearn, rng, scenarios
from dtrkit.errors import NonConvergenceError, SingularSystemError

_FIT_ERRORS = (SingularSystemError, NonConvergenceError)

# (owner, attribute, span name).  The owner is the module or class whose
# attribute the caller reads at call time.
TARGETS = (
    (cli, "main", "cli.main"),
    (cli, "run_mc_study", "evaluate.run_mc_study"),
    (evaluate, "qlearn_fit", "qlearn.qlearn_fit"),
    (evaluate, "alearn_fit", "alearn.alearn_fit"),
    (evaluate, "regime_value_analytic", "evaluate.regime_value_analytic"),
    (evaluate, "value_gcomputation", "evaluate.value_gcomputation"),
    (qlearn, "build_design", "data.build_design"),
    (qlearn, "wls_fit", "numerics.wls_fit"),
    (alearn, "build_design", "data.build_design"),
    (alearn, "propensity_eval", "alearn.propensity_eval"),
    (alearn, "logistic_fit", "numerics.logistic_fit"),
    (alearn, "alearn_stage_solve", "alearn.alearn_stage_solve"),
    (alearn, "solve_linear", "numerics.solve_linear"),
    (calibrate, "calibrate_equiv_misspec", "calibrate.calibrate_equiv_misspec"),
    (calibrate, "check_tstat_balance", "calibrate.check_tstat_balance"),
    (calibrate, "wls_fit", "numerics.wls_fit"),
    (calibrate, "logistic_fit", "numerics.logistic_fit"),
    (data.FeatureMap, "evaluate", "data.FeatureMap.evaluate"),
    (data.Dataset, "__init__", "data.Dataset.__init__"),
    (rng.RngStream, "__init__", "rng.RngStream.__init__"),
)
GENERATE = "scenarios.generate"

# Per-layer metric -> (span name, "calls" | "self").
SPAN_METRICS = {
    "rng.streams_built": ("rng.RngStream.__init__", "calls"),
    "rng.stream_setup_s": ("rng.RngStream.__init__", "self"),
    "scenarios.generate_calls": (GENERATE, "calls"),
    "scenarios.generate_self_s": (GENERATE, "self"),
    "data.build_design_calls": ("data.build_design", "calls"),
    "data.build_design_s": ("data.build_design", "self"),
    "data.feature_eval_s": ("data.FeatureMap.evaluate", "self"),
    "data.dataset_init_s": ("data.Dataset.__init__", "self"),
    "numerics.logistic_fit_calls": ("numerics.logistic_fit", "calls"),
    "numerics.logistic_fit_s": ("numerics.logistic_fit", "self"),
    "numerics.wls_fit_calls": ("numerics.wls_fit", "calls"),
    "numerics.wls_fit_s": ("numerics.wls_fit", "self"),
    "numerics.solve_linear_calls": ("numerics.solve_linear", "calls"),
    "numerics.solve_linear_s": ("numerics.solve_linear", "self"),
    "qlearn.fit_calls": ("qlearn.qlearn_fit", "calls"),
    "qlearn.fit_self_s": ("qlearn.qlearn_fit", "self"),
    "alearn.fit_calls": ("alearn.alearn_fit", "calls"),
    "alearn.fit_self_s": ("alearn.alearn_fit", "self"),
    "alearn.propensity_eval_s": ("alearn.propensity_eval", "self"),
    "alearn.stage_solve_s": ("alearn.alearn_stage_solve", "self"),
    "evaluate.value_analytic_calls": ("evaluate.regime_value_analytic", "calls"),
    "evaluate.value_analytic_s": ("evaluate.regime_value_analytic", "self"),
    "evaluate.gcomp_calls": ("evaluate.value_gcomputation", "calls"),
    "evaluate.gcomp_s": ("evaluate.value_gcomputation", "self"),
    "evaluate.study_self_s": ("evaluate.run_mc_study", "self"),
    "calibrate.grid_self_s": ("calibrate.calibrate_equiv_misspec", "self"),
    "calibrate.check_self_s": ("calibrate.check_tstat_balance", "self"),
    "cli.self_s": ("cli.main", "self"),
}
# Metrics that count something other than calls or self time.
COUNTER_METRICS = ("numerics.irls_iterations", "numerics.fit_errors")
# Every per-layer metric with its unit, in report order.
UNITS = {
    **{name: "count" if kind == "calls" else "s" for name, (_, kind) in SPAN_METRICS.items()},
    **dict.fromkeys(COUNTER_METRICS, "count"),
    "evaluate.gcomp_draws_per_s": "1/s",
    "evaluate.pool_s": "s",
}


class Tracer:
    def __init__(self):
        self.pid = os.getpid()
        self.spans = []  # [name, start, end, parent index]
        self.counters = {"numerics.irls_iterations": 0, "numerics.fit_errors": 0,
                         "evaluate.gcomp_draws": 0}
        self._stack = []
        self._saved = []

    def reset(self):
        self.spans = []
        self.counters = dict.fromkeys(self.counters, 0)

    def wrap(self, name, func):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return func(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            span = [name, time.perf_counter(), 0.0, parent]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = func(*args, **kwargs)
            except _FIT_ERRORS:
                if name.startswith("numerics."):
                    tracer.counters["numerics.fit_errors"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if name == "numerics.logistic_fit":
                tracer.counters["numerics.irls_iterations"] += result.iterations
            elif name == "evaluate.value_gcomputation":
                tracer.counters["evaluate.gcomp_draws"] += args[2]
            return result

        return traced

    def install(self):
        for owner, attr, name in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))
        registry = scenarios._REGISTRY
        for key, definition in list(registry.items()):
            self._saved.append((registry, key, definition))
            registry[key] = dataclasses.replace(
                definition, generate=self.wrap(GENERATE, definition.generate)
            )

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def write(self, path, round_index):
        """Append the spans to a CSV file; ``parent`` indexes the round's
        spans, -1 for none."""
        new = not path.exists()
        with open(path, "a") as fh:
            if new:
                fh.write("round,name,start,end,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{round_index},{name},{start!r},{end!r},{parent}\n")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of the spans recorded since the last reset."""
    calls, self_s = {}, {}
    child_time = [0.0] * len(tracer.spans)
    for name, start, end, parent in tracer.spans:
        if parent >= 0:
            child_time[parent] += end - start
    for (name, start, end, _), covered in zip(tracer.spans, child_time):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - covered
    out = {}
    for metric, (span, kind) in SPAN_METRICS.items():
        out[metric] = calls.get(span, 0) if kind == "calls" else self_s.get(span, 0.0)
    for metric in COUNTER_METRICS:
        out[metric] = tracer.counters[metric]
    gcomp_s = out["evaluate.gcomp_s"]
    out["evaluate.gcomp_draws_per_s"] = (
        tracer.counters["evaluate.gcomp_draws"] / gcomp_s if gcomp_s > 0.0 else 0.0
    )
    return out


def pool_seconds(tracer: Tracer) -> float:
    """Wall time of the run_mc_study spans since the last reset."""
    return sum(end - start for name, start, end, _ in tracer.spans
               if name == "evaluate.run_mc_study")
