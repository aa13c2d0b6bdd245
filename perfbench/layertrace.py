"""Outside-in layer trace of one `loopsim run`.

The trace replaces the module and class attributes through which loopsim
calls its layers with timing wrappers, so no file under src/ changes.
Every call becomes a span (sequence number, parent, name, start, end)
kept in memory; self times are computed after the pass. A span's layer is
the part of its name before the first dot.
"""

import itertools
import math
import time
from collections import defaultdict

from loopsim import cli, density, engine, harness

ROOT = "cli.main"


def _patch_points():
    """(owner, attribute, span name, result hook) for every traced call site."""
    dist = density.EmpiricalDistribution
    return [
        (harness, "execute", "harness.execute", None),
        (harness, "write_trace_csv", "harness.write_trace_csv", None),
        (harness, "write_steps_csv", "harness.write_steps_csv", None),
        (harness, "sha256_file", "harness.sha256_file", None),
        (harness, "generate_linear", "data.generate_linear", None),
        (harness, "run", "engine.run", None),
        (harness, "autonomy_fit", "diagnostics.autonomy_fit", None),
        (harness, "stddev_surface", "diagnostics.stddev_surface", _count_cells),
        (engine, "run", "engine.run", None),
        (engine, "init_state", "engine.init_state", None),
        (engine, "step", "engine.step", None),
        (engine, "fit_ridge", "regressors.fit_ridge", None),
        (engine, "fit_sgd", "regressors.fit_sgd", _count_epochs),
        (engine, "predict", "regressors.predict", None),
        (engine, "mse", "regressors.mse", None),
        (engine, "normality_test", "diagnostics.normality_test", None),
        (dist, "__init__", "density.sort", None),
        (dist, "density_at", "density.density_at", _count_spike),
        (dist, "interval_mass", "density.interval_mass", None),
        (dist, "raw_moment", "density.raw_moment", None),
        (dist, "moment_l1_sum", "density.moment_l1_sum", _count_ladder),
    ]


def _count_cells(counters, result):
    counters["diagnostics.surface_cells"] += len(result.p_grid) * len(result.s_grid)


def _count_epochs(counters, result):
    counters["regressors.fit_sgd.epochs"] += result.iterations_used


def _count_spike(counters, result):
    counters["density.spikes"] += result is density.SPIKE


def _count_ladder(counters, result):
    counters["density.moment_l1_sum.truncated"] += result.truncated_at is not None
    counters["density.moment_l1_sum.overflowed"] += not math.isfinite(result.value)


class LayerTrace:
    """Installs the wrappers, records spans, and turns them into metrics."""

    def __init__(self):
        self.spans = []  # (seq, parent seq, name, start, end)
        self.counters = defaultdict(int)
        self._stack = [0]
        self._next_seq = itertools.count(1).__next__
        self._saved = []

    def wrap(self, name, fn, hook=None):
        spans, stack, next_seq, counters = self.spans, self._stack, self._next_seq, self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            seq = next_seq()
            parent = stack[-1]
            stack.append(seq)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((seq, parent, name, start, end))
            if hook is not None:
                hook(counters, result)
            return result

        return traced

    def __enter__(self):
        for owner, attr, name, hook in _patch_points():
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, hook))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def main(self, argv) -> int:
        """cli.main under a root span; everything it does not pass to a
        wrapped layer is the root's self time, reported as unattributed."""
        return self.wrap(ROOT, cli.main)(argv)

    def metrics(self) -> dict:
        child_time = defaultdict(float)
        for _seq, parent, _name, start, end in self.spans:
            child_time[parent] += end - start
        calls = defaultdict(int)
        inclusive = defaultdict(float)
        self_time = defaultdict(float)
        for seq, _parent, name, start, end in self.spans:
            calls[name] += 1
            inclusive[name] += end - start
            self_time[name] += end - start - child_time[seq]
        layers = defaultdict(float)
        for name, value in self_time.items():
            if name != ROOT:
                layers[name.split(".", 1)[0]] += value
        out = {
            "density.moment_l1_sum.s": inclusive["density.moment_l1_sum"],
            "density.raw_moment.calls": calls["density.raw_moment"],
            "density.raw_moment.s": inclusive["density.raw_moment"],
            "density.density_at.s": inclusive["density.density_at"],
            "density.interval_mass.s": inclusive["density.interval_mass"],
            "density.sort_s": inclusive["density.sort"],
            "density.probes": calls["density.sort"],
            "diagnostics.normality_test.calls": calls["diagnostics.normality_test"],
            "diagnostics.normality_test.s": inclusive["diagnostics.normality_test"],
            "diagnostics.autonomy_fit.s": inclusive["diagnostics.autonomy_fit"],
            "diagnostics.stddev_surface.s": inclusive["diagnostics.stddev_surface"],
            "regressors.fit_sgd.calls": calls["regressors.fit_sgd"],
            "regressors.fit_sgd.s": inclusive["regressors.fit_sgd"],
            "regressors.fit_ridge.calls": calls["regressors.fit_ridge"],
            "regressors.fit_ridge.s": inclusive["regressors.fit_ridge"],
            "regressors.predict.calls": calls["regressors.predict"],
            "regressors.predict.s": inclusive["regressors.predict"],
            "regressors.mse.s": inclusive["regressors.mse"],
            "engine.step.calls": calls["engine.step"],
            "engine.step.self_s": self_time["engine.step"],
            "engine.init_state.s": inclusive["engine.init_state"],
            "engine.run.calls": calls["engine.run"],
            "engine.run.self_s": self_time["engine.run"],
            "harness.write_steps_csv.s": inclusive["harness.write_steps_csv"],
            "harness.write_trace_csv.s": inclusive["harness.write_trace_csv"],
            "harness.sha256_file.s": inclusive["harness.sha256_file"],
            "harness.execute.self_s": self_time["harness.execute"],
            "trace.wall_s": inclusive[ROOT],
            "trace.unattributed_s": self_time[ROOT],
            "trace.spans": len(self.spans),
        }
        for layer in ("data", "density", "diagnostics", "engine", "harness", "regressors"):
            out[f"layer.{layer}.self_s"] = layers[layer]
        for name in ("density.moment_l1_sum.truncated", "density.moment_l1_sum.overflowed",
                     "density.spikes", "diagnostics.surface_cells", "regressors.fit_sgd.epochs"):
            out[name] = self.counters[name]
        return out
