"""One repeat of the loop, written straight from the engine's docstrings.

One repeat, one lane: no lockstep, no pool and no hoisting. It calls only
the unit-tested pieces fit_ridge, fit_sgd, mse, predict,
EmpiricalDistribution, spread and normality_test, so a test that compares
it with run_many checks the engine's plumbing against the contract and not
against itself:

* a sliding window permutes the rows and steps through the reserve past
  its window; a sampling run keeps the dataset order and draws a row;
* a step draws the row (sampling only), then the sampled value, then the
  usage coin;
* a retrain draws the split permutation, then the SGD seed, and takes the
  rows of a sliding window in ring-slot order;
* the model is fitted at step 0 and every retrain_period steps, before the
  probe of the same step.
"""

import math

import numpy as np

from loopsim.density import SPIKE, EmpiricalDistribution, SaturationError, spread
from loopsim.diagnostics import normality_test
from loopsim.engine import (
    DEFAULT_MOMENT_L1_TERMS,
    MASS_COLUMN,
    MOMENT_ORDERS,
    SETTING_SLIDING,
    STEP_RECORD,
)
from loopsim.regressors import SOLVER_RIDGE_EXACT, SOLVER_SGD, fit_ridge, fit_sgd, mse, predict


def reference_repeat(data, config, child, probe_steps, kappas, stats):
    """(columns, record) of one repeat seeded by the SeedSequence child.

    columns maps each trace column, and "spike", to its values at
    probe_steps; record is the STEP_RECORD array of the steps. Raises what
    the first failing fit or probe raises.
    """
    rng = np.random.default_rng(child)
    sliding = config.setting == SETTING_SLIDING
    w = config.window_size(data.n_rows)
    order = rng.permutation(data.n_rows) if sliding else np.arange(data.n_rows)
    features, targets = data.features[order], data.targets[order]

    def active(t):
        # a sliding window's slot s holds its one row congruent to s mod w
        return t + (np.arange(w) - t) % w if sliding else np.arange(w)

    def fit(t):
        rows = active(t)[rng.permutation(w)]
        train = rows[: max(2, int(config.train_fraction * w + 1e-9))]
        hold = rows[w - max(1, int(config.holdout_fraction * w + 1e-9)) :]
        if not np.isfinite(targets[train]).all():
            raise ValueError("training targets are not finite")
        if config.model == SOLVER_SGD:
            seed = int(rng.integers(0, 2**63 - 1))
            model = fit_sgd(features[train], targets[train], config.sgd_iterations, seed)
        else:
            penalty = 0.0 if config.model == SOLVER_RIDGE_EXACT else config.regularization
            model = fit_ridge(features[train], targets[train], penalty)
        return model, mse(model, features[hold], targets[hold])

    columns = {}

    def probe(t):
        rows = active(t)
        resid = targets[rows] - predict(model, features[rows])
        dist = EmpiricalDistribution(resid)
        d0 = dist.density_at(0.0)
        values = {"spike": d0 is SPIKE, "psi": math.nan if d0 is SPIKE else d0,
                  "stddev": spread(resid)}
        for kappa in kappas:
            values[MASS_COLUMN.format(kappa)] = dist.interval_mass(kappa)
        if "moments" in stats:
            for k in MOMENT_ORDERS:
                try:
                    values[f"moment_{k}"] = dist.raw_moment(k)
                except SaturationError:
                    values[f"moment_{k}"] = math.nan
        if "moment_l1" in stats:
            l1 = dist.moment_l1_sum(DEFAULT_MOMENT_L1_TERMS)
            values["moment_l1"] = l1.value
            values["moment_l1_truncated"] = l1.truncated_at is not None
        if "normality_p" in stats:
            values["normality_p"] = normality_test(resid)[1]
        for name, value in values.items():
            columns.setdefault(name, []).append(value)

    record = []
    model, sigma2 = fit(0)
    if 0 in probe_steps:
        probe(0)
    for t in range(1, config.total_steps + 1):
        row = w + t - 1 if sliding else int(rng.integers(w))
        y_true = targets[row]
        y_pred = predict(model, features[row][None])[0]
        z = rng.normal(y_pred, math.sqrt(config.adherence_s * sigma2))
        used = rng.random() < config.usage_p
        if used:
            targets[row] = z
        record.append((t, order[row], y_true, y_pred, z, used, y_true - y_pred))
        if t % config.retrain_period == 0:
            model, sigma2 = fit(t)
        if t in probe_steps:
            probe(t)
    return ({name: np.array(values, dtype=float) for name, values in columns.items()},
            np.array(record, dtype=STEP_RECORD))
