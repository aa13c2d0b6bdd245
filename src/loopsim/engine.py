"""Repeated-learning loop over a fixed regression dataset.

A model is trained on an active set, its predictions replace targets with
probability ``usage_p`` (noised by adherence ``s`` times the holdout MSE),
and the model is refit on a schedule. Two update protocols are supported:

* ``sliding_window``: the active set is a fixed-size FIFO window over a
  permutation of the rows; each step takes in the first row past the
  window and evicts the oldest. The process ends when the rows run out.
* ``sampling_update``: the active set is the whole dataset; each step draws
  one row uniformly.

Either way a step may overwrite the target of its one row; the protocols
differ only in which row that is.

Each step writes one row of the state's step record (``STEP_RECORD``):
the drawn item, its target, the prediction, the sampled value, whether it
was used, and the residual. ``run`` executes several independent repeats
and collects their per-probe residual statistics (the trace columns that
MASS_COLUMN, MOMENT_ORDERS and OPTIONAL_STATS name) and step records into
a DiagnosticsReport; ``run_many`` does the same for several configs that
differ only in usage_p, adherence_s, seed and repeats, and
``stddev_surface`` for a (usage, adherence) grid. A lane is one (config,
repeat) pair. The lanes of one run_many call retrain and probe on the same
steps, the events; between two events the model is fixed, so each lane
steps on its own up to the next event. SGD lanes share one batched fit per
retrain. The default interval half-widths are fractions of the residual
spread after the first fit of lane 0, so no fit runs twice.
"""

import contextlib
import dataclasses
import math
import warnings
from dataclasses import dataclass

import numpy as np

from loopsim.data import Dataset
from loopsim.density import (
    MIN_DENSITY_POINTS,
    SPIKE,
    EmpiricalDistribution,
    SaturationError,
    spread,
)
from loopsim.diagnostics import normality_test
from loopsim.regressors import (
    DEFAULT_RIDGE_PENALTY,
    SOLVER_RIDGE_EXACT,
    SOLVER_RIDGE_REGULARIZED,
    SOLVER_SGD,
    TrainedModel,
    fit_ridge,
    fit_sgd,
    fit_sgd_lanes,
    mse,
    predict,
)

SETTING_SLIDING = "sliding_window"
SETTING_SAMPLING = "sampling_update"

DEFAULT_WINDOW_FRACTION = {SETTING_SLIDING: 0.3, SETTING_SAMPLING: 1.0}
DEFAULT_PROBE_EVERY = {SETTING_SLIDING: 10, SETTING_SAMPLING: 100}
DEFAULT_KAPPA_FRACTIONS = (0.05, 0.1, 0.25, 0.5)
DEFAULT_MOMENT_L1_TERMS = 300
# the raw-moment orders a probe records as moment_<k>
MOMENT_ORDERS = (1, 2, 3, 4, 5, 6)
# the trace column of the interval mass at half-width kappa: MASS_COLUMN.format(kappa)
MASS_COLUMN = "mass@{:.10g}"

_MODELS = (SOLVER_SGD, SOLVER_RIDGE_EXACT, SOLVER_RIDGE_REGULARIZED)


class LoopComplete(Exception):
    """Signals that the loop has taken its total_steps steps."""


@dataclass(frozen=True, kw_only=True)
class LoopDefaults:
    """The loop parameters with a default, for LoopConfig and harness.ExperimentConfig."""

    retrain_period: int = 20
    window_fraction: float | None = None
    model: str = SOLVER_RIDGE_EXACT
    regularization: float = DEFAULT_RIDGE_PENALTY
    sgd_iterations: int = 50
    train_fraction: float = 0.8
    holdout_fraction: float = 0.3
    seed: int = 0
    repeats: int = 10
    probe_every: int | None = None


@dataclass(frozen=True, kw_only=True)
class LoopConfig(LoopDefaults):
    """Immutable description of one loop experiment, built by keyword.

    usage_p is the probability a prediction replaces the true target;
    adherence_s scales the sampling variance around the prediction
    (targets are drawn from N(prediction, s * holdout MSE), and equal the
    prediction at s = 0 even where that MSE overflows). The model is
    refit every retrain_period steps on a train_fraction split of the
    active set, with the MSE taken on the trailing holdout_fraction; these
    and the other defaults are LoopDefaults'.
    """

    setting: str
    total_steps: int
    usage_p: float
    adherence_s: float

    def __post_init__(self):
        if self.setting not in (SETTING_SLIDING, SETTING_SAMPLING):
            raise ValueError(f"unknown setting {self.setting!r}")
        if self.model not in _MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        if not 0.0 <= self.usage_p <= 1.0:
            raise ValueError(f"usage_p must lie in [0, 1], got {self.usage_p}")
        for name in ("adherence_s", "regularization"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")
        for name in ("total_steps", "retrain_period", "sgd_iterations", "repeats"):
            if int(getattr(self, name)) < 1:
                raise ValueError(f"{name} must be a positive integer")
        if self.window_fraction is not None and not 0.0 < self.window_fraction <= 1.0:
            raise ValueError(f"window_fraction must lie in (0, 1], got {self.window_fraction}")
        if self.setting == SETTING_SAMPLING and self.window_fraction not in (None, 1.0):
            raise ValueError("sampling_update always works on the full data set")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train_fraction must lie in (0, 1), got {self.train_fraction}")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ValueError(f"holdout_fraction must lie in (0, 1), got {self.holdout_fraction}")
        if self.probe_every is not None and int(self.probe_every) < 1:
            raise ValueError("probe_every must be a positive integer")
        if int(self.seed) < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")

    @property
    def resolved_window_fraction(self) -> float:
        if self.window_fraction is None:
            return DEFAULT_WINDOW_FRACTION[self.setting]
        return self.window_fraction

    @property
    def resolved_probe_every(self) -> int:
        if self.probe_every is None:
            return DEFAULT_PROBE_EVERY[self.setting]
        return int(self.probe_every)

    def window_size(self, n_rows: int) -> int:
        # tiny nudge so fractions stored just below a round binary value
        # (0.3 * 10, 0.3 * 2000, ...) still floor to the intended size
        return int(math.floor(self.resolved_window_fraction * n_rows + 1e-9))

    def check_rows(self, n_rows: int, probed: bool = False) -> int:
        """The active-set size on a dataset of n_rows; ValueError if the loop cannot run.

        A sliding window needs 10 rows, a window of 3 items for the
        retrain split, and a reserve that covers total_steps. A sampling
        run needs 2 rows. With probed, the active set must also hold the
        MIN_DENSITY_POINTS residuals that every probe's density estimate
        reads.
        """
        w = self.window_size(n_rows)
        if self.setting == SETTING_SLIDING:
            if n_rows < 10:
                raise ValueError(f"sliding window needs at least 10 rows, got {n_rows}")
            if w < 3:
                raise ValueError(f"window of {w} items cannot support the retrain split")
            if self.total_steps > n_rows - w:
                raise ValueError(
                    f"total_steps {self.total_steps} exceeds the reserve of {n_rows - w} items"
                )
        elif n_rows < 2:
            raise ValueError(f"sampling updates need at least 2 rows, got {n_rows}")
        if probed and w < MIN_DENSITY_POINTS:
            raise ValueError(
                f"probes need an active set of at least {MIN_DENSITY_POINTS} items, got {w}"
            )
        return w


# one row per loop step: step_t, the drawn item, its true target, the
# prediction, the sampled replacement, whether it replaced the target, and
# the residual y_true - y_pred
STEP_RECORD = np.dtype([
    ("step_t", np.int64), ("item_index", np.int64), ("y_true", np.float64),
    ("y_pred", np.float64), ("z_sampled", np.float64), ("used_prediction", np.bool_),
    ("residual", np.float64),
])


@dataclass
class LoopState:
    """Mutable state of one run: the data in draw order, model, step record.

    features, targets and item_indices hold all rows of the dataset, in a
    random permutation for a sliding window and in dataset order for a
    sampling run; only targets are ever written. The active set is the
    first window_size rows for a sampling run and rows [step_t, step_t +
    window_size) for a sliding window, so the rows past it are the
    unconsumed reserve. record is a STEP_RECORD recarray of total_steps
    rows, of which the first step_t are written.
    """

    features: np.ndarray
    targets: np.ndarray
    item_indices: np.ndarray
    window_size: int
    sliding: bool
    step_t: int
    model: TrainedModel | None
    sigma2: float
    record: np.recarray
    rng: np.random.Generator

    @property
    def replaced_count(self) -> int:
        return int(np.count_nonzero(self.record.used_prediction[: self.step_t]))

    def active_rows(self) -> np.ndarray:
        """The rows of the active set, one per window slot.

        A sliding window is a ring buffer: slot s holds the one active row
        congruent to s mod window_size, so step t puts its row into slot
        t mod window_size, in place of the row it evicts.
        """
        slots = np.arange(self.window_size)
        if not self.sliding:
            return slots
        t = self.step_t
        return t + (slots - t) % self.window_size

    def residuals(self) -> np.ndarray:
        rows = self.active_rows()
        return self.targets[rows] - predict(self.model, self.features[rows])


def _attempt(fit, *args):
    """fit(*args), or the exception it raised."""
    try:
        return fit(*args)
    except Exception as exc:
        return exc


def _refit(states: list, config: LoopConfig) -> list:
    """Refit every lane on a fresh split of its own active set.

    Each lane draws its split permutation, then its SGD seed, from its own
    rng, as a solo run does. A lane whose training targets are not finite
    (a diverged loop) ends with ValueError before any fit, whatever the
    model. The other SGD lanes share one fit_sgd_lanes call; should it
    raise, each lane is fitted alone. Returns per lane None, or the
    exception that ended its refit.
    """
    errors = [None] * len(states)
    fits = []  # (lane, training features, training targets, holdout rows)
    for lane, state in enumerate(states):
        w = state.window_size
        rows = state.rng.permutation(w)
        if state.sliding:
            rows = state.active_rows()[rows]
        train = rows[: max(2, int(config.train_fraction * w + 1e-9))]
        hold = rows[w - max(1, int(config.holdout_fraction * w + 1e-9)) :]
        y = state.targets[train]
        if np.isfinite(y).all():
            fits.append((lane, state.features[train], y, hold))
        else:
            # a fit could only warn on these; the lane ends the same way for every model
            errors[lane] = ValueError("training targets are not finite")
    xs = [x for _, x, _, _ in fits]
    ys = [y for _, _, y, _ in fits]
    if config.model == SOLVER_SGD:
        seeds = [int(states[lane].rng.integers(0, 2**63 - 1)) for lane, *_ in fits]
        try:
            models = fit_sgd_lanes(np.stack(xs), np.stack(ys), config.sgd_iterations, seeds)
        except Exception:
            models = [_attempt(fit_sgd, x, y, config.sgd_iterations, seed)
                      for x, y, seed in zip(xs, ys, seeds)]
    else:
        penalty = 0.0 if config.model == SOLVER_RIDGE_EXACT else config.regularization
        models = [_attempt(fit_ridge, x, y, penalty) for x, y in zip(xs, ys)]
    for (lane, _, _, hold), model in zip(fits, models):
        if isinstance(model, Exception):
            errors[lane] = model
            continue
        state = states[lane]
        state.model = model
        state.sigma2 = mse(model, state.features[hold], state.targets[hold])
    return errors


def _retrain(state: LoopState, config: LoopConfig) -> None:
    (error,) = _refit([state], config)
    if error is not None:
        raise error


def init_state(data: Dataset, config: LoopConfig, rng: np.random.Generator,
               retrain: bool = True) -> LoopState:
    """Set up a run: the data in draw order and the first fit.

    A sliding window permutes all rows; the first window_size of them are
    the active set and the rest are drawn in order, so total_steps must
    fit inside that reserve (the window never shrinks or grows). A sampling
    run keeps the dataset order. rng is the run's one stream; run gives
    each repeat a child of config.seed. With retrain=False the first fit
    is left to the caller, which must make it before stepping.
    """
    m = data.n_rows
    sliding = config.setting == SETTING_SLIDING
    w = config.check_rows(m)
    order = rng.permutation(m) if sliding else np.arange(m)
    state = LoopState(
        features=data.features[order],
        targets=data.targets[order],
        item_indices=order,
        window_size=w,
        sliding=sliding,
        step_t=0,
        model=None,
        sigma2=0.0,
        record=np.zeros(config.total_steps, STEP_RECORD).view(np.recarray),
        rng=rng,
    )
    if retrain:
        _retrain(state, config)
    return state


def step(state: LoopState, config: LoopConfig, retrain: bool = True) -> np.record:
    """Advance the loop by one row; retrains when the schedule says so.

    The step's row is the first one past a sliding window, or a uniform
    draw from the sampling set; its target becomes the sampled value when
    the prediction is used. A step makes three draws from state.rng, in
    this order: the row (sampling only), the sampled value and the usage
    coin. The prediction is features[row] @ weights + intercept, the bits
    that predict gives on the one-row matrix, without predict's checks.
    Raises LoopComplete once the loop has taken config.total_steps steps.
    Writes and returns the step's row of state.record: the drawn item, the
    prediction, the sampled replacement value (the prediction itself at
    adherence_s = 0, even where sigma2 is inf), and whether it was used.
    With retrain=False a scheduled refit is left to the caller.
    """
    if state.step_t >= config.total_steps:
        raise LoopComplete(f"loop complete after {state.step_t} steps")
    rng = state.rng
    if state.sliding:
        row = state.window_size + state.step_t
    else:
        row = int(rng.integers(state.window_size))
    y_true = float(state.targets[row])
    item = int(state.item_indices[row])
    y_pred = float(state.features[row] @ state.model.weights + state.model.intercept)
    scale = math.sqrt(config.adherence_s * state.sigma2) if config.adherence_s else 0.0
    z = float(rng.normal(y_pred, scale))
    used = bool(rng.random() < config.usage_p)
    if used:
        state.targets[row] = z
    t = state.step_t
    state.step_t += 1
    state.record[t] = (state.step_t, item, y_true, y_pred, z, used, y_true - y_pred)
    if retrain and state.step_t % config.retrain_period == 0:
        _retrain(state, config)
    return state.record[t]


def resolve_probes(config: LoopConfig, probes) -> list[int]:
    """The sorted probe steps: the config's default schedule when probes is
    None, else probes with step 0 and the final step added; ValueError on
    a step outside [0, total_steps]."""
    budget = config.total_steps
    if probes is None:
        every = config.resolved_probe_every
        chosen = set(range(0, budget + 1, every))
    else:
        chosen = {int(t) for t in probes}
        bad = [t for t in chosen if t < 0 or t > budget]
        if bad:
            raise ValueError(f"probe steps {sorted(bad)} fall outside [0, {budget}]")
    chosen.update((0, budget))
    return sorted(chosen)


@dataclass
class DiagnosticsReport:
    """Per-probe statistics of a repeated-learning run.

    ``per_repeat`` keeps the raw (repeats x probes) matrices keyed by stat
    name: always "psi", "stddev" and "mass@<kappa>", and "normality_p",
    "moment_l1", "moment_l1_truncated" and "moment_<k>" where the probes
    computed them. ``mean`` and ``std`` reduce them over repeats, and the
    trace properties are their means (``moment_traces`` is empty when the
    probes skipped the raw moments). ``spike_counts`` counts the NaN psi
    values (point-mass residuals) per probe. ``step_traces`` is the
    (repeats x total_steps) recarray of the loop's step records (STEP_RECORD).
    """

    probe_steps: list
    kappa_list: list
    per_repeat: dict
    step_traces: np.recarray

    def __post_init__(self):
        n = len(self.probe_steps)
        for name, matrix in self.per_repeat.items():
            if matrix.shape[1] != n:
                raise ValueError(f"{name} length does not match probe_steps")
        pv = self.per_repeat.get("normality_p", np.empty((0, 0)))
        pv = pv[np.isfinite(pv)]
        if pv.size and (pv.min() < 0 or pv.max() > 1):
            raise ValueError("p-values must lie in [0, 1]")

    def mean(self, stat) -> np.ndarray:
        """Mean over repeats, ignoring NaN; finite wherever the values are.

        Where the plain float64 mean overflows, the values are scaled down
        by a power of two at least the repeat count before averaging.
        """
        values = self.per_repeat[stat]
        with warnings.catch_warnings():
            # all-spike probes leave empty slices behind; NaN is the answer there
            warnings.simplefilter("ignore", category=RuntimeWarning)
            out = np.nanmean(values, axis=0)
            over = ~np.isfinite(out)
            if over.any():
                scale = 2.0 ** len(values).bit_length()
                out[over] = np.nanmean(values[:, over] / scale, axis=0) * scale
        return out

    def std(self, stat) -> np.ndarray:
        """Standard deviation over repeats, ignoring NaN; finite and nonzero
        wherever the true value is.

        Where the squared deviations leave the float range (an overflow, or
        an underflow of unequal values to 0), that column is scaled by a
        power of two near its largest value before the plain std, as in
        density.spread, so every other column keeps its bits.
        """
        values = self.per_repeat[stat]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", category=RuntimeWarning)
            out = np.nanstd(values, axis=0)
            bad = ~np.isfinite(out) | (
                (out == 0) & (np.nanmax(values, axis=0) > np.nanmin(values, axis=0)))
            if bad.any():
                top = np.nanmax(np.abs(values[:, bad]), axis=0)
                scale = np.ldexp(1.0, np.frexp(top)[1] - 1)
                out[bad] = np.nanstd(values[:, bad] / scale, axis=0) * scale
        return out

    repeats_aggregated = property(lambda self: len(self.per_repeat["psi"]))
    spike_counts = property(lambda self: np.isnan(self.per_repeat["psi"]).sum(0, dtype=float))
    psi_trace = property(lambda self: self.mean("psi"))
    stddev_trace = property(lambda self: self.mean("stddev"))
    moment_l1_trace = property(lambda self: self.mean("moment_l1"))
    interval_masses = property(
        lambda self: {kap: self.mean(MASS_COLUMN.format(kap)) for kap in self.kappa_list}
    )
    moment_traces = property(lambda self: {
        k: self.mean(f"moment_{k}") for k in MOMENT_ORDERS if f"moment_{k}" in self.per_repeat
    })


def _moments(dist, resid, i, res):
    for order in MOMENT_ORDERS:  # all six read the ladder's first block, built once
        try:
            res[f"moment_{order}"][i] = dist.raw_moment(order)
        except SaturationError:
            pass


def _moment_l1(dist, resid, i, res):
    l1 = dist.moment_l1_sum(DEFAULT_MOMENT_L1_TERMS)
    res["moment_l1"][i] = l1.value
    res["moment_l1_truncated"][i] = l1.truncated_at is not None


def _normality_p(dist, resid, i, res):
    res["normality_p"][i] = normality_test(resid)[1]


# The statistics a probe computes only when asked for them: name -> (the
# trace columns it writes, the function that writes them). Every probe
# writes psi (NaN at a spike), stddev and the mass@<kappa> columns.
OPTIONAL_STATS = {
    "moments": (tuple(f"moment_{order}" for order in MOMENT_ORDERS), _moments),
    "moment_l1": (("moment_l1", "moment_l1_truncated"), _moment_l1),
    "normality_p": (("normality_p",), _normality_p),
}
ALL_STATS = tuple(OPTIONAL_STATS)


def _observe(state, i, res, masses, stats):
    """Write one probe's core statistics, and the optional ones named in
    stats, into column i of res."""
    resid = state.residuals()
    dist = EmpiricalDistribution(resid)
    lo = float(dist.sample[0])
    hi = float(dist.sample[-1])
    if dist.ecdf(np.nextafter(lo, -np.inf)) != 0.0 or dist.ecdf(hi) != 1.0:
        raise RuntimeError("probe ECDF failed the normalization check")
    d0 = dist.density_at(0.0)
    res["psi"][i] = np.nan if d0 is SPIKE else float(d0)
    res["stddev"][i] = spread(resid)
    for name, kappa in masses:
        res[name][i] = dist.interval_mass(kappa)
    for name in stats:
        OPTIONAL_STATS[name][1](dist, resid, i, res)


def _start_lanes(data, lanes):
    """Step 0 of a task's lanes, each a (config, repeat, child seed) triple:
    their states, started by init_state with their own rngs, and per lane
    None or the exception that ended its first fit, made by one _refit.
    run_many has checked the rows, so only an allocation can fail in
    init_state, and that ends the call."""
    states = [init_state(data, config, np.random.default_rng(child), retrain=False)
              for config, _, child in lanes]
    return states, _refit(states, lanes[0][0])


def _run_lanes(data, lanes, probe_steps, kappas, stats, started=None):
    """Lanes from event to event: per lane its per-probe statistics and step
    record, or the exception that ended it.

    The lanes start in _start_lanes, unless started holds what it returned
    for them already. All lanes retrain and probe on the same steps: the
    events. At each event every live lane first steps up to it on its own,
    since lanes share nothing between refits; then _refit retrains the live
    lanes together if the event is a retrain step, and each live lane is
    probed if it is a probe step. A lane that raises leaves the group, and
    its exception's message is prefixed with its repeat and the step it
    ended.
    """
    schedule = lanes[0][0]
    masses = [(MASS_COLUMN.format(kap), kap) for kap in kappas]
    names = ["psi", "stddev"] + [name for name, _ in masses]
    names += [column for name in stats for column in OPTIONAL_STATS[name][0]]
    res = [{name: np.full(len(probe_steps), np.nan) for name in names} for _ in lanes]
    lookup = {t: i for i, t in enumerate(probe_steps)}
    out = [None] * len(lanes)
    states, errors = started or _start_lanes(data, lanes)
    live = dict(enumerate(states))

    def end(lane, exc, t):
        exc.args = (f"repeat {lanes[lane][1]}, step {t}: {exc}",)
        out[lane] = exc
        del live[lane]

    for lane, error in enumerate(errors):
        if error is not None:
            end(lane, error, 0)
    retrains = range(schedule.retrain_period, schedule.total_steps + 1, schedule.retrain_period)
    for t in sorted(set(retrains).union(probe_steps)):
        for lane, state in list(live.items()):
            try:
                while state.step_t < t:
                    step(state, lanes[lane][0], retrain=False)
            except Exception as exc:
                end(lane, exc, state.step_t + 1)
        if t in retrains:
            for lane, error in zip(list(live), _refit(list(live.values()), schedule)):
                if error is not None:
                    end(lane, error, t)
        if t in lookup:
            for lane, state in list(live.items()):
                try:
                    _observe(state, lookup[t], res[lane], masses, stats)
                except Exception as exc:
                    end(lane, exc, t)
    for lane, state in live.items():
        out[lane] = (res[lane], state.record)
    return out


def run(data: Dataset, config: LoopConfig, probes=None, kappa_list=None,
        **options) -> DiagnosticsReport:
    """Execute config.repeats independent runs and aggregate probe stats.

    Repeat seeds are spawned from config.seed, so results are reproducible
    and independent of workers. probes=None uses the default schedule for
    the setting; an explicit sequence is used as-is (step 0 and the final
    step are always included). kappa_list (None by default) and the other
    options are those of run_many. A failed repeat raises.
    """
    report = run_many(data, [config], probes, kappa_list, **options)[0]
    if isinstance(report, Exception):
        raise report
    return report


def check_kappas(kappa_list) -> list[float]:
    """The interval half-widths as a list; ValueError unless each is
    positive and finite and names its own mass@<kappa> trace column."""
    kappas = list(kappa_list)
    if not all(0 < k < math.inf for k in kappas):
        raise ValueError("interval half-widths must be positive and finite")
    columns = [MASS_COLUMN.format(kap) for kap in kappas]
    shared = sorted({name for name in columns if columns.count(name) > 1})
    if shared:
        raise ValueError(f"interval half-widths {kappas} share the trace columns {shared}")
    return kappas


def run_many(
    data: Dataset,
    configs,
    probes,
    kappa_list,
    stats=ALL_STATS,
    workers: int = 1,
) -> list:
    """Run the repeats of several configs as one lockstep group.

    The configs may differ only in usage_p, adherence_s, seed and repeats:
    the repeats of one config, or the cells of a (p, s) surface. Each
    (config, repeat) pair is a lane with its own child seed, and all lanes
    retrain and probe on the same steps; SGD lanes share one batched fit
    per retrain, ridge lanes are fitted one by one. The lanes are split
    into min(workers, lanes) tasks: the parent runs the first, and a pool
    of forked processes runs the rest, one process each. The lanes call
    numpy only, so a forked worker imports nothing of its own. The tasks,
    their lanes and the results are the same at any worker count. Every
    probe writes the core statistics and the OPTIONAL_STATS named in
    stats, by default all of them. ValueError, before any lane runs, on
    configs of two groups, an unknown stats name, kappas that check_kappas
    refuses, probes that resolve_probes refuses, and a dataset too small
    for the probed loop. kappa_list=None takes DEFAULT_KAPPA_FRACTIONS
    times the spread of lane 0's step-0 residuals, or the bare fractions
    when that spread is 0 or not finite or lane 0's first fit failed: the
    parent starts its own lanes, which hold lane 0, and only then submits
    the pooled tasks with those kappas. Returns one DiagnosticsReport per
    config, in order, with its repeats' step records, or the exception of
    its first failed repeat.
    """
    kappas = None if kappa_list is None else check_kappas(kappa_list)
    requested = set(stats)
    unknown = sorted(requested - set(OPTIONAL_STATS))
    if unknown:
        raise ValueError(f"unknown probe statistics {unknown}; known: {list(OPTIONAL_STATS)}")
    stats = tuple(name for name in OPTIONAL_STATS if name in requested)
    if not configs:
        return []
    schedule = configs[0]
    differ = sorted({field.name for field in dataclasses.fields(schedule) for config in configs
                     if field.name not in ("usage_p", "adherence_s", "seed", "repeats")
                     and getattr(config, field.name) != getattr(schedule, field.name)})
    if differ:
        raise ValueError(f"run_many configs may differ only in usage_p, adherence_s, seed "
                         f"and repeats, not in {differ}")
    schedule.check_rows(data.n_rows, probed=True)
    probe_steps = resolve_probes(schedule, probes)
    lanes = [(config, repeat, child) for config in configs for repeat, child
             in enumerate(np.random.SeedSequence(config.seed).spawn(config.repeats))]
    n = max(1, min(workers, len(lanes)))
    shares = [lanes[k * len(lanes) // n : (k + 1) * len(lanes) // n] for k in range(n)]
    pool = contextlib.nullcontext()
    if n > 1:
        from concurrent import futures

        pool = futures.ProcessPoolExecutor(max_workers=n - 1)
    with pool:
        started = None
        if kappas is None:
            started = _start_lanes(data, shares[0])
            (state, *_), (error, *_) = started
            sd0 = math.nan if error is not None else spread(state.residuals())
            scale = sd0 if 0 < sd0 < math.inf else 1.0
            kappas = check_kappas([f * scale for f in DEFAULT_KAPPA_FRACTIONS])
        pending = [pool.submit(_run_lanes, data, share, probe_steps, kappas, stats)
                   for share in shares[1:]]
        outcomes = _run_lanes(data, shares[0], probe_steps, kappas, stats, started)
        for future in pending:
            outcomes += future.result()
    outcomes = iter(outcomes)
    reports = []
    for config in configs:
        mine = [next(outcomes) for _ in range(config.repeats)]
        failed = [r for r in mine if isinstance(r, Exception)]
        if failed:
            reports.append(failed[0])
            continue
        per_repeat = {name: np.stack([res[name] for res, _ in mine]) for name in mine[0][0]}
        reports.append(DiagnosticsReport(
            probe_steps=probe_steps,
            kappa_list=kappas,
            per_repeat=per_repeat,
            step_traces=np.stack([record for _, record in mine]).view(np.recarray),
        ))
    return reports


@dataclass
class SurfaceResult:
    """Final residual standard deviation over a (usage, adherence) grid."""

    p_grid: list
    s_grid: list
    mean: np.ndarray
    std: np.ndarray
    errors: dict


def stddev_surface(data, p_grid, s_grid, config, workers: int = 1) -> SurfaceResult:
    """Run the loop over a (usage, adherence) grid.

    Each cell executes ``config.repeats`` independent runs probed only at
    step 0 and the final step; the cell value is the mean final-probe
    residual standard deviation, with the across-repeat deviation kept
    alongside. A grid value outside the config's range, or a dataset too
    small for the probed loop, raises ValueError before anything runs. A
    cell whose run fails records its error, keyed by its (i, j) index, and
    leaves NaN in the matrices instead of aborting the sweep.
    """
    p_grid = list(p_grid)
    s_grid = list(s_grid)
    if not p_grid or not s_grid:
        raise ValueError("grids must be nonempty")
    cells = [(i, j) for i in range(len(p_grid)) for j in range(len(s_grid))]
    configs = [dataclasses.replace(config, usage_p=p_grid[i], adherence_s=s_grid[j])
               for i, j in cells]
    # only stddev is read, so no interval masses and no optional statistic
    reports = run_many(data, configs, (), (), stats=(), workers=workers)
    mean = np.full((len(p_grid), len(s_grid)), np.nan)
    std = np.full((len(p_grid), len(s_grid)), np.nan)
    errors = {}
    for idx, report in zip(cells, reports):
        if isinstance(report, Exception):
            errors[idx] = str(report)
        else:
            final = report.per_repeat["stddev"][:, -1]
            mean[idx], std[idx] = float(np.mean(final)), spread(final)
    return SurfaceResult(p_grid, s_grid, mean, std, errors)
