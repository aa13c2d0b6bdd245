"""Synthetic regression data sets.

Two deterministic generators: a linear problem with Gaussian features and
a Friedman #1 problem with uniform features. Both are pure functions of
(parameters, seed) using numpy's PCG64 generator, so regenerating with the
same arguments reproduces bit-identical values on any platform.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

RNG_ALGORITHM = "numpy PCG64 via np.random.default_rng; repeat streams via SeedSequence.spawn"

# Ground-truth weight law for the linear generator. The dynamics do not
# depend on the law, only on reproducibility; nonnegative coefficients
# keep the informative-feature convention of common library generators.
LINEAR_WEIGHT_LOW = 0.0
LINEAR_WEIGHT_HIGH = 100.0


@dataclass(frozen=True)
class Dataset:
    """A regression problem: feature matrix, targets, and provenance.

    ``weights`` holds the ground-truth linear coefficients when the
    generator has them (linear), otherwise None. Features and targets must
    be finite: the loop never checks its input rows again.
    """

    features: np.ndarray
    targets: np.ndarray
    generator_tag: str
    noise_variance: float
    seed: int
    weights: np.ndarray | None = field(default=None)

    def __post_init__(self):
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-d matrix")
        m, d = self.features.shape
        if m < 1 or d < 1:
            raise ValueError(f"need m >= 1 and d >= 1, got shape {self.features.shape}")
        if self.targets.shape != (m,):
            raise ValueError(
                f"targets length {self.targets.shape} does not match {m} feature rows"
            )
        if self.noise_variance < 0:
            raise ValueError("noise_variance must be nonnegative")
        for name, values in (("features", self.features), ("targets", self.targets)):
            bad = np.flatnonzero(~np.isfinite(values.reshape(m, -1)).all(axis=1))
            if bad.size:
                raise ValueError(
                    f"{name} are not finite in {bad.size} row(s), the first is row {bad[0]}"
                )

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


def generate_linear(m: int, d: int, noise_variance: float, seed: int) -> Dataset:
    """Gaussian features, linear response with additive Gaussian noise.

    Features are i.i.d. standard normal. A ground-truth weight vector is
    drawn once per seed, uniform on [0, 100], and recorded on the dataset.
    Targets are X @ w + eps with eps ~ N(0, noise_variance).
    """
    if m < 2:
        raise ValueError(f"need m >= 2 rows, got {m}")
    if d < 1:
        raise ValueError(f"need d >= 1 features, got {d}")
    if noise_variance < 0:
        raise ValueError("noise_variance must be nonnegative")
    rng = np.random.default_rng(seed)
    w = rng.uniform(LINEAR_WEIGHT_LOW, LINEAR_WEIGHT_HIGH, size=d)
    X = rng.standard_normal((m, d))
    eps = rng.normal(0.0, np.sqrt(noise_variance), size=m)
    y = X @ w + eps
    return Dataset(X, y, "linear", float(noise_variance), seed, weights=w)


def friedman_response(X: np.ndarray) -> np.ndarray:
    """Noiseless Friedman #1 response; only the first five columns enter."""
    x = np.asarray(X, dtype=float)
    return (
        10.0 * np.sin(np.pi * x[:, 0] * x[:, 1])
        + 20.0 * (x[:, 2] - 0.5) ** 2
        + 10.0 * x[:, 3]
        + 5.0 * x[:, 4]
    )


def generate_friedman1(m: int, d: int, noise_variance: float, seed: int) -> Dataset:
    """Friedman #1 problem: uniform features on [0, 1], nonlinear response.

    Requires d >= 5; columns beyond the fifth are uninformative noise
    features.
    """
    if m < 2:
        raise ValueError(f"need m >= 2 rows, got {m}")
    if d < 5:
        raise ValueError(f"friedman1 needs d >= 5 features, got {d}")
    if noise_variance < 0:
        raise ValueError("noise_variance must be nonnegative")
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(m, d))
    eps = rng.normal(0.0, np.sqrt(noise_variance), size=m)
    y = friedman_response(X) + eps
    return Dataset(X, y, "friedman1", float(noise_variance), seed)


def write_dataset(dataset: Dataset, csv_path: str | Path) -> tuple[Path, Path]:
    """Write a dataset as CSV plus a JSON sidecar.

    CSV header is f0..f{d-1},y with floats at 17 significant digits. The
    sidecar records generator_tag, seed, noise_variance, and the
    ground-truth weights when present. Returns (csv_path, sidecar_path).
    """
    csv_path = Path(csv_path)
    d = dataset.n_features
    header = ",".join([f"f{j}" for j in range(d)] + ["y"])
    lines = [header]
    for i in range(dataset.n_rows):
        row = [format(v, ".17g") for v in dataset.features[i]]
        row.append(format(dataset.targets[i], ".17g"))
        lines.append(",".join(row))
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    sidecar = {
        "generator_tag": dataset.generator_tag,
        "seed": dataset.seed,
        "noise_variance": dataset.noise_variance,
        "rows": dataset.n_rows,
        "columns": d,
        "weights": None if dataset.weights is None else [float(v) for v in dataset.weights],
        "rng_algorithm": RNG_ALGORITHM,
    }
    sidecar_path = csv_path.with_suffix(".json")
    sidecar_path.write_text(json.dumps(sidecar, indent=2) + "\n", encoding="utf-8")
    return csv_path, sidecar_path


def read_dataset(csv_path: str | Path) -> Dataset:
    """Load a dataset written by :func:`write_dataset` (sidecar required)."""
    csv_path = Path(csv_path)
    sidecar_path = csv_path.with_suffix(".json")
    meta = json.loads(sidecar_path.read_text(encoding="utf-8"))
    raw = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    X, y = raw[:, :-1], raw[:, -1]
    w = meta.get("weights")
    return Dataset(
        X,
        y,
        meta["generator_tag"],
        float(meta["noise_variance"]),
        int(meta["seed"]),
        weights=None if w is None else np.asarray(w, dtype=float),
    )
