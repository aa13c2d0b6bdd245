"""Synthetic regression data sets, and the CSV form of every output.

Two deterministic generators: a linear problem with Gaussian features and
a Friedman #1 problem with uniform features. Both are pure functions of
(parameters, seed) using numpy's PCG64 generator, so regenerating with the
same arguments reproduces bit-identical values on any platform.
write_csv and format_float write every CSV table of the package.
"""

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

RNG_ALGORITHM = "numpy PCG64 via np.random.default_rng; repeat streams via SeedSequence.spawn"

# Ground-truth weight law for the linear generator. The dynamics do not
# depend on the law, only on reproducibility; nonnegative coefficients
# keep the informative-feature convention of common library generators.
LINEAR_WEIGHT_LOW = 0.0
LINEAR_WEIGHT_HIGH = 100.0

# 17 significant digits round-trip every float64
FLOAT_FORMAT = "%.17g"


def format_float(value: float) -> str:
    return FLOAT_FORMAT % float(value)


def write_csv(path: Path, header: list, rows) -> None:
    """Write a header and rows of already formatted cells, comma-joined."""
    with open(path, "w", encoding="utf-8") as out:
        out.write(",".join(header) + "\n")
        out.writelines(",".join(row) + "\n" for row in rows)


def _check_noise(noise_variance: float) -> None:
    if not 0.0 <= noise_variance < math.inf:
        raise ValueError(f"noise_variance must be finite and nonnegative, got {noise_variance}")


@dataclass(frozen=True)
class Dataset:
    """A regression problem: feature matrix, targets, and provenance.

    ``weights`` holds the ground-truth linear coefficients when the
    generator has them (linear), otherwise None; they must be finite, one
    per feature column. Features and targets must be finite: the loop
    never checks its input rows again.
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
        _check_noise(self.noise_variance)
        for name, values in (("features", self.features), ("targets", self.targets)):
            bad = np.flatnonzero(~np.isfinite(values.reshape(m, -1)).all(axis=1))
            if bad.size:
                raise ValueError(
                    f"{name} are not finite in {bad.size} row(s), the first is row {bad[0]}"
                )
        if self.weights is not None:
            if np.shape(self.weights) != (d,):
                raise ValueError(
                    f"weights shape {np.shape(self.weights)} does not match {d} feature columns"
                )
            if not np.isfinite(self.weights).all():
                raise ValueError("weights are not finite")

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
    _check_noise(noise_variance)
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
    _check_noise(noise_variance)
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
    rows = np.column_stack([dataset.features, dataset.targets])
    write_csv(csv_path, [f"f{j}" for j in range(d)] + ["y"], (map(format_float, r) for r in rows))

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
    # opened here, so that a missing file's error names it
    with csv_path.open(encoding="utf-8") as rows:
        raw = np.loadtxt(rows, delimiter=",", skiprows=1, ndmin=2)
    sidecar_path = csv_path.with_suffix(".json")
    meta = json.loads(sidecar_path.read_text(encoding="utf-8"))
    if not isinstance(meta, dict):
        raise ValueError(f"sidecar {sidecar_path} is not a JSON object")
    missing = [k for k in ("generator_tag", "noise_variance", "seed") if k not in meta]
    if missing:
        raise ValueError(f"sidecar {sidecar_path} lacks {', '.join(map(repr, missing))}")
    for key, kind, types in (("seed", "an integer", int),
                             ("noise_variance", "a number", (int, float))):
        if isinstance(meta[key], bool) or not isinstance(meta[key], types):
            raise ValueError(
                f"sidecar {sidecar_path} {key!r} must be {kind}, got {json.dumps(meta[key])}"
            )
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
