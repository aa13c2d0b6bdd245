"""Dataset generators: shapes, closed forms, determinism, round-trips."""

import json
import math

import numpy as np
import pytest

from loopsim.data import (
    Dataset,
    friedman_response,
    generate_friedman1,
    generate_linear,
    read_dataset,
    write_dataset,
)


def test_linear_shapes_and_fields():
    d = generate_linear(200, 7, noise_variance=2.0, seed=3)
    assert d.features.shape == (200, 7)
    assert d.targets.shape == (200,)
    assert d.weights.shape == (7,)
    assert d.generator_tag == "linear"
    assert d.noise_variance == 2.0
    assert d.seed == 3


def test_linear_weights_in_declared_range():
    d = generate_linear(50, 12, noise_variance=1.0, seed=9)
    assert np.all(d.weights >= 0.0)
    assert np.all(d.weights <= 100.0)


def test_linear_targets_match_weights_up_to_noise():
    # with tiny noise the targets are essentially X @ w
    d = generate_linear(300, 5, noise_variance=1e-12, seed=21)
    recon = d.features @ d.weights
    assert np.max(np.abs(d.targets - recon)) < 1e-4


def test_linear_noise_variance_scale():
    d = generate_linear(20000, 4, noise_variance=4.0, seed=5)
    resid = d.targets - d.features @ d.weights
    # MC band for sd of N(0,4) noise at n=20000
    assert 1.9 < resid.std() < 2.1


def test_linear_determinism():
    a = generate_linear(100, 8, noise_variance=1.0, seed=77)
    b = generate_linear(100, 8, noise_variance=1.0, seed=77)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.targets, b.targets)
    c = generate_linear(100, 8, noise_variance=1.0, seed=78)
    assert not np.array_equal(a.targets, c.targets)


def test_friedman_response_hand_value():
    # 10*sin(pi*.25) + 20*0 + 10*.5 + 5*.5 at the all-halves point
    x = np.full((1, 5), 0.5)
    want = 10.0 * math.sin(math.pi * 0.25) + 7.5
    assert friedman_response(x)[0] == pytest.approx(want, rel=1e-12)


def test_friedman_response_uses_first_five_columns_only():
    rng = np.random.default_rng(0)
    x = rng.uniform(size=(40, 9))
    y5 = friedman_response(x[:, :5])
    y9 = friedman_response(x)
    assert np.allclose(y5, y9)


def test_friedman_mean_band():
    # MC oracle: E[y] ~ 14.4 over U[0,1]^5 inputs
    d = generate_friedman1(20000, 5, noise_variance=1.0, seed=13)
    assert 13.9 < d.targets.mean() < 14.9


def test_friedman_rejects_narrow_feature_count():
    with pytest.raises(ValueError):
        generate_friedman1(100, 4, noise_variance=1.0, seed=0)


def test_friedman_features_in_unit_cube():
    d = generate_friedman1(500, 8, noise_variance=0.5, seed=2)
    assert d.features.min() >= 0.0
    assert d.features.max() <= 1.0


def test_dataset_round_trip(tmp_path):
    d = generate_linear(60, 3, noise_variance=1.0, seed=4)
    csv_path, sidecar = write_dataset(d, tmp_path / "d.csv")
    back = read_dataset(csv_path)
    assert np.allclose(back.features, d.features)
    assert np.allclose(back.targets, d.targets)

    meta = json.loads(sidecar.read_text())
    assert meta["generator_tag"] == "linear"
    assert meta["seed"] == 4
    assert meta["rows"] == 60 and meta["columns"] == 3
    assert len(meta["weights"]) == 3
    assert "rng_algorithm" in meta


def test_write_dataset_floats_survive_exactly(tmp_path):
    d = generate_linear(25, 2, noise_variance=1.0, seed=8)
    csv_path, _ = write_dataset(d, tmp_path / "exact.csv")
    back = read_dataset(csv_path)
    # %.17g format round-trips float64 bit-exactly
    assert np.array_equal(back.features, d.features)
    assert np.array_equal(back.targets, d.targets)


def test_read_dataset_rejects_ragged(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x0,x1,y\n1.0,2.0,3.0\n1.0,2.0\n")
    sidecar = {"generator_tag": "linear", "seed": 0, "noise_variance": 1.0,
               "rows": 2, "columns": 2, "weights": [1.0, 1.0],
               "rng_algorithm": "n/a"}
    (tmp_path / "bad.json").write_text(json.dumps(sidecar))
    with pytest.raises(ValueError):
        read_dataset(p)


@pytest.mark.parametrize("field, row, bad", [
    ("features", 3, math.nan), ("features", 0, math.inf), ("targets", 7, -math.inf),
])
def test_dataset_rejects_non_finite_values(field, row, bad):
    d = generate_linear(10, 2, noise_variance=1.0, seed=1)
    values = {"features": d.features.copy(), "targets": d.targets.copy()}
    values[field][row] = bad
    message = rf"^{field} are not finite in 1 row\(s\), the first is row {row}$"
    with pytest.raises(ValueError, match=message):
        Dataset(values["features"], values["targets"], "linear", 1.0, 1)


def test_dataset_is_frozen():
    d = generate_linear(10, 2, noise_variance=1.0, seed=1)
    with pytest.raises(Exception):
        d.seed = 99
    assert isinstance(d, Dataset)
