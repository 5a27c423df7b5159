"""Normalized ℓ₁ distance: known values + metric properties used by
Lemmas 1–2.  The Scan that runs it on Spark aggregates is checked on
every query in ``test_runner``."""
import numpy as np
import pytest

from repro.core.distance import l1_distances, normalize_rows, normalize_target


def test_normalize_rows_basic():
    out = normalize_rows(np.array([[2, 2], [0, 4], [0, 0]]))
    np.testing.assert_allclose(out, [[0.5, 0.5], [0.0, 1.0], [0.0, 0.0]])


def test_normalize_target_and_errors():
    np.testing.assert_allclose(normalize_target([2, 2]), [0.5, 0.5])
    with pytest.raises(ValueError):
        normalize_target([0, 0])


def test_l1_known_values():
    counts = np.array([[1, 1], [4, 0], [0, 1]])
    tau = l1_distances(counts, [0.5, 0.5])
    np.testing.assert_allclose(tau, [0.0, 1.0, 1.0])


def test_l1_disjoint_support_is_two():
    assert l1_distances(np.array([[5, 0]]), [0.0, 1.0])[0] == pytest.approx(2.0)


def test_l1_zero_samples_is_two():
    assert l1_distances(np.array([[0, 0, 0]]), [1, 1, 1])[0] == 2.0


def test_l1_shape_mismatch_raises():
    with pytest.raises(ValueError):
        l1_distances(np.ones((3, 4)), [1, 1, 1])


@pytest.mark.parametrize("seed", range(8))
def test_l1_range_and_symmetry(seed):
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 50, size=(20, 6))
    counts[0] += 1  # ensure at least one non-empty row
    q = rng.dirichlet(np.ones(6))
    tau = l1_distances(counts, q)
    assert np.all((tau >= 0) & (tau <= 2 + 1e-12))


@pytest.mark.parametrize("seed", range(10))
def test_lemma1_deviation_to_reconstruction(seed):
    """|τ_i − τ*_i| ≤ ‖r̂_i − r̂*_i‖₁ (triangle inequality, Lemma 1)."""
    rng = np.random.default_rng(100 + seed)
    est = rng.integers(0, 30, size=(15, 8)) + 1
    tru = rng.integers(0, 30, size=(15, 8)) + 1
    q = rng.dirichlet(np.ones(8))
    tau_est = l1_distances(est, q)
    tau_tru = l1_distances(tru, q)
    dev = np.abs(normalize_rows(est) - normalize_rows(tru)).sum(axis=1)
    assert np.all(np.abs(tau_est - tau_tru) <= dev + 1e-12)
