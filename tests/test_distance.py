"""Normalized ℓ₁ distance: known values, metric properties used by
Lemmas 1–2, and the fused kernel against its definition at the shapes
the queries use.  The Scan that runs it is checked on every query in
``test_runner``."""
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


@pytest.mark.parametrize("kind", ["int", "float"])
@pytest.mark.parametrize(
    "shape", [(3072, 24), (3072, 12), (161, 161), (161, 7)], ids=lambda s: f"{s[0]}x{s[1]}"
)
def test_l1_kernel_rows_and_definition(shape, kind):
    """At the queries' |V_Z| × |V_X| shapes, with some all-zero rows:

    * a row's τ has the same bits whether it is computed alone, in a
      random subset or with every row (HistSim recomputes only the rows
      a batch changed and must equal a full recompute exactly);
    * τ is the definition ||r̂_i − Q̂||₁ to 1e-12, and 2 on empty rows;
    * given integer counts' row totals n, the kernel returns the same
      bits as when it sums them itself (HistSim passes the n_i it holds).
    """
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    counts = rng.integers(0, 40, size=shape)
    counts[rng.random(shape[0]) < 0.2] = 0
    if kind == "float":
        counts = counts * rng.random(shape) * 1e3
    q = rng.random(shape[1])
    q[rng.random(shape[1]) < 0.2] = 0.0
    q[0] = 1.0
    tau = l1_distances(counts, q)
    for size in (1, 7, shape[0] // 3, shape[0]):
        idx = np.sort(rng.choice(shape[0], size, replace=False))
        assert np.array_equal(l1_distances(counts[idx], q), tau[idx])
        if kind == "int":  # HistSim's counts, whose totals are exact
            n = counts[idx].sum(axis=1)
            assert np.array_equal(l1_distances(counts[idx], q, n), tau[idx])
            assert np.array_equal(n, counts[idx].sum(axis=1))  # n left as given
    empty = counts.sum(axis=1) == 0
    assert empty.any() and not empty.all()
    assert np.all(tau[empty] == 2.0)
    want = np.abs(normalize_rows(counts) - normalize_target(q)).sum(axis=1)
    np.testing.assert_allclose(tau[~empty], want[~empty], rtol=0, atol=1e-12)
