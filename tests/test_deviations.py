"""§3.3 deviation selection: Lemma 2 constraints, maximality, edge cases."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.deviations import constraints_satisfied, select_deviations


def test_matching_set_basic():
    m = select_deviations(np.array([0.5, 0.1, 0.3, 0.9]), 2, 0.1).matching
    assert list(np.flatnonzero(m)) == [1, 2]


def test_matching_set_ties_stable():
    m = select_deviations(np.array([0.2, 0.2, 0.2, 0.2]), 2, 0.1).matching
    assert list(np.flatnonzero(m)) == [0, 1]


@pytest.mark.parametrize("seed", range(20))
def test_matching_set_equals_stable_argsort_on_ties(seed):
    """On tie-heavy τ, for every k, M is the stable argsort's first k."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    tau = rng.choice([0.0, 0.3, 0.7, 1.2, 2.0], size=n)
    order = np.argsort(tau, kind="stable")
    for k in range(1, n + 1):
        want = np.zeros(n, dtype=bool)
        want[order[:k]] = True
        np.testing.assert_array_equal(select_deviations(tau, k, 0.1).matching, want)


def test_matching_set_bad_k():
    with pytest.raises(ValueError, match="k must be"):
        select_deviations(np.array([0.1]), 0, 0.1)


def test_split_point_is_midpoint():
    tau = np.array([0.1, 0.2, 0.6, 0.8])
    ch = select_deviations(tau, 2, 0.1)
    assert ch.split == pytest.approx(0.4)  # midpoint of 0.2 and 0.6


def test_formulas_match_section_3_3():
    tau = np.array([0.05, 0.25, 0.60, 1.10])
    eps = 0.2
    ch = select_deviations(tau, 2, eps)
    s = (0.25 + 0.60) / 2
    np.testing.assert_allclose(
        ch.eps[:2], np.minimum(eps, s + eps / 2 - tau[:2])
    )
    np.testing.assert_allclose(ch.eps[2:], tau[2:] - max(s - eps / 2, 0.0))


def test_all_matching_when_k_equals_n():
    tau = np.array([0.3, 0.1, 0.9])
    ch = select_deviations(tau, 3, 0.25)
    assert ch.matching.all()
    np.testing.assert_allclose(ch.eps, 0.25)
    assert np.isnan(ch.split)
    assert constraints_satisfied(tau, ch.eps, ch.matching, 0.25)


def test_negative_split_clamp():
    """When s < ε/2, the outside bound clamps at zero distance."""
    tau = np.array([0.0, 0.02, 0.1])
    eps = 0.3
    ch = select_deviations(tau, 2, eps)
    assert ch.split == pytest.approx(0.06)  # < ε/2, so the clamp engages
    assert ch.eps[2] == pytest.approx(0.1)  # τ_j − max(s − ε/2, 0) = τ_j


def test_bad_eps_raises():
    with pytest.raises(ValueError):
        select_deviations(np.array([0.1, 0.2]), 1, 0.0)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("k", [1, 3, 7])
@pytest.mark.parametrize("eps", [0.05, 0.2, 0.6])
def test_constraints_always_satisfied(seed, k, eps):
    rng = np.random.default_rng(seed)
    tau = np.sort(rng.uniform(0, 2, size=15)) if seed % 2 else rng.uniform(0, 2, 15)
    ch = select_deviations(tau, k, eps)
    assert constraints_satisfied(tau, ch.eps, ch.matching, eps)


@pytest.mark.parametrize("seed", range(6))
def test_maximality_inside_m(seed):
    """No ε_i inside M can grow without breaking a constraint."""
    rng = np.random.default_rng(50 + seed)
    tau = rng.uniform(0, 2, size=10)
    eps = 0.3
    ch = select_deviations(tau, 3, eps)
    s = ch.split
    for i in np.flatnonzero(ch.matching):
        # each ε_i sits exactly on its binding cap (the ε ceiling or the
        # split constraint), so any increase breaks Lemma 2 or the cap
        assert ch.eps[i] == pytest.approx(min(eps, s + eps / 2 - tau[i]))
        # (when the zero-clamp in constraint 1 is inactive, any increase
        # breaks Lemma 2 or the ε cap; with the clamp active the §3.3
        # scheme is sufficient but deliberately not per-candidate maximal)
        if s >= eps / 2:
            bumped = ch.eps.copy()
            bumped[i] += 1e-3
            assert bumped[i] > eps or not constraints_satisfied(
                tau, bumped, ch.matching, eps
            )


@given(
    tau=st.lists(st.floats(min_value=0, max_value=2), min_size=2, max_size=40),
    k=st.integers(min_value=1, max_value=40),
    eps=st.floats(min_value=1e-3, max_value=1.0),
)
@settings(max_examples=150, deadline=None)
def test_constraints_property(tau, k, eps):
    tau = np.array(tau)
    k = min(k, len(tau))
    ch = select_deviations(tau, k, eps)
    assert constraints_satisfied(tau, ch.eps, ch.matching, eps)
    assert ch.matching.sum() == k


@pytest.mark.parametrize("seed", range(10))
def test_nearest_changes_no_result(seed):
    """``nearest`` narrows the work only: any k+1 distinct candidates (the
    true first k+1, a random set, or the k+1 largest τ, which forces the
    full partition) give the same choice, and the returned ``nearest`` is
    the stable argsort's first k+1 (M, then the runner-up)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 400))
    tau = rng.choice(np.round(rng.uniform(0, 2, 12), 2), size=n)
    tau[rng.random(n) < 0.3] = 2.0
    order = np.argsort(tau, kind="stable")
    for k in (1, 3, 10, n - 1):
        want = select_deviations(tau, k, 0.2)
        np.testing.assert_array_equal(want.nearest, order[: k + 1])
        np.testing.assert_array_equal(np.flatnonzero(want.matching), np.sort(order[:k]))
        for near in (order[: k + 1], rng.choice(n, k + 1, replace=False), order[-(k + 1):]):
            got = select_deviations(tau, k, 0.2, near)
            assert np.array_equal(got.matching, want.matching)
            assert np.array_equal(got.eps, want.eps)
            assert got.split == want.split
            assert np.array_equal(got.nearest, want.nearest)
