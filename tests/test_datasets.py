"""Workload generators: schemas, determinism, and engineered geometry."""
import hashlib

import numpy as np
import pytest

from repro.core.distance import l1_distances
from repro.workloads import datasets as wd


@pytest.fixture(scope="module", params=["flights", "taxi", "police"])
def gen(request):
    pdf, meta = wd.generate(request.param, sf=0.005, seed=99)
    return request.param, pdf, meta


# -- generic properties ------------------------------------------------------


def test_row_count(gen):
    name, pdf, meta = gen
    assert len(pdf) == int(wd.N_ROWS_PER_SF * 0.005)
    assert meta.n_rows == len(pdf)


def test_block_ids_assigned(gen):
    """Block ``b`` is rows ``[b·tpb, (b+1)·tpb)``, at the default 32
    (30,000 rows, so the last block is partial) and at 3; the block size
    changes no other column."""
    name, pdf, _ = gen
    frames = {wd.DEFAULT_TUPLES_PER_BLOCK: pdf}
    frames[3], _ = wd.generate(name, sf=0.005, seed=99, tuples_per_block=3)
    for tpb, frame in frames.items():
        assert frame["_block_id"].dtype == np.int64
        np.testing.assert_array_equal(frame["_block_id"], np.arange(len(frame)) // tpb)
    assert frames[3].drop(columns="_block_id").equals(pdf.drop(columns="_block_id"))


def test_generate_bad_tuples_per_block():
    with pytest.raises(ValueError, match="tuples_per_block"):
        wd.generate("flights", sf=0.001, tuples_per_block=0)


def test_deterministic(gen):
    name, pdf, _ = gen
    pdf2, _ = wd.generate(name, sf=0.005, seed=99)
    assert pdf.equals(pdf2)


def test_seed_changes_data(gen):
    name, pdf, _ = gen
    pdf2, _ = wd.generate(name, sf=0.005, seed=100)
    assert not pdf.equals(pdf2)


def test_values_within_value_sets(gen):
    _, pdf, meta = gen
    for col, values in meta.value_sets.items():
        assert set(pdf[col].unique()) <= set(values)
        assert values == sorted(values)


def test_marginal_probs_sum_to_one(gen):
    _, _, meta = gen
    for col, m in meta.marginals.items():
        assert m.sum() == pytest.approx(1.0)
        assert (m > 0).all()


def test_profiles_are_distributions(gen):
    _, _, meta = gen
    for (zc, xc), prof in meta.profiles.items():
        np.testing.assert_allclose(prof.sum(axis=1), 1.0, atol=1e-9)
        assert (prof >= 0).all()


def test_empirical_marginal_tracks_design(gen):
    _, pdf, meta = gen
    n = len(pdf)
    for col, m in meta.marginals.items():
        vals = meta.value_sets[col]
        emp = pdf[col].value_counts(normalize=True).reindex(vals).fillna(0).to_numpy()
        # expected multinomial ℓ1 noise ≈ sqrt(2/π)·Σ√(m_i)/√n; allow 2×
        expected = np.sqrt(2 / np.pi) * np.sqrt(m).sum() / np.sqrt(n)
        assert np.abs(emp - m).sum() < 0.02 + 2 * expected


def test_empirical_conditional_tracks_profile(gen):
    """For the most frequent candidate, the empirical conditional is
    close to its designed profile."""
    name, pdf, meta = gen
    for (zc, xc), prof in meta.profiles.items():
        vals = meta.value_sets[zc]
        top_val = pdf[zc].value_counts().idxmax()
        zi = vals.index(top_val)
        xvals = meta.value_sets[xc]
        emp = (
            pdf.loc[pdf[zc] == top_val, xc]
            .value_counts(normalize=True)
            .reindex(xvals)
            .fillna(0)
            .to_numpy()
        )
        assert np.abs(emp - prof[zi]).sum() < 0.25


def test_unknown_dataset_raises():
    with pytest.raises(ValueError):
        wd.generate("nope", sf=0.001)


# -- engineered geometry -----------------------------------------------------


def _designed_tau(meta, zc, xc, target_idx):
    prof = meta.profiles[(zc, xc)]
    return l1_distances(prof * 10**6, prof[target_idx])


def test_flights_hub_cluster_nearest_to_ord():
    _, meta = wd.generate("flights", sf=0.001, seed=10)
    tau = _designed_tau(meta, "origin", "departure_hour", wd.ORD_ID)
    top10 = set(np.argsort(tau, kind="stable")[:10].tolist())
    assert top10 <= set(wd.FLIGHTS_HUBS)


def test_flights_atw_cluster_nearest_to_atw():
    _, meta = wd.generate("flights", sf=0.001, seed=10)
    tau = _designed_tau(meta, "origin", "departure_hour", wd.ATW_ID)
    top10 = set(np.argsort(tau, kind="stable")[:10].tolist())
    assert top10 <= set([wd.ATW_ID] + wd.FLIGHTS_ATW_NEIGHBORS)


def test_flights_monday_cluster():
    _, meta = wd.generate("flights", sf=0.001, seed=10)
    prof = meta.profiles[("origin", "day_of_week")]
    monday = np.array([0.25] + [0.125] * 6)
    tau = l1_distances(prof * 10**6, monday)
    top5 = set(np.argsort(tau, kind="stable")[:5].tolist())
    assert top5 <= set(wd.FLIGHTS_MONDAY)


def test_flights_hubs_are_frequent():
    _, meta = wd.generate("flights", sf=0.001, seed=10)
    m = meta.marginals["origin"]
    assert all(m[h] == pytest.approx(0.03) for h in wd.FLIGHTS_HUBS)
    assert m[wd.ATW_ID] < 0.004  # ATW is rare (dimension (ii) of §5.1)


def test_taxi_uniform_hour_cluster():
    _, meta = wd.generate("taxi", sf=0.001, seed=20)
    prof = meta.profiles[("location", "hour_of_day")]
    tau = l1_distances(prof * 10**6, np.full(24, 1 / 24))
    top10 = set(np.argsort(tau, kind="stable")[:10].tolist())
    assert top10 <= set(wd.TAXI_Q1_CLUSTER)


def test_taxi_uniform_month_cluster():
    _, meta = wd.generate("taxi", sf=0.001, seed=20)
    prof = meta.profiles[("location", "month_of_year")]
    tau = l1_distances(prof * 10**6, np.full(12, 1 / 12))
    top10 = set(np.argsort(tau, kind="stable")[:10].tolist())
    assert top10 <= set(wd.TAXI_Q2_CLUSTER)


def test_taxi_cardinality():
    _, meta = wd.generate("taxi", sf=0.001, seed=20)
    assert len(meta.value_sets["location"]) == wd.N_LOCATIONS == 3072


def test_police_contraband_cluster_near_half():
    _, meta = wd.generate("police", sf=0.001, seed=30)
    prof = meta.profiles[("road_id", "contraband_found")]
    tau = l1_distances(prof * 10**6, np.array([0.5, 0.5]))
    top10 = set(np.argsort(tau, kind="stable")[:10].tolist())
    assert top10 <= set(wd.POLICE_Q1_CLUSTER)


def test_police_race_cluster_near_uniform():
    _, meta = wd.generate("police", sf=0.001, seed=30)
    prof = meta.profiles[("road_id", "officer_race")]
    tau = l1_distances(prof * 10**6, np.full(5, 0.2))
    top10 = set(np.argsort(tau, kind="stable")[:10].tolist())
    assert top10 <= set(wd.POLICE_Q2_CLUSTER)


def test_police_gender_cluster_near_half():
    _, meta = wd.generate("police", sf=0.001, seed=30)
    prof = meta.profiles[("violation", "driver_gender")]
    tau = l1_distances(prof * 10**6, np.array([0.5, 0.5]))
    top5 = set(np.argsort(tau, kind="stable")[:5].tolist())
    assert top5 <= set(wd.POLICE_Q3_CLUSTER)


# -- building blocks ---------------------------------------------------------


def test_marginal_with_cluster_pins_and_grades():
    m = wd.marginal_with_cluster(10, {2: 0.3, 5: 0.2}, alpha=1.0)
    assert m[2] == pytest.approx(0.3)
    assert m[5] == pytest.approx(0.2)
    rest = [m[i] for i in range(10) if i not in (2, 5)]
    assert rest == sorted(rest, reverse=True)  # graded, never flat
    assert m.sum() == pytest.approx(1.0)


def test_marginal_with_cluster_bad_mass():
    with pytest.raises(ValueError):
        wd.marginal_with_cluster(5, {0: 1.5}, alpha=1.0)


def test_graded_centers_endpoints():
    base = np.array([1.0, 0.0])
    pole = np.array([[0.0, 1.0]])
    out = wd.graded_centers(base, pole, [0, 0, 0], [0.0, 0.5, 1.0])
    np.testing.assert_allclose(out, [[1, 0], [0.5, 0.5], [0, 1]])


def test_sample_conditional_respects_profiles():
    """Two X columns drawn from one sort of the candidate codes each follow
    their candidate's profile, as int32 codes in row order."""
    rng = np.random.default_rng(0)
    z = rng.integers(0, 2, 20_000).astype(np.int32)
    sample = wd.conditional_sampler(z, 2)
    for prof in (np.array([[0.9, 0.1], [0.1, 0.9]]), np.array([[0.3, 0.7], [0.8, 0.2]])):
        x = sample(prof, rng)
        assert x.dtype == np.int32
        assert np.mean(x[z == 0]) == pytest.approx(prof[0, 1], abs=0.02)
        assert np.mean(x[z == 1]) == pytest.approx(prof[1, 1], abs=0.02)


def test_conditional_sampler_rejects_wide_candidates():
    with pytest.raises(ValueError, match="2\\*\\*16"):
        wd.conditional_sampler(np.zeros(4, dtype=np.int32), (1 << 16) + 1)


# -- the draw pipeline -------------------------------------------------------


def _digest(codes: dict, meta) -> str:
    """SHA-256 over every code array (name, dtype, bytes) and every meta
    field, ``value_sets`` in its key order."""
    h = hashlib.sha256()
    for c in sorted(codes):
        h.update(f"{c}:{codes[c].dtype}:".encode() + codes[c].tobytes())
    h.update(repr((meta.name, meta.n_rows, list(meta.value_sets.items()))).encode())
    for k in sorted(meta.marginals):
        h.update(f"{k}:{meta.marginals[k].dtype}:".encode() + meta.marginals[k].tobytes())
    for k in sorted(meta.profiles):
        p = meta.profiles[k]
        h.update(f"{k}:{p.dtype}:{p.shape}:".encode() + p.tobytes())
    return h.hexdigest()


#: ``draw(name, sf=0.002, seed=seed)`` digests: any change to the drawn
#: codes, their dtype or the meta changes one.
DRAW_DIGESTS = {
    ("flights", None):
        "4c55a7da838d7ae62de86a58824e6917481b4efcd70a328c5fa4e88b4ef783dc",
    ("flights", 99):
        "2c5ff909f0992355b044287436ae7533740ebe1f05ca8b70d470d6fbb3162650",
    ("taxi", None):
        "f5d85c91a290e6be91515877e0187f675e149fe552a822066a8a7d0abe5320b6",
    ("taxi", 99):
        "a4b6afc7a14b655b3bc80a3aab23ce849b03cfda4c4918d61b4c9fa3d6325519",
    ("police", None):
        "13ca338eebad2e21f711d166b07162b32b42516e24b57c3c8df2061e8bdb3e3f",
    ("police", 99):
        "427623646ceaf8dad4fb542df220192894edea87cf6127da834413fda21fb994",
}


@pytest.mark.parametrize("name, seed", list(DRAW_DIGESTS))
def test_draw_is_byte_identical(name, seed):
    assert _digest(*wd.draw(name, sf=0.002, seed=seed)) == DRAW_DIGESTS[name, seed]


@pytest.mark.parametrize("name, n_sorts", [("flights", 1), ("taxi", 1), ("police", 2)])
def test_draw_sorts_each_candidate_column_once(name, n_sorts, monkeypatch):
    calls = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **k: calls.append(1) or argsort(*a, **k))
    wd.draw(name, sf=0.002)
    assert len(calls) == n_sorts
