"""Query specs (Table 3), load_dataset's codes and the prepare() pipeline."""
import dataclasses

import duckdb
import numpy as np
import pandas as pd
import pytest

from repro.core.distance import l1_distances
from repro.oracle import assert_equivalent
from repro.storage.blocks import BLOCK_COL
from repro.workloads import datasets as wd
from repro.workloads import queries
from repro.workloads.queries import QUERIES, QuerySpec, compute_target, prepare

from .conftest import SF_TEST


def test_nine_queries_match_table3():
    assert len(QUERIES) == 9
    assert {q.dataset for q in QUERIES.values()} == {"flights", "taxi", "police"}
    assert all(qid == spec.qid for qid, spec in QUERIES.items())


@pytest.mark.parametrize("qid,spec", sorted(QUERIES.items()))
def test_spec_sanity(qid, spec):
    assert spec.k in (5, 10)
    assert 0 < spec.eps < 2
    assert spec.paper_eps in (0.06, 0.07)
    assert spec.target_kind in ("candidate", "explicit", "uniform_closest")


def test_flights_q3_target_is_papers_vector():
    spec = QUERIES["flights-q3"]
    assert spec.target_arg[1] == 0.25
    assert all(spec.target_arg[d] == 0.125 for d in range(2, 8))


@pytest.mark.parametrize("qid", sorted(QUERIES))
def test_prepare_ground_truth_consistency(qid, prepared):
    pq = prepared[qid]
    assert pq.exact_counts.sum() == pq.ds.n_rows
    assert pq.exact_counts.shape == (pq.n_candidates, pq.d)
    # N_i, precomputed once for every run, and shared read-only
    assert pq.totals.dtype == np.int64 and not pq.totals.flags.writeable
    np.testing.assert_array_equal(pq.totals, pq.exact_counts.sum(axis=1))
    assert pq.bitmap.shape == (-(-pq.n_candidates // 8), pq.ds.n_blocks)
    np.testing.assert_allclose(
        pq.tau_star, l1_distances(pq.exact_counts, pq.target)
    )
    assert len(pq.true_topk()) == pq.spec.k


def test_candidate_target_has_zero_distance(prepared):
    for qid in ("flights-q1", "flights-q2"):
        pq = prepared[qid]
        zi = pq.z_values.index(pq.spec.target_arg)
        assert pq.tau_star[zi] == pytest.approx(0.0)
        assert zi in set(pq.true_topk().tolist())


def test_uniform_closest_targets_in_designed_cluster(prepared):
    clusters = {
        "taxi-q1": wd.TAXI_Q1_CLUSTER,
        "taxi-q2": wd.TAXI_Q2_CLUSTER,
        "police-q1": wd.POLICE_Q1_CLUSTER,
        "police-q2": wd.POLICE_Q2_CLUSTER,
        "police-q3": wd.POLICE_Q3_CLUSTER,
        "flights-q4": wd.FLIGHTS_HUBS,
    }
    for qid, cluster in clusters.items():
        pq = prepared[qid]
        best = int(np.argmin(l1_distances(pq.exact_counts, np.full(pq.d, 1.0 / pq.d))))
        assert best in cluster, f"{qid}: target candidate {best} not in cluster"


def test_explicit_target_vector(prepared):
    pq = prepared["flights-q3"]
    np.testing.assert_allclose(pq.target, [0.25] + [0.125] * 6)


def test_compute_target_errors():
    for kind, arg in (("explicit", {99: 1.0}), ("candidate", "ORG999"), ("bogus", None)):
        with pytest.raises(ValueError):
            compute_target(
                QuerySpec("flights", "qx", "origin", "day_of_week", 5, 0.1, 0.06,
                          kind, arg),
                ["ORG000", "ORG001"],
                [1, 2, 3],
                np.ones((2, 3)),
            )


@pytest.mark.parametrize("name", ["flights", "taxi", "police"])
def test_codes_decode_to_generated_columns(name, datasets):
    """Decoding ``ds.codes`` through the vocabulary gives back the
    generator's own columns (same SF, same default seed), row for row;
    the codes are read-only, as the block stores checked them once."""
    ds = datasets[name]
    pdf, meta = wd.generate(name, sf=SF_TEST)
    assert len(pdf) == ds.n_rows
    assert set(ds.codes) == set(meta.value_sets)
    for col, vocab in meta.value_sets.items():
        assert ds.codes[col].dtype == np.int32 and not ds.codes[col].flags.writeable
        np.testing.assert_array_equal(np.asarray(vocab)[ds.codes[col]], pdf[col].to_numpy())


@pytest.mark.parametrize("name", ["flights", "taxi", "police"])
def test_relation_is_the_decoded_codes(name, datasets, monkeypatch):
    """The Spark relation is built from the codes the dataset holds, with
    no second draw: its columns are the vocabulary columns plus
    ``_block_id``, and its rows are ``generate``'s frame, row for row."""
    fresh = dataclasses.replace(datasets[name])  # loaded; its relation not yet built

    def second_draw(*args, **kwargs):
        raise AssertionError("the relation drew the dataset again")

    for module, attr in ((wd, "draw"), (wd, "generate"), (queries, "draw"), (queries, "generate")):
        monkeypatch.setattr(module, attr, second_draw)
    try:
        got = fresh.sdf.toPandas()
    finally:
        if "sdf" in vars(fresh):
            fresh.sdf.unpersist()
    monkeypatch.undo()
    want, meta = wd.generate(name, sf=SF_TEST)
    assert list(got.columns) == [*meta.value_sets, BLOCK_COL]
    pd.testing.assert_frame_equal(got, want[got.columns])


@pytest.mark.parametrize("qid", sorted(QUERIES))
def test_prepare_needs_no_spark(qid, prepared):
    """prepare() reads only the dataset's codes: on a copy with no
    SparkSession, and so no relation, it builds the same ground truth,
    bitmap and target as the DuckDB-checked ``prepared`` fixture."""
    pq = prepared[qid]
    bare = prepare(dataclasses.replace(pq.ds, spark=None), pq.spec)
    assert "sdf" not in vars(bare.ds)
    for field in ("exact_counts", "bitmap_t", "target", "tau_star"):
        np.testing.assert_array_equal(getattr(bare, field), getattr(pq, field))


def test_prepare_wrong_dataset_raises(datasets):
    with pytest.raises(ValueError):
        prepare(datasets["flights"], QUERIES["taxi-q1"])


@pytest.mark.parametrize("qid", sorted(QUERIES))
def test_exact_counts_oracle(qid, prepared):
    """The numpy ground truth (what Scan and every guarantee check are
    held to) equals a DuckDB aggregation of the Spark relation, cell for
    cell, zeros included."""
    pq = prepared[qid]
    z, x = pq.spec.z, pq.spec.x
    con = duckdb.connect()
    con.register("data", pq.ds.sdf.select(z, x).toPandas())
    rows = con.execute(f"SELECT {z}, {x}, COUNT(*) AS c FROM data GROUP BY 1, 2").fetchall()
    con.close()
    zpos = {v: i for i, v in enumerate(pq.z_values)}
    xpos = {v: i for i, v in enumerate(pq.x_values)}
    want = np.zeros_like(pq.exact_counts)
    for zv, xv, c in rows:
        want[zpos[zv], xpos[xv]] = c
    np.testing.assert_array_equal(pq.exact_counts, want)


def test_true_topk_lands_in_engineered_clusters(prepared):
    """At test SF the sampling jitter is large, so require only a
    majority of the true top-k inside the designed cluster."""
    checks = {
        "flights-q1": set(wd.FLIGHTS_HUBS),
        "flights-q2": set([wd.ATW_ID] + wd.FLIGHTS_ATW_NEIGHBORS),
        "police-q1": set(wd.POLICE_Q1_CLUSTER),
    }
    for qid, cluster in checks.items():
        pq = prepared[qid]
        hits = sum(1 for i in pq.true_topk() if int(i) in cluster)
        assert hits >= pq.spec.k // 2, f"{qid}: only {hits} of top-k in cluster"
