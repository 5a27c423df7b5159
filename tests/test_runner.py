"""The §5.2 variants: termination, mode equivalence, guarantees."""
import dataclasses

import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.core.distance import normalize_target
from repro.engine.runner import APPROX_VARIANTS, run_scan, run_variant, start_blocks
from repro.storage.blocks import BLOCK_COL
from repro.tables.metrics import (
    delta_d,
    guarantee1_satisfied,
    guarantee2_satisfied,
)
from repro.tables.table4 import run_query_experiment
from repro.workloads.queries import QUERIES, load_dataset, prepare
from tests.test_histsim import full_recompute

VARIANTS = sorted(APPROX_VARIANTS)


# -- basics ------------------------------------------------------------------


def test_unknown_variant_raises(flights_pq):
    with pytest.raises(ValueError):
        run_variant(flights_pq, "turbomatch", start_block=0)


def test_bad_mode_raises(flights_pq):
    with pytest.raises(ValueError):
        run_variant(flights_pq, "fastmatch", start_block=0, mode="dask")


def test_bad_lookahead_raises(flights_pq):
    with pytest.raises(ValueError):
        run_variant(flights_pq, "fastmatch", start_block=0, lookahead=0)


def test_start_block_is_required(flights_pq):
    """A run is a function of its start block: none is drawn for it."""
    with pytest.raises(TypeError, match="start_block"):
        run_variant(flights_pq, "fastmatch")


def test_bad_start_raises(flights_pq):
    with pytest.raises(ValueError):
        run_variant(flights_pq, "fastmatch", start_block=10**9)


def test_same_start_is_deterministic(flights_pq):
    """Two runs from one start block read the same blocks and return the
    same answer, counts and bound."""
    start = int(start_blocks(flights_pq.ds.n_blocks, 5, 1)[0])
    a = run_variant(flights_pq, "fastmatch", start_block=start)
    b = run_variant(flights_pq, "fastmatch", start_block=start)
    assert a.start_block == b.start_block == start
    assert (a.tuples_read, a.blocks_read, a.n_batches) == (b.tuples_read, b.blocks_read, b.n_batches)
    np.testing.assert_array_equal(a.topk_idx, b.topk_idx)
    np.testing.assert_array_equal(a.est_counts, b.est_counts)
    assert a.delta_upper == b.delta_upper


def test_records_are_frozen_and_read_only(prepared):
    """A run's record, the Scan's, and Table 4's summaries of runs are
    complete when returned: no field has a default, rebinding any field
    raises, and writing into any of their arrays raises."""
    pq = prepared["police-q1"]
    exp = run_query_experiment(pq, n_runs=1, seed=0)
    summary = exp.variants["fastmatch"]
    (run,) = summary.runs
    scan = run_scan(pq)
    for record in (run, scan, summary, exp):
        for f in dataclasses.fields(record):
            assert f.default is f.default_factory is dataclasses.MISSING, f.name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, f.name, getattr(record, f.name))
    assert isinstance(summary.runs, tuple)
    for a in (run.topk_idx, run.tau_est, run.est_counts, scan.topk_idx, scan.tau):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0]


# -- counters & termination --------------------------------------------------


@pytest.mark.parametrize("variant", VARIANTS)
def test_counters_sane(variant, flights_pq):
    r = run_variant(flights_pq, variant, start_block=7)
    assert 0 < r.tuples_read <= flights_pq.ds.n_rows
    assert r.blocks_read <= r.blocks_considered <= flights_pq.ds.n_blocks
    assert r.n_stat_iters <= r.n_batches
    assert r.est_counts.sum() == r.tuples_read
    assert len(r.topk_idx) == flights_pq.spec.k
    # read everything (exact, δ^upper = 0), or stopped by its own criterion,
    # which δ^upper then satisfies
    if r.tuples_read == flights_pq.ds.n_rows:
        assert r.stop_reason == "exhausted"
        assert r.delta_upper == 0.0
    else:
        want = "max_delta" if variant == "slowmatch" else "sum_delta"
        assert r.stop_reason == want
        assert r.delta_upper <= r.delta


@pytest.fixture(scope="module")
def police_q1_sf003():
    """police-q1 at SF 0.03 (5625 blocks): large enough that every variant
    stops on its own criterion; at the suite's SF 0.01 most runs read
    every block."""
    return prepare(load_dataset(None, "police", sf=0.03), QUERIES["police-q1"])


@pytest.mark.parametrize("variant", VARIANTS)
def test_stop_reason_names_the_criterion(variant, police_q1_sf003):
    """A run that stops before the last block reports its variant's
    criterion: SlowMatch's max δ_i ≤ δ/|V_Z|, Σδ_i ≤ δ for the rest."""
    r = run_variant(police_q1_sf003, variant, start_block=7)
    assert r.blocks_considered < police_q1_sf003.ds.n_blocks
    assert r.stop_reason == ("max_delta" if variant == "slowmatch" else "sum_delta")
    assert r.delta_upper <= r.delta


@pytest.mark.parametrize("variant", VARIANTS)
def test_full_read_is_exact(variant, flights_pq):
    """With ε tiny the run must fall through to the exhaustion path and
    return the exact answer with δ_upper = 0."""
    r = run_variant(flights_pq, variant, eps=1e-3, start_block=0)
    assert r.tuples_read == flights_pq.ds.n_rows
    assert r.blocks_considered == flights_pq.ds.n_blocks
    assert r.stop_reason == "exhausted"
    assert r.delta_upper == 0.0
    np.testing.assert_array_equal(
        np.sort(r.topk_idx), np.sort(flights_pq.true_topk())
    )


@pytest.fixture(scope="module")
def police_q1_sf0001():
    """police-q1 at SF 0.001: 188 blocks, the last one holding 16 rows."""
    return prepare(load_dataset(None, "police", sf=0.001), QUERIES["police-q1"])


@pytest.mark.parametrize("start", ["first", "last"])
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("pq_name", ["police_q1_sf0001", "flights_pq"])
def test_final_statistics_equal_recompute(pq_name, variant, start, request):
    """A run's final τ, top-k and δ^upper equal a from-scratch recompute
    over its own final counts, bit for bit.  A run reports ``exhausted``
    exactly when it read every tuple, and then δ^upper is 0; otherwise it
    reports its criterion, which δ^upper meets."""
    pq = request.getfixturevalue(pq_name)
    start_block = 0 if start == "first" else pq.ds.n_blocks - 1
    r = run_variant(pq, variant, start_block=start_block)
    tau, *_, upper = full_recompute(
        r.est_counts, pq.totals, normalize_target(pq.target), pq.spec.k, r.eps
    )
    assert np.array_equal(r.tau_est, tau)
    assert np.array_equal(r.topk_idx, np.argsort(tau, kind="stable")[: pq.spec.k])
    assert r.delta_upper == upper
    if r.tuples_read == pq.ds.n_rows:
        assert r.stop_reason == "exhausted"
        assert r.delta_upper == 0.0
    else:
        assert r.stop_reason == ("max_delta" if variant == "slowmatch" else "sum_delta")
        assert r.delta_upper <= r.delta


def test_pruned_run_that_considers_every_block_names_its_criterion(flights_pq):
    """flights-q1 FastMatch from block 0 considers every block but skips
    those of settled candidates, and meets Σδ ≤ δ on its last batch: it
    is not reported as ``exhausted``, which would claim an exact answer."""
    r = run_variant(flights_pq, "fastmatch", start_block=0)
    assert r.blocks_considered == flights_pq.ds.n_blocks
    assert r.tuples_read < flights_pq.ds.n_rows
    assert r.stop_reason == "sum_delta"
    assert r.delta_upper <= r.delta


def test_slowmatch_needs_at_least_scanmatch_samples(flights_pq):
    slow = run_variant(flights_pq, "slowmatch", start_block=3)
    scan = run_variant(flights_pq, "scanmatch", start_block=3)
    assert slow.tuples_read >= scan.tuples_read


def test_fastmatch_reads_at_most_scanmatch(flights_pq):
    fast = run_variant(flights_pq, "fastmatch", start_block=3)
    scan = run_variant(flights_pq, "scanmatch", start_block=3)
    assert fast.tuples_read <= scan.tuples_read


def test_wraparound_start(flights_pq):
    r = run_variant(flights_pq, "scanmatch", start_block=flights_pq.ds.n_blocks - 1)
    assert r.tuples_read > 0


# -- spark mode ≡ replay mode ------------------------------------------------


@pytest.mark.parametrize("variant", ["scanmatch", "fastmatch"])
def test_modes_equivalent(variant, prepared):
    pq = prepared["police-q1"]
    a = run_variant(pq, variant, start_block=11, mode="replay")
    b = run_variant(pq, variant, start_block=11, mode="spark")
    assert a.tuples_read == b.tuples_read
    assert a.blocks_read == b.blocks_read
    assert a.n_batches == b.n_batches
    np.testing.assert_array_equal(a.topk_idx, b.topk_idx)
    np.testing.assert_array_equal(a.est_counts, b.est_counts)


def test_syncmatch_modes_equivalent_small(spark):
    """Per-block spark jobs are slow, so check on police at SF 0.001
    (188 blocks) with a start 40 blocks before the end, so the run must
    wrap past the last block."""
    ds = load_dataset(spark, "police", sf=0.001)
    try:
        pq = prepare(ds, QUERIES["police-q1"])
        start = ds.n_blocks - 40
        a = run_variant(pq, "syncmatch", start_block=start, mode="replay")
        b = run_variant(pq, "syncmatch", start_block=start, mode="spark")
    finally:
        ds.sdf.unpersist()
    assert a.blocks_considered > 40
    assert a.tuples_read == b.tuples_read
    assert a.blocks_read == b.blocks_read
    np.testing.assert_array_equal(a.topk_idx, b.topk_idx)
    np.testing.assert_array_equal(a.est_counts, b.est_counts)


@pytest.mark.parametrize("column, value", [("road_id", None), ("contraband_found", "MAYBE")])
def test_spark_paths_reject_null_and_unseen_values(column, value, prepared, spark):
    """A NULL Z or an X value outside the vocabulary in a fetched block
    raises, as ``encode`` does for the replay codes at load, instead of
    being counted against the last candidate or bin."""
    pq = prepared["police-q1"]
    sdf = pq.ds.sdf
    row = sdf.filter(F.col(BLOCK_COL) == 0).first().asDict()
    row[column] = value
    bad_ds = dataclasses.replace(pq.ds)
    bad_ds.sdf = sdf.unionByName(spark.createDataFrame([row], schema=sdf.schema))
    bad_pq = dataclasses.replace(pq, ds=bad_ds)
    with pytest.raises(ValueError, match=column):
        run_variant(bad_pq, "fastmatch", start_block=0, mode="spark")


# -- the guarantees, across every query and variant --------------------------


@pytest.mark.parametrize("qid", [
    "flights-q1", "flights-q2", "flights-q3", "flights-q4",
    "taxi-q1", "taxi-q2", "police-q1", "police-q2", "police-q3",
])
@pytest.mark.parametrize("variant", VARIANTS)
def test_guarantees_hold(qid, variant, prepared):
    pq = prepared[qid]
    r = run_variant(pq, variant, start_block=int(start_blocks(pq.ds.n_blocks, 42, 1)[0]))
    assert guarantee1_satisfied(r.topk_idx, pq.tau_star, pq.spec.k, r.eps)
    assert guarantee2_satisfied(r.topk_idx, r.est_counts, pq.exact_counts, r.eps)
    assert delta_d(r.topk_idx, pq.tau_star, pq.spec.k) < 0.5


# -- Scan --------------------------------------------------------------------


@pytest.mark.parametrize("qid", sorted(QUERIES))
def test_scan_matches_ground_truth_per_query(qid, prepared):
    """Scan reads only the codes: on a copy with no SparkSession, and so
    no relation, it still returns the DuckDB-checked true top-k and τ*."""
    pq = prepared[qid]
    bare = dataclasses.replace(pq, ds=dataclasses.replace(pq.ds, spark=None))
    s = run_scan(bare)
    assert "sdf" not in vars(bare.ds)
    np.testing.assert_array_equal(s.topk_idx, pq.true_topk())
    np.testing.assert_allclose(s.tau, pq.tau_star, rtol=0, atol=1e-9)
    assert s.wall > 0


def test_replay_needs_no_spark():
    """A dataset loaded with no SparkSession runs every query of its
    dataset, in every variant and the Scan, without building a relation;
    reading the relation then raises."""
    ds = load_dataset(None, "police", sf=0.001)
    for qid in ("police-q1", "police-q2", "police-q3"):
        pq = prepare(ds, QUERIES[qid])
        for variant in VARIANTS:
            start = int(start_blocks(pq.ds.n_blocks, 1, 1)[0])
            r = run_variant(pq, variant, start_block=start, mode="replay")
            assert guarantee1_satisfied(r.topk_idx, pq.tau_star, pq.spec.k, r.eps)
        np.testing.assert_array_equal(run_scan(pq).topk_idx, pq.true_topk())
    assert "sdf" not in vars(ds)
    with pytest.raises(RuntimeError, match="without a SparkSession"):
        ds.sdf
