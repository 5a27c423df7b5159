"""Bitmap index correctness and Algorithm 2 ≡ Algorithm 3 marking."""
import numpy as np
import pytest

from repro.storage.bitmap import (
    bitmap_from_index,
    build_bitmap,
    mark_lookahead,
    mark_naive,
)
from repro.storage.blocks import build_counts_index
from repro.workloads.queries import QUERIES


@pytest.fixture(scope="module")
def fl_bitmap(datasets):
    ds = datasets["flights"]
    bm = build_bitmap(
        ds.sdf, "origin", z_values=ds.meta.value_sets["origin"], n_blocks=ds.n_blocks
    )
    return ds, bm


def test_bitmap_shape(fl_bitmap):
    ds, bm = fl_bitmap
    assert bm.shape == (ds.n_blocks, 161)
    assert bm.dtype == bool


def test_bitmap_matches_data(fl_bitmap):
    ds, bm = fl_bitmap
    pdf = ds.sdf.toPandas()
    z_idx = {v: i for i, v in enumerate(ds.meta.value_sets["origin"])}
    truth = np.zeros_like(bm)
    for origin, block in zip(pdf["origin"], pdf["_block_id"]):
        truth[block, z_idx[origin]] = True
    np.testing.assert_array_equal(bm, truth)


def test_bitmap_from_index_equals_spark_build(fl_bitmap):
    ds, bm = fl_bitmap
    idx = build_counts_index(
        ds.sdf,
        "origin",
        "departure_hour",
        z_values=ds.meta.value_sets["origin"],
        x_values=ds.meta.value_sets["departure_hour"],
        n_blocks=ds.n_blocks,
    )
    np.testing.assert_array_equal(bitmap_from_index(idx), bm)


def test_bitmap_unknown_value_raises(datasets):
    ds = datasets["flights"]
    with pytest.raises(ValueError):
        build_bitmap(ds.sdf, "origin", z_values=["XX"], n_blocks=ds.n_blocks)


@pytest.mark.parametrize("seed", range(10))
def test_naive_equals_lookahead(seed):
    """Algorithm 2 (per-block early-exit probing) and Algorithm 3
    (vectorized batch marking) select identical blocks, on a 64-block
    batch (FastMatch) and on every one-block batch (SyncMatch)."""
    rng = np.random.default_rng(seed)
    bm = rng.random((200, 40)) < 0.1
    active_mask = rng.random(40) < 0.3
    batches = [rng.choice(200, size=64, replace=False)] + [[b] for b in range(200)]
    for blocks in batches:
        naive = mark_naive(bm, np.flatnonzero(active_mask), blocks)
        fast = mark_lookahead(bm, active_mask, blocks)
        np.testing.assert_array_equal(naive, fast)


def test_no_active_marks_nothing():
    bm = np.ones((10, 5), dtype=bool)
    assert not mark_lookahead(bm, np.zeros(5, dtype=bool), [0, 1, 2]).any()
    assert not mark_naive(bm, [], [0, 1, 2]).any()


def test_all_active_marks_nonempty_blocks(fl_bitmap):
    ds, bm = fl_bitmap
    marks = mark_lookahead(bm, np.ones(bm.shape[1], dtype=bool), np.arange(ds.n_blocks))
    # every block holds ≥1 tuple, hence ≥1 candidate bit
    assert marks.all()


@pytest.mark.parametrize("qid", sorted(QUERIES))
def test_tuple_count_exhaustion_equals_all_blocks_read(qid, prepared):
    """After reading block set S, n_i = N_i holds iff S contains every block
    whose Spark-built bit for i is set: the runner's exhaustion rule needs
    no per-block bookkeeping."""
    pq = prepared[qid]
    bm = build_bitmap(
        pq.ds.sdf, pq.spec.z, z_values=pq.z_values, n_blocks=pq.ds.n_blocks
    )
    totals = pq.exact_counts.sum(axis=1)
    rng = np.random.default_rng(0)
    for frac in (0.0, 0.5, 0.9, 0.99, 1.0):
        read = rng.random(pq.ds.n_blocks) < frac
        zi, _, cnt = pq.counts_index.gather(np.flatnonzero(read))
        n = np.bincount(zi, weights=cnt, minlength=pq.n_candidates)
        all_blocks_read = ~(bm & ~read[:, None]).any(axis=0)
        np.testing.assert_array_equal(n == totals, all_blocks_read)
