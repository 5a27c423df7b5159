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
        ds.codes["origin"],
        ds.codes["departure_hour"],
        z_values=ds.meta.value_sets["origin"],
        x_values=ds.meta.value_sets["departure_hour"],
        n_blocks=ds.n_blocks,
        tuples_per_block=ds.tuples_per_block,
    )
    np.testing.assert_array_equal(np.unpackbits(bitmap_from_index(idx), axis=1, count=161), bm)


def test_bitmap_unknown_value_raises(datasets):
    ds = datasets["flights"]
    with pytest.raises(ValueError):
        build_bitmap(ds.sdf, "origin", z_values=["XX"], n_blocks=ds.n_blocks)


@pytest.mark.parametrize("seed", range(10))
def test_naive_equals_lookahead(seed):
    """Algorithm 2 (per-block early-exit bit probing) and Algorithm 3
    (one word-AND per batch) both select exactly the blocks a plain
    numpy oracle on the *unpacked* bitmap selects, for |V_Z| on both
    sides of byte boundaries (padding bits in the last byte), on 64-block
    batches (FastMatch) and every one-block batch (SyncMatch), with
    random, all-active and no-active masks."""
    rng = np.random.default_rng(seed)
    for n_cand in (1, 7, 9, 40, 63, 65, 161):
        bm = rng.random((200, n_cand)) < 0.1
        packed = np.packbits(bm, axis=1)
        masks = (rng.random(n_cand) < 0.3, np.ones(n_cand, bool), np.zeros(n_cand, bool))
        batches = [rng.choice(200, size=64, replace=False)] + [[b] for b in range(200)]
        for active_mask in masks:
            for blocks in batches:
                want = bm[blocks][:, active_mask].any(axis=1)
                naive = mark_naive(packed, np.flatnonzero(active_mask), blocks)
                fast = mark_lookahead(packed, active_mask, blocks)
                np.testing.assert_array_equal(naive, want, err_msg=f"naive, |V_Z|={n_cand}")
                np.testing.assert_array_equal(fast, want, err_msg=f"lookahead, |V_Z|={n_cand}")


def test_no_active_marks_nothing():
    bm = np.packbits(np.ones((10, 5), dtype=bool), axis=1)
    assert not mark_lookahead(bm, np.zeros(5, dtype=bool), [0, 1, 2]).any()
    assert not mark_naive(bm, [], [0, 1, 2]).any()


def test_all_active_marks_nonempty_blocks(fl_bitmap):
    ds, bm = fl_bitmap
    marks = mark_lookahead(
        np.packbits(bm, axis=1), np.ones(bm.shape[1], dtype=bool), np.arange(ds.n_blocks)
    )
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
    # prepare()'s packed index holds exactly the Spark-built bits, and
    # zeros in the padding past |V_Z|.
    n_bytes = -(-pq.n_candidates // 8)
    assert pq.bitmap_t.dtype == np.uint8
    assert pq.bitmap_t.shape == (pq.ds.n_blocks, n_bytes)
    bits = np.unpackbits(pq.bitmap_t, axis=1)
    np.testing.assert_array_equal(bits[:, : pq.n_candidates], bm)
    assert not bits[:, pq.n_candidates :].any()
    totals = pq.exact_counts.sum(axis=1)
    rng = np.random.default_rng(0)
    for frac in (0.0, 0.5, 0.9, 0.99, 1.0):
        read = rng.random(pq.ds.n_blocks) < frac
        zi, _, cnt = pq.counts_index.gather(np.flatnonzero(read))
        n = np.bincount(zi, weights=cnt, minlength=pq.n_candidates)
        all_blocks_read = ~(bm & ~read[:, None]).any(axis=0)
        np.testing.assert_array_equal(n == totals, all_blocks_read)
