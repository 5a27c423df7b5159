"""Blocked layout, the guarded decoder and the counts index, oracle-checked."""
import duckdb
import numpy as np
import pandas as pd
import pytest

from repro.oracle import assert_equivalent
from repro.storage.blocks import (
    BLOCK_COL,
    block_counts,
    build_counts_index,
    encode,
    exact_counts,
)
from repro.workloads import datasets as wd
from repro.workloads.queries import QUERIES


def test_add_block_ids_positions():
    """``generate`` adds ``_block_id`` by row position: row ``i`` is in
    block ``i // tuples_per_block``."""
    pdf, meta = wd.generate("flights", sf=0.001, tuples_per_block=3)
    assert list(pdf[BLOCK_COL][:10]) == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3]
    assert pdf[BLOCK_COL].iloc[-1] == (meta.n_rows - 1) // 3


# -- block_counts vs DuckDB --------------------------------------------------


def test_block_counts_oracle(datasets):
    """A spark-mode lookahead batch: 512 blocks that wrap past the last
    block, as the round loop issues them."""
    ds = datasets["flights"]
    ids = np.arange(ds.n_blocks - 200, ds.n_blocks + 312) % ds.n_blocks
    assert_equivalent(
        block_counts(ds.sdf, "origin", "day_of_week", ids),
        "SELECT origin, day_of_week, COUNT(*) AS cnt FROM flights "
        f"WHERE {BLOCK_COL} >= {ds.n_blocks - 200} OR {BLOCK_COL} < 312 GROUP BY ALL",
        flights=ds.sdf.toPandas(),
    )


def test_block_counts_filtered_oracle(datasets):
    ds = datasets["flights"]
    pdf = ds.sdf.toPandas()
    ids = [0, 5, 10, 11]
    got = block_counts(ds.sdf, "origin", "day_of_week", block_ids=ids)
    assert_equivalent(
        got,
        "SELECT origin, day_of_week, COUNT(*) AS cnt FROM flights "
        f"WHERE {BLOCK_COL} IN (0, 5, 10, 11) GROUP BY 1, 2",
        flights=pdf,
    )


# -- counts index ------------------------------------------------------------


@pytest.fixture(scope="module")
def fl_index(datasets):
    ds = datasets["flights"]
    return ds, build_counts_index(
        ds.codes["origin"],
        ds.codes["day_of_week"],
        z_values=ds.meta.value_sets["origin"],
        x_values=ds.meta.value_sets["day_of_week"],
        n_blocks=ds.n_blocks,
        tuples_per_block=ds.tuples_per_block,
    )


def test_index_exact_counts_match_spark(fl_index):
    ds, idx = fl_index
    pdf = (
        ds.sdf.groupBy("origin", "day_of_week").count().toPandas()
    )
    exact = exact_counts(idx.z_idx, idx.x_idx, len(idx.z_values), len(idx.x_values))
    origins = {v: i for i, v in enumerate(idx.z_values)}
    for _, row in pdf.iterrows():
        zi = origins[row["origin"]]
        xi = idx.x_values.index(row["day_of_week"])
        assert exact[zi, xi] == row["count"]
    assert exact.sum() == ds.n_rows


def test_index_gather_matches_slices(fl_index):
    """The offset-arithmetic gather equals explicit per-block
    ``offsets[b]:offsets[b+1]`` slicing, concatenated in request order."""
    ds, idx = fl_index
    n = idx.n_blocks
    rng = np.random.default_rng(0)
    block_sets = [
        rng.choice(n, size=50, replace=False),  # unordered, non-contiguous
        np.sort(rng.choice(n, size=50, replace=False)),
        [int(rng.integers(n))],  # a single block
        np.arange(n - 3, n + 5) % n,  # a window that wraps past the last block
        [],
    ]
    for blocks in block_sets:
        got = idx.gather(blocks)
        for arr, g in zip((idx.z_idx, idx.x_idx, idx.cnt), got):
            want = [arr[:0]] + [arr[idx.offsets[b] : idx.offsets[b + 1]] for b in blocks]
            np.testing.assert_array_equal(g, np.concatenate(want))
    assert idx.gather(np.arange(n))[2].sum() == ds.n_rows
    assert max(idx.gather([b])[2].sum() for b in range(n)) <= ds.tuples_per_block


def test_index_gather_empty(fl_index):
    _, idx = fl_index
    zi, xi, cnt = idx.gather([])
    assert len(zi) == len(xi) == len(cnt) == 0


@pytest.mark.parametrize(
    "qid", sorted(q for q, spec in QUERIES.items() if spec.dataset in ("flights", "taxi"))
)
def test_index_blocks_oracle(qid, prepared):
    """Every block's (z, x) counts from ``gather([b])`` equal DuckDB's
    ``GROUP BY _block_id, z, x`` over the Spark relation, so the driver's
    codes and the relation hold the same rows in the same blocks."""
    pq = prepared[qid]
    z, x, idx = pq.spec.z, pq.spec.x, pq.counts_index
    blocks = [idx.gather([b]) for b in range(idx.n_blocks)]
    got = (
        pd.DataFrame({
            BLOCK_COL: np.repeat(np.arange(idx.n_blocks), [len(c) for _, _, c in blocks]),
            z: np.asarray(idx.z_values)[np.concatenate([zi for zi, _, _ in blocks])],
            x: np.asarray(idx.x_values)[np.concatenate([xi for _, xi, _ in blocks])],
            "cnt": np.concatenate([c for _, _, c in blocks]),
        })
        .groupby([BLOCK_COL, z, x], as_index=False)["cnt"].sum()
    )
    con = duckdb.connect()
    con.register("data", pq.ds.sdf.toPandas())
    want = con.execute(
        f"SELECT {BLOCK_COL}, {z}, {x}, COUNT(*) AS cnt FROM data GROUP BY ALL"
    ).fetchdf()
    con.close()
    keys = [BLOCK_COL, z, x]
    pd.testing.assert_frame_equal(
        got.sort_values(keys).reset_index(drop=True),
        want.sort_values(keys).reset_index(drop=True),
        check_dtype=False,
    )


# -- the guarded decoder -----------------------------------------------------


def test_encode_rejects_null_and_unseen():
    """Valid values map to their int32 vocabulary indices; a NULL or an
    unseen value raises an error naming the column, for string and int
    vocabularies alike."""
    cases = [
        (["a", "b", "c"], np.array(["c", "a", "a", "b"], dtype=object), "z"),
        ([1, 2, 3], np.array([3, 1, 1, 2], dtype=np.int32), 7),
    ]
    for vocab, good, unseen in cases:
        codes = encode(pd.Series(good), vocab, "col")
        assert codes.dtype == np.int32
        np.testing.assert_array_equal(codes, [2, 0, 0, 1])
        for bad in ([good[0], None], [good[0], unseen]):
            with pytest.raises(ValueError, match="'col'"):
                encode(pd.Series(bad), vocab, "col")
