"""Blocked layout, the guarded decoder and the counts index, oracle-checked."""
import duckdb
import numpy as np
import pandas as pd
import pytest

from repro.oracle import assert_equivalent
from repro.storage.blocks import (
    BLOCK_COL,
    block_ids,
    block_rows,
    build_counts_index,
    count_blocks,
    encode,
    exact_counts,
    spark_gather,
)
from repro.workloads import datasets as wd
from repro.workloads import queries
from repro.workloads.queries import QUERIES, load_dataset, prepare


def test_layout_rejects_bad_tuples_per_block(monkeypatch):
    """``count_blocks`` holds the one ``tuples_per_block >= 1`` check, and
    every builder of the layout raises through it, the dataset loaders
    before they draw."""
    for module in (queries, wd):
        monkeypatch.setattr(module, "draw", lambda *a, **k: pytest.fail("drew a dataset"))
    one = np.zeros(1, dtype=np.int32)
    for build in (
        lambda: count_blocks(10, 0),
        lambda: block_ids(10, -1),
        lambda: build_counts_index(one, one, n_z=1, n_x=1, tuples_per_block=0),
        lambda: load_dataset(None, "taxi", sf=0.4, tuples_per_block=0),
        lambda: wd.generate("taxi", sf=0.4, tuples_per_block=0),
    ):
        with pytest.raises(ValueError, match="tuples_per_block"):
            build()


def test_add_block_ids_positions():
    """``generate`` adds ``_block_id`` by row position: row ``i`` is in
    block ``i // tuples_per_block``."""
    pdf, meta = wd.generate("flights", sf=0.001, tuples_per_block=3)
    assert list(pdf[BLOCK_COL][:10]) == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3]
    assert pdf[BLOCK_COL].iloc[-1] == (meta.n_rows - 1) // 3


# -- block_rows vs DuckDB ----------------------------------------------------
# ``assert_equivalent`` compares sorted rows, duplicates included, so each
# oracle checks the fetch returns every row of its blocks once.


def test_block_rows_oracle(datasets):
    """A spark-mode lookahead batch: 512 blocks that wrap past the last
    block, as the round loop issues them."""
    ds = datasets["flights"]
    ids = np.arange(ds.n_blocks - 200, ds.n_blocks + 312) % ds.n_blocks
    assert_equivalent(
        block_rows(ds.sdf, "origin", "day_of_week", ids),
        "SELECT origin, day_of_week FROM flights "
        f"WHERE {BLOCK_COL} >= {ds.n_blocks - 200} OR {BLOCK_COL} < 312",
        flights=ds.sdf.toPandas(),
    )


def test_block_rows_filtered_oracle(datasets):
    ds = datasets["flights"]
    got = block_rows(ds.sdf, "origin", "day_of_week", block_ids=[0, 5, 10, 11])
    assert_equivalent(
        got,
        "SELECT origin, day_of_week FROM flights "
        f"WHERE {BLOCK_COL} IN (0, 5, 10, 11)",
        flights=ds.sdf.toPandas(),
    )


def test_block_rows_partial_block_oracle(police_small):
    """The final block holds 16 of 32 rows: it is fetched whole, and no
    row of any other block comes with it."""
    pq = police_small
    z, x, last = pq.spec.z, pq.spec.x, pq.ds.n_blocks - 1
    got = block_rows(pq.ds.sdf, z, x, block_ids=[last, 0, 93])
    assert got.count() == 2 * pq.ds.tuples_per_block + 16
    assert_equivalent(
        got,
        f"SELECT {z}, {x} FROM police WHERE {BLOCK_COL} IN ({last}, 0, 93)",
        police=pq.ds.sdf.toPandas(),
    )


# -- the replay block store --------------------------------------------------


@pytest.fixture(scope="module")
def fl_index(datasets):
    ds = datasets["flights"]
    return ds, build_counts_index(
        ds.codes["origin"],
        ds.codes["day_of_week"],
        n_z=len(ds.meta.value_sets["origin"]),
        n_x=len(ds.meta.value_sets["day_of_week"]),
        tuples_per_block=ds.tuples_per_block,
    )


@pytest.fixture(scope="module")
def police_small(spark):
    """police-q1 at SF 0.001: 6,000 rows in 188 blocks, the last of 16 rows.
    Its Spark relation is built only if a test reads it."""
    spec = QUERIES["police-q1"]
    pq = prepare(load_dataset(spark, "police", sf=0.001), spec)
    assert pq.ds.n_blocks == 188 and pq.ds.n_rows - 187 * pq.ds.tuples_per_block == 16
    yield pq
    if "sdf" in vars(pq.ds):
        pq.ds.sdf.unpersist()


def test_index_exact_counts_match_spark(fl_index):
    ds, idx = fl_index
    pdf = (
        ds.sdf.groupBy("origin", "day_of_week").count().toPandas()
    )
    z_values, x_values = ds.meta.value_sets["origin"], ds.meta.value_sets["day_of_week"]
    exact = exact_counts(idx.cells, len(z_values), len(x_values))
    origins = {v: i for i, v in enumerate(z_values)}
    for _, row in pdf.iterrows():
        zi = origins[row["origin"]]
        xi = x_values.index(row["day_of_week"])
        assert exact[zi, xi] == row["count"]
    assert exact.sum() == ds.n_rows


def test_index_packs_codes(fl_index):
    """``cells`` is the read-only int32 ``z·|V_X| + x`` of every row, and
    ``cnt`` a read-only view of ones that allocates no row of its own."""
    ds, idx = fl_index
    d = len(ds.meta.value_sets["day_of_week"])
    assert idx.cells.dtype == np.int32 and not idx.cells.flags.writeable
    np.testing.assert_array_equal(idx.cells, idx.z_idx.astype(np.int64) * d + idx.x_idx)
    assert len(idx.cnt) == ds.n_rows and idx.cnt.nbytes == 8 * ds.n_rows
    assert idx.cnt.strides == (0,) and not idx.cnt.flags.writeable
    assert (idx.cnt == 1).all()
    np.testing.assert_array_equal(
        idx.offsets, np.minimum(np.arange(ds.n_blocks + 1) * ds.tuples_per_block, ds.n_rows)
    )


@pytest.mark.parametrize(
    "z, x, n_z, n_x, match",
    [
        ([0, -1], [0, 0], 3, 2, "z codes"),
        ([0, 3], [0, 0], 3, 2, "z codes"),
        ([0, 1], [-1, 0], 3, 2, "x codes"),
        ([0, 1], [0, 2], 3, 2, "x codes"),     # x = |V_X|: would fold into z + 1
        ([0, 1], [0, 1], 2**16, 2**15, "int32"),  # |V_Z|·|V_X| = 2³¹
        ([0, 1], [0], 3, 2, "length"),
    ],
    ids=["z-neg", "z-high", "x-neg", "x-high", "cells-overflow", "length"],
)
def test_build_counts_index_rejects_out_of_range(z, x, n_z, n_x, match):
    """The one range check of the replay store, made when it is built."""
    with pytest.raises(ValueError, match=match):
        build_counts_index(
            np.array(z, dtype=np.int32), np.array(x, dtype=np.int32),
            n_z=n_z, n_x=n_x, tuples_per_block=2,
        )


def _gather_cases(n):
    rng = np.random.default_rng(0)
    return [
        rng.choice(n, size=50, replace=False),  # unordered, non-contiguous
        np.sort(rng.choice(n, size=50, replace=False)),
        [int(rng.integers(n))],  # a single block
        [n - 1],  # the final block alone
        np.arange(n - 3, n + 5) % n,  # a window that wraps past the last block
        [n - 1, 0, n - 1, n - 1, 5],  # the final block repeated, first and last
        np.arange(n),
        [],
    ]


def test_index_gather_matches_slices(fl_index, police_small):
    """``gather`` returns, as a multiset, the cells of rows
    ``[b·tpb, min((b+1)·tpb, n))`` of every requested block, once per
    request: on a store of full blocks and on one whose final block is
    partial."""
    for idx in (fl_index[1], police_small.counts_index):
        n_rows, tpb = len(idx.cells), idx.tuples_per_block
        for blocks in _gather_cases(idx.n_blocks):
            cells = idx.gather(blocks)
            rows = [np.arange(b * tpb, min((b + 1) * tpb, n_rows)) for b in blocks]
            rows = np.concatenate([np.arange(0)] + rows)
            np.testing.assert_array_equal(np.sort(cells), np.sort(idx.cells[rows]))
            assert cells.dtype == np.int32
        sizes = [len(idx.gather([b])) for b in range(idx.n_blocks)]
        assert sum(sizes) == n_rows and max(sizes) == tpb


def test_index_gather_empty(fl_index):
    _, idx = fl_index
    assert len(idx.gather([])) == 0


def test_spark_gather_equals_store_gather(police_small):
    """A spark-mode batch is the store's batch: ``spark_gather`` over the
    relation returns, as a multiset, the int32 cells ``gather`` returns
    for the same distinct blocks, the partial final block among them."""
    pq = police_small
    idx, sdf = pq.counts_index, pq.ds.sdf
    distinct = [b for b in _gather_cases(idx.n_blocks) if len(np.unique(b)) == len(b)]
    assert len(distinct) == 7
    for blocks in distinct:
        cells = spark_gather(sdf, pq.spec.z, pq.spec.x, pq.z_values, pq.x_values, blocks)
        assert cells.dtype == np.int32
        np.testing.assert_array_equal(np.sort(cells), np.sort(idx.gather(blocks)))


def _block_rows_vs_duckdb(pq, data):
    """Every block's rows from ``gather([b])``, decoded from its cells,
    against DuckDB's ``GROUP BY _block_id, z, x`` over ``data``."""
    z, x, idx = pq.spec.z, pq.spec.x, pq.counts_index
    d = pq.d
    blocks = [idx.gather([b]) for b in range(idx.n_blocks)]
    cells = np.concatenate(blocks)
    got = (
        pd.DataFrame({
            BLOCK_COL: np.repeat(np.arange(idx.n_blocks), [len(c) for c in blocks]),
            z: np.asarray(pq.z_values)[cells // d],
            x: np.asarray(pq.x_values)[cells % d],
        })
        .groupby([BLOCK_COL, z, x], as_index=False).size()
        .rename(columns={"size": "cnt"})
    )
    con = duckdb.connect()
    con.register("data", data)
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


@pytest.mark.parametrize(
    "qid", sorted(q for q, spec in QUERIES.items() if spec.dataset in ("flights", "taxi"))
)
def test_index_blocks_oracle(qid, prepared):
    """Every block's decoded cells equal DuckDB's ``GROUP BY
    _block_id, z, x`` over the Spark relation, so the driver's codes and
    the relation hold the same rows in the same blocks."""
    pq = prepared[qid]
    _block_rows_vs_duckdb(pq, pq.ds.sdf.toPandas())


def test_index_partial_block_oracle(police_small):
    """The same oracle on a store whose final block holds 16 of 32 rows,
    over the generator's frame."""
    ds = police_small.ds  # at SF 0.001, from the generator's default seed
    pdf, _ = wd.generate(ds.name, sf=0.001, tuples_per_block=ds.tuples_per_block, seed=None)
    _block_rows_vs_duckdb(police_small, pdf)


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
