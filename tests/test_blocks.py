"""Blocked layout + per-block count aggregation, oracle-checked."""
import numpy as np
import pandas as pd
import pytest

from repro.oracle import assert_equivalent
from repro.storage.blocks import (
    BLOCK_COL,
    add_block_ids,
    block_counts,
    build_counts_index,
)


# -- pandas block assignment -------------------------------------------------


def test_add_block_ids_positions():
    pdf = pd.DataFrame({"a": range(10)})
    out = add_block_ids(pdf, 3)
    assert list(out[BLOCK_COL]) == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3]
    assert BLOCK_COL not in pdf.columns  # input untouched


def test_add_block_ids_bad_tpb():
    with pytest.raises(ValueError):
        add_block_ids(pd.DataFrame({"a": [1]}), 0)


# -- block_counts vs DuckDB --------------------------------------------------


def test_block_counts_oracle(datasets):
    """Per-block counts, and the full-data histogram query of Definition 1
    (``per_block=False``, what Scan runs)."""
    ds = datasets["flights"]
    pdf = ds.sdf.toPandas()
    for per_block in (True, False):
        keys = f"{BLOCK_COL}, " if per_block else ""
        got = block_counts(ds.sdf, "origin", "day_of_week", per_block=per_block)
        assert_equivalent(
            got,
            f"SELECT {keys}origin, day_of_week, COUNT(*) AS cnt "
            "FROM flights GROUP BY ALL",
            flights=pdf,
        )


def test_block_counts_filtered_oracle(datasets):
    ds = datasets["flights"]
    pdf = ds.sdf.toPandas()
    ids = [0, 5, 10, 11]
    got = block_counts(ds.sdf, "origin", "day_of_week", block_ids=ids, per_block=False)
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
        ds.sdf,
        "origin",
        "day_of_week",
        z_values=ds.meta.value_sets["origin"],
        x_values=ds.meta.value_sets["day_of_week"],
        n_blocks=ds.n_blocks,
    )


def test_index_exact_counts_match_spark(fl_index):
    ds, idx = fl_index
    pdf = (
        ds.sdf.groupBy("origin", "day_of_week").count().toPandas()
    )
    exact = idx.exact_counts()
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


def test_index_unknown_value_raises(datasets):
    ds = datasets["flights"]
    with pytest.raises(ValueError):
        build_counts_index(
            ds.sdf,
            "origin",
            "day_of_week",
            z_values=["NOPE"],
            x_values=ds.meta.value_sets["day_of_week"],
            n_blocks=ds.n_blocks,
        )
