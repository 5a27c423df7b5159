"""Blocked data layout and per-block count aggregation.

FastMatch's I/O manager reads fixed-size blocks of a randomly permuted
row-store.  We reproduce the layout with a ``_block_id`` column:
``block_id = row_position // tuples_per_block`` over a random
permutation of the rows.  The workload generators emit i.i.d. rows, so
their native order is already exchangeable and block ids are assigned
directly at generation.

Per-block (candidate, bin) counts — the unit the sampling engine hands
to the statistics engine (r_i^partial in §4.2) — are computed by a
Spark ``GROUP BY _block_id, z, x`` aggregation, either per round over a
selected set of blocks (:func:`block_counts`) or once over the whole
dataset into a driver-side CSR-style index for replay-mode runs
(:class:`BlockCountsIndex`).  Every aggregate comes back as Z/X
*values*; :func:`encode` is the one place they become vocabulary indices.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, functions as F

BLOCK_COL = "_block_id"


def add_block_ids(pdf: pd.DataFrame, tuples_per_block: int) -> pd.DataFrame:
    """Assign ``_block_id`` by row position (pandas path, for generators).

    The caller guarantees the row order is exchangeable (i.i.d. draws),
    so a sequential scan of blocks from any start is a uniform
    without-replacement sample — §4.2 Challenge 1.
    """
    if tuples_per_block < 1:
        raise ValueError(f"tuples_per_block must be >= 1, got {tuples_per_block}")
    out = pdf.copy()
    out[BLOCK_COL] = np.arange(len(pdf), dtype=np.int64) // tuples_per_block
    return out


def encode(values, vocabulary: list, column: str) -> np.ndarray:
    """Map Z/X values to their indices in ``vocabulary`` (int32).

    Raises ``ValueError`` on a NULL or on any value outside the
    vocabulary, so an aggregate can never be folded silently into the
    wrong candidate or bin.
    """
    codes = pd.Categorical(values, categories=vocabulary).codes
    if (codes < 0).any():
        bad = pd.unique(np.asarray(values, dtype=object)[codes < 0])[:5]
        raise ValueError(
            f"column {column!r} holds NULL or values missing from its "
            f"vocabulary: {list(bad)}"
        )
    return codes.astype(np.int32)


def block_counts(
    df: DataFrame, z: str, x: str, block_ids=None, *, per_block: bool = True
) -> DataFrame:
    """Sampled-block aggregation: counts per (block, candidate, bin).

    This is the distributed sample+aggregate round: filter to the blocks
    the sampling engine selected, then ``GROUP BY``.  With
    ``per_block=False`` the block dimension is rolled up (spark-mode
    batches only need the batch total).
    """
    if block_ids is not None:
        ids = [int(b) for b in block_ids]
        df = df.filter(F.col(BLOCK_COL).isin(ids))
    keys = ([BLOCK_COL] if per_block else []) + [z, x]
    return df.groupBy(*keys).agg(F.count(F.lit(1)).alias("cnt"))


@dataclass
class BlockCountsIndex:
    """CSR-style per-block counts on the driver, for replay-mode runs.

    Rows are sorted by block id; ``offsets[b]:offsets[b+1]`` slices the
    (candidate-index, bin-index, count) triples of block ``b``.
    ``z_values`` / ``x_values`` give the index → value mapping used
    throughout the engine.
    """

    z_values: list
    x_values: list
    n_blocks: int
    offsets: np.ndarray  # (n_blocks + 1,) int64
    z_idx: np.ndarray    # (nnz,) int32
    x_idx: np.ndarray    # (nnz,) int32
    cnt: np.ndarray      # (nnz,) int64

    def gather(self, block_ids) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Concatenated triples of many blocks, in ``block_ids`` order (a
        replay-mode batch fetch): one offset-arithmetic index, no loop."""
        ids = np.asarray(block_ids, dtype=np.int64)
        starts = self.offsets[ids]
        lens = self.offsets[ids + 1] - starts
        rows = np.repeat(starts - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())
        return self.z_idx[rows], self.x_idx[rows], self.cnt[rows]

    def exact_counts(self) -> np.ndarray:
        """The full |V_Z| × |V_X| counts matrix (= a complete Scan)."""
        d = len(self.x_values)
        out = np.zeros((len(self.z_values), d), dtype=np.int64)
        np.add.at(out.reshape(-1), self.z_idx.astype(np.intp) * d + self.x_idx, self.cnt)
        return out


def build_counts_index(
    df: DataFrame,
    z: str,
    x: str,
    *,
    z_values: list,
    x_values: list,
    n_blocks: int,
) -> BlockCountsIndex:
    """One Spark aggregation over the whole layout → driver-side index.

    Used to prefetch replay-mode runs and to derive exact ground truth;
    equivalent by construction to running :func:`block_counts` over
    every block (tested against the DuckDB oracle).
    """
    pdf = block_counts(df, z, x, per_block=True).toPandas()
    zi = encode(pdf[z], z_values, z)
    xi = encode(pdf[x], x_values, x)
    blocks = pdf[BLOCK_COL].to_numpy(dtype=np.int64)
    order = np.argsort(blocks, kind="stable")
    blocks = blocks[order]
    offsets = np.searchsorted(blocks, np.arange(n_blocks + 1), side="left").astype(
        np.int64
    )
    return BlockCountsIndex(
        z_values=list(z_values),
        x_values=list(x_values),
        n_blocks=n_blocks,
        offsets=offsets,
        z_idx=zi[order],
        x_idx=xi[order],
        cnt=pdf["cnt"].to_numpy(dtype=np.int64)[order],
    )
