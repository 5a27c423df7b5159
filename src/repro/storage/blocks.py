"""Blocked data layout, the replay-mode counts index and block aggregation.

FastMatch's I/O manager reads fixed-size blocks of a randomly permuted
row-store.  We reproduce the layout with a ``_block_id`` column:
``block_id = row_position // tuples_per_block`` over a random
permutation of the rows.  The workload generators emit i.i.d. rows, so
their native order is already exchangeable and block ids are assigned
directly at generation.

:func:`encode` is the one place Z/X values become vocabulary indices.
Replay mode reads the generated rows' codes: block ``b`` is rows
``[b·tpb, (b+1)·tpb)`` of the code arrays, held as a CSR-style
driver-side index (:class:`BlockCountsIndex`) with no aggregation; the
exact Scan counts the same arrays.  Spark-mode batches run
:func:`block_counts`, a ``GROUP BY z, x`` over the selected blocks of
the cached relation.
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


def block_counts(df: DataFrame, z: str, x: str, block_ids) -> DataFrame:
    """Sampled-block aggregation: counts per (candidate, bin).

    This is the distributed sample+aggregate round: filter to the blocks
    the sampling engine selected, then ``GROUP BY z, x``.
    """
    df = df.filter(F.col(BLOCK_COL).isin([int(b) for b in block_ids]))
    return df.groupBy(z, x).agg(F.count(F.lit(1)).alias("cnt"))


@dataclass
class BlockCountsIndex:
    """CSR-style per-block counts on the driver, for replay-mode runs.

    Triples are in block order; ``offsets[b]:offsets[b+1]`` slices the
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
    z_codes: np.ndarray,
    x_codes: np.ndarray,
    *,
    z_values: list,
    x_values: list,
    n_blocks: int,
    tuples_per_block: int,
) -> BlockCountsIndex:
    """The replay-mode index over the rows' codes: block ``b`` is rows
    ``[b·tpb, (b+1)·tpb)`` and each row is one triple with count 1, so
    nothing is aggregated (tested against the DuckDB oracle)."""
    n = len(z_codes)
    offsets = np.minimum(np.arange(n_blocks + 1, dtype=np.int64) * tuples_per_block, n)
    return BlockCountsIndex(
        z_values=list(z_values),
        x_values=list(x_values),
        n_blocks=n_blocks,
        offsets=offsets,
        z_idx=z_codes,
        x_idx=x_codes,
        cnt=np.ones(n, dtype=np.int64),
    )
