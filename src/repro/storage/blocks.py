"""Blocked data layout, the replay-mode counts index and block aggregation.

FastMatch's I/O manager reads fixed-size blocks of a randomly permuted
row-store.  Block ``b`` is rows ``[b·tpb, (b+1)·tpb)`` of the generated
order, already a random permutation as the generators draw i.i.d. rows.

Replay mode reads the generators' vocabulary codes: a CSR-style
driver-side index (:class:`BlockCountsIndex`) with no aggregation, and
:func:`exact_counts` over all of them (ground truth and the exact Scan).
Spark-mode batches run :func:`block_counts`, a ``GROUP BY z, x`` over the
selected blocks of the Spark relation, and :func:`encode` guards the
values they return.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, functions as F

BLOCK_COL = "_block_id"


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


def exact_counts(z_codes: np.ndarray, x_codes: np.ndarray, n_z: int, n_x: int) -> np.ndarray:
    """The full ``n_z × n_x`` counts matrix of (z, x) code pairs: one
    ``bincount`` over ``z·n_x + x`` (= a complete Scan)."""
    flat = z_codes.astype(np.intp) * n_x + x_codes
    return np.bincount(flat, minlength=n_z * n_x).reshape(n_z, n_x)


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
