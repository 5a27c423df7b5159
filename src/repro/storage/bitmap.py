"""Bitmap index: one bit per (candidate value, block) — paper §4.1.

The index is block-major (n_blocks × |V_Z|): a ``1`` at (block b,
candidate i) means block ``b`` contains at least one tuple with Z = z_i.
The AnyActive policy reads a block iff any *active* candidate's bit is
set.

Two marking procedures mirror the paper's Algorithms 2 and 3:

* :func:`mark_lookahead` — one vectorized pass over a whole lookahead
  batch (Algorithm 3's cache-line-friendly loop order; numpy slicing
  plays the role of using a full cache line of bits per probe).  It is
  the one marking call of the round loop: FastMatch passes its lookahead
  window, SyncMatch a one-block window;
* :func:`mark_naive` — per-block, candidate-at-a-time probing with
  early exit (Algorithm 2).  It is the reference the tests compare
  :func:`mark_lookahead` against, on windows of one block and of many.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame

from repro.storage.blocks import BLOCK_COL, BlockCountsIndex, encode


def build_bitmap(df: DataFrame, z: str, *, z_values: list, n_blocks: int) -> np.ndarray:
    """Build the index with a Spark distinct over (block, candidate).

    Returns the n_blocks × |V_Z| boolean matrix.  One bit per block per
    attribute value, as in the paper (orders of magnitude cheaper than
    per-tuple bitmaps).
    """
    pdf = df.select(BLOCK_COL, z).distinct().toPandas()
    zi = encode(pdf[z], z_values, z)
    out = np.zeros((n_blocks, len(z_values)), dtype=bool)
    out[pdf[BLOCK_COL].to_numpy(dtype=np.int64), zi] = True
    return out


def bitmap_from_index(idx: BlockCountsIndex) -> np.ndarray:
    """Derive the same bitmap from a prefetched counts index (no extra job)."""
    out = np.zeros((idx.n_blocks, len(idx.z_values)), dtype=bool)
    block_of = np.repeat(
        np.arange(idx.n_blocks, dtype=np.int64), np.diff(idx.offsets)
    )
    out[block_of, idx.z_idx] = True
    return out


def mark_naive(bitmap: np.ndarray, active_idx, block_ids) -> np.ndarray:
    """Algorithm 2: per block, probe candidates until one bit hits."""
    marks = np.zeros(len(block_ids), dtype=bool)
    for pos, b in enumerate(block_ids):
        for cand in active_idx:
            if bitmap[b, cand]:
                marks[pos] = True
                break
    return marks


def mark_lookahead(bitmap: np.ndarray, active_mask: np.ndarray, block_ids) -> np.ndarray:
    """Algorithm 3: mark a whole lookahead batch in one vectorized pass.

    Gathering the batch's rows of the block-major bitmap yields every
    bit of the batch per active candidate — the numpy analog of
    Algorithm 3's use of a full cache line of bitmap bits per probe.
    """
    block_ids = np.asarray(block_ids, dtype=np.int64)
    if not active_mask.any():
        return np.zeros(len(block_ids), dtype=bool)
    return bitmap[block_ids][:, active_mask].any(axis=1)
