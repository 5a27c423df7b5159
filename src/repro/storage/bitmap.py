"""Bitmap index: one bit per (candidate value, block) — paper §4.1.

The index is block-major and packed in ``np.packbits`` layout: an
``n_blocks × ⌈|V_Z|/8⌉`` ``uint8`` matrix, big bit order, so candidate
``i`` of block ``b`` is bit ``0x80 >> (i & 7)`` of byte ``[b, i >> 3]``
and the padding bits past |V_Z| are zero.  A set bit means block ``b``
contains at least one tuple with Z = z_i.  The AnyActive policy reads a
block iff any *active* candidate's bit is set.

Two marking procedures mirror the paper's Algorithms 2 and 3:

* :func:`mark_lookahead` — one vectorized pass over a whole lookahead
  batch (Algorithm 3's cache-line-friendly loop order): the batch's
  packed rows are ANDed with the packed active mask, eight candidates
  per byte, the numpy analog of using a full cache line of bits per
  probe.  It is the one marking call of the round loop: FastMatch passes
  its lookahead window, SyncMatch a one-block window;
* :func:`mark_naive` — per-block, candidate-at-a-time probing of single
  bits with early exit (Algorithm 2).  It is the reference the tests
  compare :func:`mark_lookahead` against, on windows of one block and of
  many.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame

from repro.storage.blocks import BLOCK_COL, BlockCountsIndex, block_ids, encode


def build_bitmap(df: DataFrame, z: str, *, z_values: list, n_blocks: int) -> np.ndarray:
    """Build the index with a Spark distinct over (block, candidate).

    Returns the *unpacked* n_blocks × |V_Z| boolean matrix: the
    independent reference the tests hold :func:`bitmap_from_index`'s
    packed bits to.
    """
    pdf = df.select(BLOCK_COL, z).distinct().toPandas()
    zi = encode(pdf[z], z_values, z)
    out = np.zeros((n_blocks, len(z_values)), dtype=bool)
    out[pdf[BLOCK_COL].to_numpy(dtype=np.int64), zi] = True
    return out


def bitmap_from_index(idx: BlockCountsIndex) -> np.ndarray:
    """The packed bitmap, set bit by bit from the counts index's codes
    (no Spark job, and no unpacked n_blocks × |V_Z| matrix)."""
    out = np.zeros((idx.n_blocks, -(-len(idx.z_values) // 8)), dtype=np.uint8)
    z = idx.z_idx
    block_of = block_ids(len(z), idx.tuples_per_block)
    np.bitwise_or.at(out, (block_of, z >> 3), (0x80 >> (z & 7)).astype(np.uint8))
    return out


def mark_naive(bitmap: np.ndarray, active_idx, block_ids) -> np.ndarray:
    """Algorithm 2: per block, probe candidates' bits until one hits."""
    marks = np.zeros(len(block_ids), dtype=bool)
    for pos, b in enumerate(block_ids):
        for cand in active_idx:
            if bitmap[b, cand >> 3] & (0x80 >> (cand & 7)):
                marks[pos] = True
                break
    return marks


def mark_lookahead(bitmap: np.ndarray, active_mask: np.ndarray, block_ids) -> np.ndarray:
    """Algorithm 3: mark a whole lookahead batch with one word-AND.

    A block is marked iff its packed row shares a set bit with the
    packed active mask; with no active candidate the mask is all zero
    and nothing is marked.
    """
    return (bitmap[block_ids] & np.packbits(active_mask)).any(axis=1)
