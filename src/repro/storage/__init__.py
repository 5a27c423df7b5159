"""Storage substrate: randomly-permuted blocked layout + bitmap index.

The paper's FastMatch reads 4 KiB disk blocks over a randomly permuted
row-store (§4.2 Challenge 1).  Here a *block* is a ``_block_id`` column
over the (already exchangeable) generated row order.  Replay reads the
rows' vocabulary codes and derives the bitmap index from them; spark
batches and the Scan run one Spark ``GROUP BY z, x``.
"""
from repro.storage.blocks import (  # noqa: F401
    BLOCK_COL,
    BlockCountsIndex,
    add_block_ids,
    block_counts,
    build_counts_index,
    encode,
)
from repro.storage.bitmap import (  # noqa: F401
    bitmap_from_index,
    build_bitmap,
    mark_lookahead,
    mark_naive,
)
