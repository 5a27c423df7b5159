"""Storage substrate: randomly-permuted blocked layout + bitmap index.

The paper's FastMatch reads 4 KiB disk blocks over a randomly permuted
row-store (§4.2 Challenge 1).  Here a *block* is a ``_block_id`` column
over the (already exchangeable) generated row order.  Replay and the
exact Scan read the rows' vocabulary codes, and the bitmap index is
derived from them; spark-mode batches run one Spark ``GROUP BY z, x``
over the selected blocks.
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
