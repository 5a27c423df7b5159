"""Storage substrate: randomly-permuted blocked layout + bitmap index.

The paper's FastMatch reads 4 KiB disk blocks over a randomly permuted
row-store (§4.2 Challenge 1).  Here a *block* is ``tuples_per_block``
consecutive rows of the (already exchangeable) generated order.  The
exact Scan reads the vocabulary codes the generators drew; replay reads
them packed into one int32 ``z·|V_X| + x`` cell per row, a fixed-size
block store that each batch reads with one row take; the bitmap index
is derived from the codes.  Spark-mode batches run one Spark
``GROUP BY z, x`` over the selected blocks of the lazily built relation.
"""
from repro.storage.blocks import (  # noqa: F401
    BLOCK_COL,
    BlockCountsIndex,
    block_counts,
    build_counts_index,
    encode,
    exact_counts,
)
from repro.storage.bitmap import (  # noqa: F401
    bitmap_from_index,
    build_bitmap,
    mark_lookahead,
    mark_naive,
)
