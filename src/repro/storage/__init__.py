"""Storage substrate: randomly-permuted blocked layout + bitmap index.

The paper's FastMatch reads 4 KiB disk blocks over a randomly permuted
row-store (§4.2 Challenge 1).  Here a *block* is ``tuples_per_block``
consecutive rows of the (already exchangeable) generated order.  Each
query's rows are packed into one int32 ``z·|V_X| + x`` cell per row, a
fixed-size block store: the exact Scan counts all the cells and each
replay batch reads its blocks' cells with one row take; the bitmap index
is derived from the codes.  Spark-mode batches run one Spark
``GROUP BY z, x`` over the selected blocks of the lazily built relation.
"""
