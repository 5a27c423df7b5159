"""Storage substrate: randomly-permuted blocked layout + bitmap index.

The paper's FastMatch reads 4 KiB disk blocks over a randomly permuted
row-store (§4.2 Challenge 1).  Here a *block* is ``tuples_per_block``
consecutive rows of the (already exchangeable) generated order, and
:mod:`repro.storage.blocks` owns that layout: one helper counts the
blocks and one assigns each row its block id.  Each query's rows are
packed into one int32 ``z·|V_X| + x`` cell per row, a fixed-size block
store: the exact Scan counts all the cells and each replay batch reads
its blocks' cells with one row take; the bitmap index is derived from
the codes.  Spark-mode batches fetch, unaggregated, the rows of the
selected blocks of the lazily built relation, packed into the same cells.
"""
