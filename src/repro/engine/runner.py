"""The round loop implementing every §5.2 approach.

One code path drives all four approximate variants; they differ only in
(a) whether AnyActive block pruning is applied, (b) the batch size — the
granularity at which block-selection decisions and statistics iterations
happen — and (c) the termination criterion:

===========  ======  =================  ==================
variant      prune   batch size         termination
===========  ======  =================  ==================
slowmatch    no      lookahead blocks   max δ_i ≤ δ/|V_Z|
scanmatch    no      lookahead blocks   Σ δ_i ≤ δ
syncmatch    yes     1 block            Σ δ_i ≤ δ
fastmatch    yes     lookahead blocks   Σ δ_i ≤ δ
===========  ======  =================  ==================

Both pruned variants mark a batch with one call,
:func:`~repro.storage.bitmap.mark_lookahead` (Algorithm 3).  On a
one-block window it makes Algorithm 2's decision, so SyncMatch is
FastMatch without lookahead, as in the paper.

Two execution modes share this loop, which picks its fetch once:

* ``mode="spark"`` — each batch's selected blocks' rows are fetched
  with one real Spark job, a filter and projection with no aggregation
  (:func:`~repro.storage.blocks.spark_gather`);
* ``mode="replay"`` — each batch is one row take from the fixed-size
  block store :class:`~repro.storage.blocks.BlockCountsIndex`, all in
  driver memory, so a run's wall time is what Table 4 compares with the
  exact Scan, one count over the same cells.

Both fetches return a batch as the multiset of its rows' packed
``z·|V_X| + x`` cells, merged unchecked by
:meth:`~repro.core.histsim.HistSimState.merge` (the store checked its
codes once when it was built; the spark fetch guards each value it
decodes), so both modes make identical decisions and read identical
blocks (tested).

The loop walks blocks sequentially from a given (or random) start with
wraparound — the paper's "linear scan of the shuffled data starting
from any point".  A candidate whose every tuple has been read (n_i = N_i)
is exhausted (its histogram is exact → δ_i = 0), which is how a run that
ends up reading everything terminates with the exact answer.  Each run
records why it stopped: ``"exhausted"`` (every tuple read: the answer is
exact and δ^upper = 0), else its criterion, ``"sum_delta"`` (Σ δ_i ≤ δ)
or ``"max_delta"`` (SlowMatch's max δ_i ≤ δ/|V_Z|).  A pruned run can
meet its criterion on its last batch, having skipped the blocks of
settled candidates; it reports the criterion.  If a pruned run considers
every block without meeting it (a candidate became active again after
its blocks were skipped), it reports ``"unmet"``.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.core.distance import l1_distances
from repro.core.histsim import HistSimState
# mark_naive is not called here; perfbench/spans.py wraps runner.mark_naive by name.
from repro.storage.bitmap import mark_lookahead, mark_naive  # noqa: F401
from repro.storage.blocks import exact_counts, spark_gather
from repro.workloads.queries import PreparedQuery


@dataclass(frozen=True)
class VariantSpec:
    prune: bool
    per_block: bool
    criterion: str


APPROX_VARIANTS: dict[str, VariantSpec] = {
    "slowmatch": VariantSpec(prune=False, per_block=False, criterion="max_delta"),
    "scanmatch": VariantSpec(prune=False, per_block=False, criterion="sum_delta"),
    "syncmatch": VariantSpec(prune=True, per_block=True, criterion="sum_delta"),
    "fastmatch": VariantSpec(prune=True, per_block=False, criterion="sum_delta"),
}

#: The paper's Table 4 settings (§5.2–5.3): the failure probability δ and
#: the blocks marked per lookahead batch.  Table 4 always runs them; the
#: δ and lookahead sweeps pass others through ``jobs/run_query.py``.
DELTA = 0.01
LOOKAHEAD = 512


@dataclass
class RunResult:
    """Outcome + counters of one approximate run."""

    eps: float
    delta: float
    start_block: int
    topk_idx: np.ndarray           # returned matching set M (indices)
    tau_est: np.ndarray            # final distance estimates τ_i
    est_counts: np.ndarray = field(repr=False, default=None)  # final r_i
    delta_upper: float = float("nan")
    stop_reason: str = ""          # "exhausted" | "sum_delta" | "max_delta" | "unmet"
    tuples_read: int = 0
    blocks_read: int = 0
    blocks_considered: int = 0
    n_batches: int = 0
    n_stat_iters: int = 0
    time_stats: float = 0.0        # measured HistSim iteration time (s)
    time_decide: float = 0.0       # measured block-selection time (s)
    time_fetch: float = 0.0        # measured fetch time (s): spark job or replay gather
    wall: float = 0.0              # the whole run after argument checks (s)


@dataclass
class ScanResult:
    """The exact baseline: one count over every row, measured wall time."""

    topk_idx: np.ndarray
    tau: np.ndarray
    wall: float


def run_variant(
    pq: PreparedQuery,
    variant: str,
    *,
    eps: float | None = None,
    delta: float = DELTA,
    lookahead: int = LOOKAHEAD,
    start_block: int | None = None,
    mode: str = "replay",
) -> RunResult:
    """Run one approximate variant to termination (or data exhaustion)."""
    if variant not in APPROX_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; choose from {sorted(APPROX_VARIANTS)}")
    if mode not in ("replay", "spark"):
        raise ValueError(f"mode must be 'replay' or 'spark', got {mode!r}")
    if lookahead < 1:
        raise ValueError(f"lookahead must be >= 1, got {lookahead}")
    spec = APPROX_VARIANTS[variant]
    eps = float(pq.spec.eps if eps is None else eps)
    n_blocks = pq.ds.n_blocks
    if start_block is None:
        start_block = int(np.random.default_rng().integers(0, n_blocks))
    if not 0 <= start_block < n_blocks:
        raise ValueError(f"start_block must be in [0, {n_blocks}), got {start_block}")
    if mode == "spark":  # a first read of sdf builds it: keep that untimed
        fetch = partial(spark_gather, pq.ds.sdf, pq.spec.z, pq.spec.x, pq.z_values, pq.x_values)
    else:
        fetch = pq.counts_index.gather

    wall0 = time.perf_counter()
    state = HistSimState(pq.target, pq.spec.k, eps, delta, pq.totals)

    order = np.roll(np.arange(n_blocks, dtype=np.int64), -start_block)
    batch_size = 1 if spec.per_block else lookahead
    res = RunResult(eps=eps, delta=delta, start_block=start_block, topk_idx=None, tau_est=None)
    pos = 0
    terminated = False
    while pos < n_blocks and not terminated:
        batch = order[pos : pos + batch_size]
        pos += len(batch)
        res.n_batches += 1
        res.blocks_considered += len(batch)

        t0 = time.perf_counter()
        to_read = batch[mark_lookahead(pq.bitmap_t, state.active(), batch)] if spec.prune else batch
        res.time_decide += time.perf_counter() - t0
        if len(to_read) == 0:
            continue

        t0 = time.perf_counter()
        cells = fetch(to_read)
        res.time_fetch += time.perf_counter() - t0

        t0 = time.perf_counter()
        state.merge(cells)
        state.iterate()
        res.time_stats += time.perf_counter() - t0

        res.tuples_read += len(cells)
        res.blocks_read += len(to_read)
        terminated = state.terminated(spec.criterion)

    res.topk_idx = state.topk_indices()
    res.wall = time.perf_counter() - wall0
    if res.tuples_read == pq.ds.n_rows:
        res.stop_reason = "exhausted"
    elif terminated:
        res.stop_reason = spec.criterion
    else:
        res.stop_reason = "unmet"
    res.n_stat_iters = state.n_iterations
    res.tau_est = state.tau
    res.est_counts = state.counts
    res.delta_upper = state.delta_upper
    return res


def run_scan(pq: PreparedQuery) -> ScanResult:
    """The exact ``Scan`` baseline: one ``bincount`` over every row, timed.

    Counts the block store's packed cells (the rows every replay batch
    gathers) into the |V_Z| × |V_X| matrix, then computes every
    candidate's distance and the top-k, the same numpy math as ground
    truth.  Always correct, and launches no Spark job; Table 4 divides
    its wall time by each variant's.
    """
    t0 = time.perf_counter()
    counts = exact_counts(pq.counts_index.cells, pq.n_candidates, pq.d)
    tau = l1_distances(counts, pq.target)
    topk = np.argsort(tau, kind="stable")[: pq.spec.k]
    wall = time.perf_counter() - t0
    return ScanResult(topk_idx=topk, tau=tau, wall=wall)
