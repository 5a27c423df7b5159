"""Spans for the traced run, recorded from outside the program.

The program keeps only run totals (``RunResult``), so the traced run
wraps each layer's public functions for its own duration and restores
them afterwards.  A span is ``(name, start_ns, end_ns, parent, run_id,
count)``: ``parent`` is the index of the enclosing span (-1 at top
level), ``run_id`` tags the set-up repetition (negative) or the timed
call (>= 0) it belongs to, and ``count`` is a per-call work count
(blocks, for ``storage.gather``).  Spans stay in memory until the run
ends; the wrapper costs about a microsecond per call.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np

from repro.core import histsim
from repro.engine import runner
from repro.storage.blocks import BlockCountsIndex
from repro.workloads import queries

#: Calls that are not timed approximate runs (the replay reference runs and
#: the Scans of spark-fetch) carry this id.
UNTRACKED = -(10**9)

#: (owner, attribute, span name, per-call count or None).  Module-level
#: functions are wrapped where their callers look them up: ``generate``
#: and the index builders in ``repro.workloads.queries``, the statistics
#: kernels in ``repro.core.histsim``.
TARGETS = [
    (queries, "load_dataset", "workloads.load_dataset", None),
    (queries, "generate", "workloads.generate", None),
    (queries, "prepare", "workloads.prepare", None),
    (queries, "build_counts_index", "storage.counts_index", None),
    (queries, "bitmap_from_index", "storage.bitmap", None),
    (BlockCountsIndex, "gather", "storage.gather", lambda args: len(args[1])),
    (runner, "run_variant", "engine.run_variant", None),
    (runner, "mark_naive", "engine.mark_naive", None),
    (histsim.HistSimState, "update", "core.update", None),
    (histsim.HistSimState, "iterate", "core.iterate", None),
    (histsim, "l1_distances", "core.l1", None),
    (histsim, "select_deviations", "core.deviations", None),
    (histsim, "delta_bound", "core.bounds", None),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.runs: list = []  # RunResult of traced call i has run_id i
        self.run_id = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """``fn`` with one span recorded per call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (
                    name, t0, t1, stack[-1] if stack else -1, self.run_id,
                    count(args) if count else 1,
                )

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in TARGETS]
        try:
            for owner, attr, name, count in TARGETS:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), count))
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def dump(self, path) -> None:
        """Write the spans as columns of one JSON object."""
        cols = list(zip(*self.spans)) if self.spans else [()] * 6
        keys = ("name", "start_ns", "end_ns", "parent", "run_id", "count")
        path.write_text(json.dumps({k: list(c) for k, c in zip(keys, cols)}))


class SpanTable:
    """Column view of the spans with durations and self times."""

    def __init__(self, spans: list) -> None:
        n = len(spans)
        self.name = np.array([s[0] for s in spans], dtype=object)
        t0 = np.fromiter((s[1] for s in spans), np.int64, n)
        t1 = np.fromiter((s[2] for s in spans), np.int64, n)
        self.parent = np.fromiter((s[3] for s in spans), np.int64, n)
        self.run_id = np.fromiter((s[4] for s in spans), np.int64, n)
        self.count = np.fromiter((s[5] for s in spans), np.int64, n)
        self.dur = (t1 - t0) / 1e9
        has_parent = self.parent >= 0
        children = np.zeros(n)
        np.add.at(children, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - children

    def select(self, name: str, runs) -> np.ndarray:
        return (self.name == name) & runs

    def total(self, name: str, runs) -> float:
        return float(self.dur[self.select(name, runs)].sum())

    def self_total(self, name: str, runs) -> float:
        return float(self.self_time[self.select(name, runs)].sum())

    def calls(self, name: str, runs) -> int:
        return int(self.select(name, runs).sum())

    def counted(self, name: str, runs) -> int:
        return int(self.count[self.select(name, runs)].sum())


#: Per-layer metrics: (name, unit, end-to-end metric and workload it should move).
LAYER_METRICS = [
    ("workloads.generate_s", "s", "setup_s on all workloads"),
    ("workloads.load_s", "s", "setup_s on all workloads"),
    ("workloads.prepare_s", "s", "setup_s on all workloads"),
    ("storage.counts_index_s", "s", "setup_s on all workloads"),
    ("storage.counts_index_nnz", "count", "setup_s on all workloads"),
    ("storage.bitmap_s", "s", "setup_s on replay-perblock"),
    ("storage.bitmap_t_s", "s", "setup_s on replay-perblock"),
    ("storage.index_bytes", "bytes", "peak_rss_mb on replay-perblock"),
    ("storage.gather_s", "s", "match_s.p50 on replay-lookahead"),
    ("storage.gather_calls", "count", "match_s.p50 on replay-lookahead"),
    ("storage.gather_blocks", "count", "match_s.p50 on replay-lookahead"),
    ("storage.spark_fetch_s", "s", "match_s.p50 on spark-fetch"),
    ("storage.spark_fetch_jobs", "count", "match_s.p50 on spark-fetch"),
    ("storage.spark_fetch_s_per_job", "s", "match_s.p50 on spark-fetch"),
    ("core.stats_s", "s", "match_s.p50 on replay-perblock, match_s.tail on replay-lookahead"),
    ("core.update_s", "s", "match_s.p50 on replay-perblock, match_s.tail on replay-lookahead"),
    ("core.iterate_s", "s", "match_s.p50 on replay-perblock, match_s.tail on replay-lookahead"),
    ("core.iterate_calls", "count", "match_s.p50 on replay-perblock, match_s.tail on replay-lookahead"),
    ("core.iterate_self_s", "s", "match_s.p50 on replay-perblock, match_s.tail on replay-lookahead"),
    ("core.l1_s", "s", "match_s.p50 on replay-perblock, match_s.tail on replay-lookahead"),
    ("core.deviations_s", "s", "match_s.p50 on replay-perblock, match_s.tail on replay-lookahead"),
    ("core.bounds_s", "s", "match_s.p50 on replay-perblock, match_s.tail on replay-lookahead"),
    ("engine.decide_s", "s", "match_s.p50 on replay-perblock, match_s.tail on replay-lookahead"),
    ("engine.mark_naive_s", "s", "match_s.p50 on replay-perblock"),
    ("engine.mark_naive_calls", "count", "match_s.p50 on replay-perblock"),
    ("engine.batches", "count", "match_s.p50 on spark-fetch"),
    ("engine.blocks_considered", "count", "read_frac on replay-lookahead and spark-fetch"),
    ("engine.blocks_read", "count", "read_frac on replay-lookahead and spark-fetch"),
    ("engine.block_read_ratio", "fraction", "read_frac on replay-lookahead and spark-fetch"),
    ("engine.loop_other_s", "s", "match_s.p50 on all workloads"),
    ("trace.overhead_frac", "fraction", "none: traced / untraced match_s.p50 - 1"),
]


def layer_metrics(tracer: Tracer, pqs: dict, setup_reps: int,
                  overhead_frac: float, spark: bool) -> tuple[dict, dict]:
    """Per-layer values of one traced run, and the span/counter agreement.

    Set-up layers are the median over set-up repetitions of one
    repetition's total; loop layers are means per traced approximate call.
    """
    t = SpanTable(tracer.spans)
    results = tracer.runs
    reps = [t.run_id == -1 - r for r in range(setup_reps)]

    def setup_median(fn) -> float:
        return float(np.median([fn(rep) for rep in reps]))

    loop = t.run_id >= 0
    n = len(results)

    def mean(x) -> float:
        return float(x) / n

    def tot(attr) -> float:
        return float(sum(getattr(r, attr) for r in results))

    m = {
        "workloads.generate_s": setup_median(lambda r: t.total("workloads.generate", r)),
        "workloads.load_s": setup_median(
            lambda r: t.total("workloads.load_dataset", r) - t.total("workloads.generate", r)),
        "workloads.prepare_s": setup_median(lambda r: t.total("workloads.prepare", r)),
        "storage.counts_index_s": setup_median(lambda r: t.total("storage.counts_index", r)),
        "storage.counts_index_nnz": sum(len(pq.counts_index.cnt) for pq in pqs.values()),
        "storage.bitmap_s": setup_median(lambda r: t.total("storage.bitmap", r)),
        "storage.bitmap_t_s": setup_median(lambda r: t.total("storage.bitmap_t", r)),
        "storage.index_bytes": sum(
            pq.counts_index.offsets.nbytes + pq.counts_index.z_idx.nbytes
            + pq.counts_index.x_idx.nbytes + pq.counts_index.cnt.nbytes
            + pq.bitmap.nbytes + pq.bitmap_t.nbytes
            for pq in pqs.values()),
        "storage.gather_s": mean(t.total("storage.gather", loop)),
        "storage.gather_calls": mean(t.calls("storage.gather", loop)),
        "storage.gather_blocks": mean(t.counted("storage.gather", loop)),
        "core.stats_s": mean(tot("time_stats")),
        "core.update_s": mean(t.total("core.update", loop)),
        "core.iterate_s": mean(t.total("core.iterate", loop)),
        "core.iterate_calls": mean(t.calls("core.iterate", loop)),
        "core.iterate_self_s": mean(t.self_total("core.iterate", loop)),
        "core.l1_s": mean(t.total("core.l1", loop)),
        "core.deviations_s": mean(t.total("core.deviations", loop)),
        "core.bounds_s": mean(t.total("core.bounds", loop)),
        "engine.decide_s": mean(tot("time_decide")),
        "engine.mark_naive_s": mean(t.total("engine.mark_naive", loop)),
        "engine.mark_naive_calls": mean(t.calls("engine.mark_naive", loop)),
        "engine.batches": mean(tot("n_batches")),
        "engine.blocks_considered": mean(tot("blocks_considered")),
        "engine.blocks_read": mean(tot("blocks_read")),
        "engine.block_read_ratio": tot("blocks_read") / tot("blocks_considered"),
        "engine.loop_other_s": mean(
            tot("wall") - tot("time_decide") - tot("time_fetch") - tot("time_stats")),
        "trace.overhead_frac": overhead_frac,
    }
    if spark:
        m["storage.spark_fetch_s"] = mean(tot("time_fetch"))
        m["storage.spark_fetch_jobs"] = mean(tot("n_stat_iters"))
        m["storage.spark_fetch_s_per_job"] = tot("time_fetch") / tot("n_stat_iters")
    # How much of each RunResult counter the spans of its layer account for.
    # The counters also time work between the wrapped calls: the exhaustion
    # bookkeeping in time_stats, the active set built before mark_naive in
    # time_decide.
    agreement = {
        "core.update+iterate / time_stats": (
            t.total("core.update", loop) + t.total("core.iterate", loop)) / tot("time_stats"),
    }
    if not spark:
        agreement["storage.gather / time_fetch"] = t.total("storage.gather", loop) / tot("time_fetch")
    if t.calls("engine.mark_naive", loop):
        agreement["engine.mark_naive / time_decide"] = (
            t.total("engine.mark_naive", loop) / tot("time_decide"))
    return m, agreement
