"""The benchmark's workloads and the configuration every run pins.

Every number the benchmark prints depends on these values, so they are
constants here rather than settings inherited from the environment, and
every run prints them beside its results.
"""
from __future__ import annotations

from dataclasses import dataclass

#: δ of Problem 1 and the FastMatch lookahead, for every query.
DELTA = 0.01
LOOKAHEAD = 512
#: Tuples per block: the library default (``DEFAULT_TUPLES_PER_BLOCK``),
#: pinned here so the benchmark's block size stays put if that default moves.
TUPLES_PER_BLOCK = 32
#: Spark: local mode with at most this many task threads (capped by nproc),
#: shuffle partitions and driver heap.  The data is small; two threads leave
#: the other cores to the driver's numpy work.
SPARK_MAX_THREADS = 2
SHUFFLE_PARTITIONS = 4
DRIVER_MEMORY = "2g"
#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPS = 3
#: Start blocks per query.  Round r of the closed loop starts every query at
#: its (r mod N_STARTS)-th start, so ``read_frac`` is the same for a seed
#: whatever the number of rounds the time allowed.
N_STARTS = 5
#: ``match_s.tail`` needs at least ten samples beyond it.
MIN_SAMPLES = 11
#: A seed never used while a change is tuned; gain claims are re-checked on it.
HELD_OUT_SEED = 7919


@dataclass(frozen=True)
class Workload:
    name: str
    sf: dict            # dataset name → scale factor (SF 1.0 = 6M rows)
    queries: tuple      # Table 3 query ids, in loop order
    variants: tuple     # approximate variants run on every query
    mode: str           # run_variant mode: "replay" or "spark"
    scan: bool = False  # also time the exact Scan of every query each round


#: Why each workload is chosen is recorded in BENCHMARK.json (and, for
#: spark-fetch, which is not listed there, in README.md).
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in [
        Workload(
            "replay-lookahead",
            {"flights": 0.02, "taxi": 0.02},
            ("flights-q1", "flights-q2", "flights-q3", "flights-q4",
             "taxi-q1", "taxi-q2"),
            ("slowmatch", "scanmatch", "fastmatch"),
            "replay",
        ),
        # SyncMatch reads every TAXI block at these sizes and costs ~1.4 ms
        # per block, so SF 0.002 (375 blocks) keeps a call near 0.5 s and a
        # 20 s run near 40 samples.
        Workload(
            "replay-perblock",
            {"taxi": 0.002},
            ("taxi-q1", "taxi-q2"),
            ("syncmatch",),
            "replay",
        ),
        # Not in BENCHMARK.json: one spark job per batch costs ~0.5-0.8 s, so
        # a run cannot collect MIN_SAMPLES calls in the benchmark's time
        # budget.  Run it by hand to measure spark fetch and the exact Scan.
        Workload(
            "spark-fetch",
            {"flights": 0.02, "police": 0.02},
            ("flights-q1", "police-q1"),
            ("fastmatch",),
            "spark",
            scan=True,
        ),
    ]
}
