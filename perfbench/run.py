"""One benchmark run: set up a workload, time its queries, check every answer.

Run from the repository root::

    python3 perfbench/run.py --workload replay-lookahead --seed 1 --seconds 15 --trace 0

The workloads are defined in ``perfbench/config.py``.  A run

1. starts a single-process local SparkSession with pinned settings;
2. sets the workload up ``SETUP_REPS`` times (generate, load, prepare and
   the first ``bitmap_t`` access of every query); ``setup_s`` is the median;
3. cross-checks every query's exact counts against DuckDB, untimed;
4. runs a closed loop with one caller for ``--seconds`` seconds: each round
   runs every variant of every query once from a seeded start block, and
   a call starts only after the previous one returned;
5. checks each answer against Guarantees 1 and 2 (and, in spark mode,
   against a replay run from the same start; the exact Scan against the
   true top-k);
6. prints the pinned configuration, a table of metrics with units, and, as
   the last line, one JSON object with the end-to-end metrics
   (``--trace 0``) or the per-layer metrics (``--trace 1``).

``--trace 1`` repeats the loop with the layers wrapped in spans for as many
rounds as the untraced loop ran, and reports per-layer numbers and
``trace.overhead_frac``.  Results and spans are written under
``.perfbench/`` at the repository root.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import config as C

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

END_TO_END = [
    ("setup_s", "s"),
    ("match_s.p50", "s"),
    ("match_s.tail", "s"),
    ("scan_s", "s"),
    ("read_frac", "fraction"),
    ("fail_frac", "fraction"),
    ("peak_rss_mb", "MB"),
]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(C.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True,
                    help="workload seed; the default for both seeds below")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--data-seed", type=int, default=None,
                    help="dataset generator seed (default: --seed)")
    ap.add_argument("--start-seed", type=int, default=None,
                    help="start-block seed (default: --seed)")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


# -- Spark -------------------------------------------------------------------


def start_spark(threads: int):
    """Local SparkSession with every setting pinned and all files in OUT."""
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    os.environ.pop("SPARK_LOCAL_DIRS", None)
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{threads}]",
        f"--driver-memory {C.DRIVER_MEMORY}",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        "--conf", shlex.quote(f"spark.local.dir={tmp}"),
        "--conf", shlex.quote(f"spark.sql.warehouse.dir={tmp / 'warehouse'}"),
        # -XX:-UsePerfData keeps the JVM from writing hsperfdata under /tmp.
        "--driver-java-options", shlex.quote(f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"),
        "pyspark-shell",
    ])
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(C.SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM process pyspark launched."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is None:
        return
    proc.stdin.close()  # the JVM exits when its stdin closes
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


# -- correctness gate --------------------------------------------------------


class Gate:
    """Counts operations attempted and failed; keeps the first messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok


def crosscheck(wl, data_seed: int, pqs: dict, gate: Gate) -> None:
    """Exact counts of every query against DuckDB's GROUP BY z, x over the
    generated frame, so a fault in ``prepare`` cannot pass as ground truth."""
    import duckdb
    import numpy as np
    import pandas as pd

    from repro.workloads.datasets import generate
    from repro.workloads.queries import QUERIES

    con = duckdb.connect()
    try:
        for name, sf in wl.sf.items():
            frame, _ = generate(name, sf=sf, tuples_per_block=C.TUPLES_PER_BLOCK, seed=data_seed)
            con.register("t", frame)
            for qid in wl.queries:
                spec = QUERIES[qid]
                if spec.dataset != name:
                    continue
                pq = pqs[qid]
                got = con.execute(
                    f'SELECT "{spec.z}" AS z, "{spec.x}" AS x, count(*) AS cnt '
                    "FROM t GROUP BY 1, 2"
                ).fetchdf()
                zi = pd.Index(pq.z_values).get_indexer(got["z"])
                xi = pd.Index(pq.x_values).get_indexer(got["x"])
                expected = np.zeros_like(pq.exact_counts)
                ok = bool((zi >= 0).all() and (xi >= 0).all())
                if ok:
                    expected[zi, xi] = got["cnt"].to_numpy()
                    ok = np.array_equal(expected, pq.exact_counts)
                gate.record(ok, f"{qid}: exact counts differ from DuckDB")
            con.unregister("t")
    finally:
        con.close()


# -- set-up and the closed loop ------------------------------------------------


def _bitmap_t(pq):
    return pq.bitmap_t


def setup(spark, wl, data_seed: int, touch_bitmap_t):
    """Generate + load every dataset, prepare every query, build bitmap_t."""
    from repro.workloads import queries

    t0 = time.perf_counter()
    datasets = {
        name: queries.load_dataset(
            spark, name, sf=sf, tuples_per_block=C.TUPLES_PER_BLOCK, seed=data_seed)
        for name, sf in wl.sf.items()
    }
    pqs = {
        qid: queries.prepare(datasets[queries.QUERIES[qid].dataset], queries.QUERIES[qid])
        for qid in wl.queries
    }
    for pq in pqs.values():
        touch_bitmap_t(pq)
    return time.perf_counter() - t0, datasets, pqs


@dataclass
class Sample:
    qid: str
    variant: str
    start: int
    seconds: float
    tuples_read: int


def run_round(wl, pqs, starts, r: int, gate: Gate, tracer=None):
    """Round ``r``: every variant of every query once, from each query's
    (r mod N_STARTS)-th start block, then its exact Scan if the workload
    times one.  Returns the approximate-call samples and the Scan times."""
    from repro.engine import runner
    from spans import UNTRACKED

    def approx(pq, variant, start, mode):
        return runner.run_variant(
            pq, variant, eps=pq.spec.eps, delta=C.DELTA, lookahead=C.LOOKAHEAD,
            start_block=start, mode=mode)

    def tag(run_id):
        if tracer is not None:
            tracer.run_id = run_id

    samples: list[Sample] = []
    scans: list[float] = []
    for qid in wl.queries:
        pq = pqs[qid]
        start = int(starts[qid][r % C.N_STARTS])
        for variant in wl.variants:
            what = f"{qid} {variant} start={start}"
            tag(len(tracer.runs) if tracer is not None else 0)
            t0 = time.perf_counter()
            try:
                res = approx(pq, variant, start, wl.mode)
            except Exception:
                gate.record(False, f"{what}: raised\n{traceback.format_exc()}")
                continue
            dt = time.perf_counter() - t0
            samples.append(Sample(qid, variant, start, dt, res.tuples_read))
            ok = check_answer(pq, res)
            if ok and wl.mode == "spark":
                tag(UNTRACKED)
                ref = approx(pq, variant, start, "replay")
                ok = (ref.blocks_read == res.blocks_read
                      and ref.tuples_read == res.tuples_read
                      and list(ref.topk_idx) == list(res.topk_idx))
                what += " (spark differs from replay)"
            gate.record(ok, what)
            if tracer is not None:  # counters only: the arrays would inflate peak RSS
                tracer.runs.append(replace(res, topk_idx=None, tau_est=None, est_counts=None))
        if wl.scan:
            tag(UNTRACKED)
            t0 = time.perf_counter()
            try:
                s = runner.run_scan(pq)
            except Exception:
                gate.record(False, f"{qid} scan: raised\n{traceback.format_exc()}")
                continue
            scans.append(time.perf_counter() - t0)
            gate.record(set(s.topk_idx.tolist()) == set(pq.true_topk().tolist()),
                        f"{qid} scan: top-k differs from the true top-k")
    return samples, scans


def closed_loop(wl, pqs, starts, gate: Gate, seconds: float, tracer=None):
    """One untimed warm-up round, then rounds until ``seconds`` have passed,
    at least N_STARTS rounds ran and, unless a call failed, at least
    MIN_SAMPLES calls were timed.

    With a tracer every round runs twice, untraced and traced, alternating
    which goes first, so both halves see the same conditions.  Returns the
    untraced samples, the traced samples and the Scan times.
    """
    run_round(wl, pqs, starts, 0, gate)
    gc.collect()
    untraced: list[Sample] = []
    traced: list[Sample] = []
    scans: list[float] = []
    deadline = time.perf_counter() + seconds
    r = 0
    while (r < C.N_STARTS or time.perf_counter() < deadline
           or (len(untraced) < C.MIN_SAMPLES and not gate.failed)):
        order = [False] if tracer is None else [r % 2 == 1, r % 2 == 0]
        for with_trace in order:
            if with_trace:
                with tracer.installed():
                    traced += run_round(wl, pqs, starts, r, gate, tracer)[0]
            else:
                s, sc = run_round(wl, pqs, starts, r, gate)
                untraced += s
                scans += sc
        r += 1
    return untraced, traced, scans


def check_answer(pq, res) -> bool:
    """Guarantees 1 and 2 against the exact ground truth."""
    from repro.tables.metrics import guarantee1_satisfied, guarantee2_satisfied

    return guarantee1_satisfied(res.topk_idx, pq.tau_star, pq.spec.k, res.eps) and (
        guarantee2_satisfied(res.topk_idx, res.est_counts, pq.exact_counts, res.eps))


# -- metrics -------------------------------------------------------------------


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest rank with >= 10 samples beyond it."""
    srt = sorted(times)
    n = len(srt)
    return 100.0 * (n - 10) / n, srt[n - 11]


def end_to_end(wl, setup_times, samples, scans, pqs, gate) -> dict:
    if len(samples) < C.MIN_SAMPLES:
        raise RuntimeError(
            f"only {len(samples)} calls succeeded; failures: {gate.messages}")
    reads = {
        (s.qid, s.variant, s.start): s.tuples_read / pqs[s.qid].ds.n_rows
        for s in samples
    }
    pct, tail_s = tail([s.seconds for s in samples])
    m = {
        "setup_s": statistics.median(setup_times),
        "match_s.p50": statistics.median(s.seconds for s in samples),
        "match_s.tail": tail_s,
        "read_frac": statistics.fmean(reads.values()),
        "fail_frac": gate.failed / gate.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if scans:
        m["scan_s"] = statistics.median(scans)
    notes = {
        "setup_s": f"median of {len(setup_times)}",
        "match_s.p50": f"n={len(samples)}",
        "match_s.tail": f"p{pct:.2f} of n={len(samples)}",
        "scan_s": f"n={len(scans)}",
        "read_frac": f"{len(reads)} distinct (query, variant, start)",
        "fail_frac": f"{gate.failed}/{gate.attempted}",
        "peak_rss_mb": "ru_maxrss of the driver process",
    }
    return m, notes


def bench_metric_names(kind: str) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[kind]]


def config_record(wl, args, threads, spark, datasets) -> dict:
    import numpy as np
    import pyspark

    from repro.workloads.queries import QUERIES

    return {
        "workload": wl.name,
        "seed": args.seed,
        "data_seed": args.data_seed,
        "start_seed": args.start_seed,
        "held_out_seed": C.HELD_OUT_SEED,
        "spark_master": f"local[{threads}]",
        "shuffle_partitions": C.SHUFFLE_PARTITIONS,
        "driver_memory": C.DRIVER_MEMORY,
        "tuples_per_block": C.TUPLES_PER_BLOCK,
        "nproc": len(os.sched_getaffinity(0)),
        "ram_gib": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pyspark": pyspark.__version__,
        "java": spark.sparkContext._jvm.System.getProperty("java.version"),
        "sf": dict(wl.sf),
        "rows": {n: ds.n_rows for n, ds in datasets.items()},
        "blocks": {n: ds.n_blocks for n, ds in datasets.items()},
        "mode": wl.mode,
        "variants": list(wl.variants),
        "lookahead": C.LOOKAHEAD,
        "delta": C.DELTA,
        "eps": {q: QUERIES[q].eps for q in wl.queries},
        "setup_reps": C.SETUP_REPS,
        "n_starts": C.N_STARTS,
    }


# -- main --------------------------------------------------------------------


def run(args) -> dict:
    import numpy as np

    from spans import LAYER_METRICS, Tracer, layer_metrics

    wl = C.WORKLOADS[args.workload]
    threads = min(C.SPARK_MAX_THREADS, len(os.sched_getaffinity(0)))
    tracer = Tracer() if args.trace else None
    touch = tracer.wrap("storage.bitmap_t", _bitmap_t) if tracer else _bitmap_t
    gate = Gate()
    spark = start_spark(threads)
    try:
        setup_times, datasets, pqs = [], {}, {}
        for rep in range(C.SETUP_REPS):
            for ds in datasets.values():
                ds.sdf.unpersist(blocking=True)
            datasets = pqs = None
            if tracer is not None:
                tracer.run_id = -1 - rep
                with tracer.installed():
                    dt, datasets, pqs = setup(spark, wl, args.data_seed, touch)
            else:
                dt, datasets, pqs = setup(spark, wl, args.data_seed, touch)
            setup_times.append(dt)
        cfg = config_record(wl, args, threads, spark, datasets)
        crosscheck(wl, args.data_seed, pqs, gate)
        if wl.mode == "replay":
            # Replay runs need no Spark; a live JVM's background threads
            # (GC, JIT, heartbeats) would only add noise to the timings.
            stop_spark(spark)
            spark = None

        rng = np.random.default_rng(args.start_seed)
        starts = {q: rng.integers(0, pqs[q].ds.n_blocks, size=C.N_STARTS) for q in wl.queries}
        samples, t_samples, scans = closed_loop(
            wl, pqs, starts, gate, args.seconds, tracer)
        e2e, notes = end_to_end(wl, setup_times, samples, scans, pqs, gate)
        layers = agreement = None
        if tracer is not None:
            overhead = (statistics.median(s.seconds for s in t_samples)
                        / e2e["match_s.p50"] - 1.0)
            layers, agreement = layer_metrics(
                tracer, pqs, C.SETUP_REPS, overhead, spark=wl.mode == "spark")
    finally:
        if spark is not None:
            stop_spark(spark)

    print("config " + json.dumps(cfg))
    print(f"\n{wl.name}: end-to-end (tracing off)")
    for name, unit in END_TO_END:
        if name in e2e:
            print(f"  {name:<14} {e2e[name]:>14.6g} {unit:<8} {notes[name]}")
        else:
            print(f"  {name:<14} {'absent':>14}          not produced by this workload")
    if gate.messages:
        print("failures:", *gate.messages, sep="\n  ", file=sys.stderr)

    stem = f"{wl.name}-seed{args.seed}" + ("-trace" if tracer else "")
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    cells = {}
    for smp in samples:
        cells.setdefault(f"{smp.qid} {smp.variant}", []).append(smp.seconds)
    record = {"config": cfg, "end_to_end": e2e, "setup_times_s": setup_times,
              "cell_median_s": {c: statistics.median(v) for c, v in cells.items()},
              "failures": gate.messages}
    if tracer is not None:
        print(f"\n{wl.name}: per layer (traced run, means per call; set-up: median per set-up)")
        units = {}
        for name, unit, moves in LAYER_METRICS:
            units[name] = unit
            value = f"{layers[name]:>14.6g}" if name in layers else f"{'absent':>14}"
            print(f"  {name:<30} {value} {unit:<8} -> {moves}")
        print("span totals / RunResult counters:")
        for name, ratio in agreement.items():
            print(f"  {name:<40} {ratio:.4f}")
        record.update(per_layer=layers, agreement=agreement)
        (OUT / "trace").mkdir(parents=True, exist_ok=True)
        tracer.dump(OUT / "trace" / f"{stem}.spans.json")
        wanted = bench_metric_names("per_layer")
        metrics = {n: {"value": layers[n], "unit": units[n]} for n in wanted if n in layers}
    else:
        wanted = bench_metric_names("end_to_end")
        units = dict(END_TO_END)
        metrics = {n: {"value": e2e[n], "unit": units[n]} for n in wanted if n in e2e}
    (OUT / "results" / f"{stem}.json").write_text(json.dumps(record, indent=1))
    return {"correct": gate.failed == 0, "attempted": gate.attempted,
            "failed": gate.failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.data_seed is None:
        args.data_seed = args.seed
    if args.start_seed is None:
        args.start_seed = args.seed
    try:
        result = run(args)
    finally:
        shutil.rmtree(OUT / f"tmp-{os.getpid()}", ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
