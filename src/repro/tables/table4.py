"""Table 4 analog — average speedups over Scan for every query × variant.

Per query: ``n_runs`` replay runs of each approximate variant from seeded
random start blocks, and beside them the exact ``Scan`` (one ``bincount``
over the same codes).  A speedup is the Scan's best wall time over the
variant's mean measured wall time.  Guarantee-1/2
satisfaction and Δ_d are verified against exact ground truth on every
run (§5.3) — the paper reports zero violations across all runs, and so
must we.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.engine.runner import APPROX_VARIANTS, RunResult, run_scan, run_variant
from repro.tables.metrics import delta_d, guarantee1_satisfied, guarantee2_satisfied
from repro.workloads.queries import QUERIES, PreparedQuery, load_dataset, prepare

VARIANT_ORDER = ["slowmatch", "scanmatch", "syncmatch", "fastmatch"]

#: The paper's Table 4: Scan seconds, then speedup-over-Scan per variant.
PAPER_TABLE4 = {
    "flights-q1": {"scan_s": 18.313, "slowmatch": 11.787, "scanmatch": 14.133, "syncmatch": 18.215, "fastmatch": 21.574},
    "flights-q2": {"scan_s": 18.185, "slowmatch": 1.336, "scanmatch": 1.654, "syncmatch": 3.663, "fastmatch": 15.128},
    "flights-q3": {"scan_s": 16.112, "slowmatch": 0.995, "scanmatch": 1.417, "syncmatch": 2.244, "fastmatch": 7.347},
    "flights-q4": {"scan_s": 25.983, "slowmatch": 27.909, "scanmatch": 30.670, "syncmatch": 38.967, "fastmatch": 39.803},
    "taxi-q1": {"scan_s": 17.621, "slowmatch": 0.992, "scanmatch": 1.343, "syncmatch": 0.144, "fastmatch": 12.790},
    "taxi-q2": {"scan_s": 16.982, "slowmatch": 1.001, "scanmatch": 1.278, "syncmatch": 0.137, "fastmatch": 7.338},
    "police-q1": {"scan_s": 10.220, "slowmatch": 9.660, "scanmatch": 16.716, "syncmatch": 15.695, "fastmatch": 22.329},
    "police-q2": {"scan_s": 10.181, "slowmatch": 30.701, "scanmatch": 46.829, "syncmatch": 62.611, "fastmatch": 99.903},
    "police-q3": {"scan_s": 10.134, "slowmatch": 26.796, "scanmatch": 44.921, "syncmatch": 18.181, "fastmatch": 136.509},
}


@dataclass
class VariantSummary:
    """Aggregates over the runs of one variant on one query."""

    variant: str
    speedup: float
    seconds: float              # measured wall time, averaged
    read_fraction: float        # tuples read / total tuples, averaged
    time_stats: float
    time_decide: float
    time_fetch: float
    n_stat_iters: float
    guarantee_violations: int
    delta_d_mean: float
    stop_reasons: Counter       # RunResult.stop_reason → number of runs
    runs: list[RunResult] = field(repr=False, default_factory=list)


@dataclass
class QueryExperiment:
    qid: str
    eps: float
    delta: float
    lookahead: int
    scan_seconds: float
    n_rows: int
    variants: dict[str, VariantSummary]


def run_query_experiment(
    pq: PreparedQuery,
    *,
    n_runs: int = 5,
    delta: float = 0.01,
    lookahead: int = 512,
    seed: int = 0,
    variants=None,
) -> QueryExperiment:
    """Run each variant ``n_runs`` times, timing the Scan beside them.

    For each start block, ⌈10 / n_runs⌉ Scans are timed and then every
    variant runs from it; the fastest of all the Scans (at least ten) is
    kept.  Interleaved, the Scan and the runs it divides are timed in the
    same minutes on a machine whose speed drifts, and a cold pass or a
    stall does not flatter the variants.
    """
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, pq.ds.n_blocks, size=n_runs)
    names = variants or VARIANT_ORDER
    all_runs: dict[str, list[RunResult]] = {v: [] for v in names}
    scan_walls = []
    for s in starts:
        scan_walls += [run_scan(pq).wall for _ in range(-(-10 // n_runs))]
        for variant in names:
            all_runs[variant].append(
                run_variant(pq, variant, delta=delta, lookahead=lookahead, start_block=int(s))
            )
    scan_seconds = min(scan_walls)
    summaries: dict[str, VariantSummary] = {}
    for variant, runs in all_runs.items():
        violations, dds = 0, []
        for r in runs:
            ok = guarantee1_satisfied(
                r.topk_idx, pq.tau_star, pq.spec.k, r.eps
            ) and guarantee2_satisfied(r.topk_idx, r.est_counts, pq.exact_counts, r.eps)
            violations += 0 if ok else 1
            dds.append(delta_d(r.topk_idx, pq.tau_star, pq.spec.k))
        seconds = float(np.mean([r.wall for r in runs]))
        summaries[variant] = VariantSummary(
            variant=variant,
            speedup=scan_seconds / seconds,
            seconds=seconds,
            read_fraction=float(np.mean([r.tuples_read for r in runs])) / pq.ds.n_rows,
            time_stats=float(np.mean([r.time_stats for r in runs])),
            time_decide=float(np.mean([r.time_decide for r in runs])),
            time_fetch=float(np.mean([r.time_fetch for r in runs])),
            n_stat_iters=float(np.mean([r.n_stat_iters for r in runs])),
            guarantee_violations=violations,
            delta_d_mean=float(np.mean(dds)),
            stop_reasons=Counter(r.stop_reason for r in runs),
            runs=runs,
        )
    return QueryExperiment(
        qid=pq.spec.qid, eps=pq.spec.eps, delta=delta, lookahead=lookahead,
        scan_seconds=scan_seconds, n_rows=pq.ds.n_rows, variants=summaries,
    )


def rows(
    *,
    sf: float,
    n_runs: int = 5,
    delta: float = 0.01,
    lookahead: int = 512,
    seed: int = 0,
    queries=None,
) -> list[QueryExperiment]:
    """Run the full Table 4 grid (all queries × all variants)."""
    out, ds = [], None  # datasets are grouped in QUERIES: load each once
    for qid, spec in QUERIES.items():
        if queries is not None and qid not in queries:
            continue
        if ds is None or ds.name != spec.dataset:
            ds = load_dataset(None, spec.dataset, sf=sf)
        out.append(
            run_query_experiment(
                prepare(ds, spec), n_runs=n_runs, delta=delta, lookahead=lookahead, seed=seed
            )
        )
    return out


def format_table(exps: list[QueryExperiment]) -> str:
    """Printable rows in the paper's Table 4 layout (speedup (raw s))."""
    lines = [
        f"{'Query':<11} {'Scan(s)':>8} "
        + " ".join(f"{v:>22}" for v in VARIANT_ORDER)
    ]
    for e in exps:
        cells = []
        for v in VARIANT_ORDER:
            s = e.variants[v]
            cells.append(f"{s.speedup:>9.3f}x ({s.seconds:.4f}s)")
        lines.append(f"{e.qid:<11} {e.scan_seconds:>8.4f} " + " ".join(f"{c:>22}" for c in cells))
    total_viol = sum(s.guarantee_violations for e in exps for s in e.variants.values())
    total_runs = sum(len(s.runs) for e in exps for s in e.variants.values())
    lines.append(f"guarantee violations: {total_viol}/{total_runs} runs")
    return "\n".join(lines)
