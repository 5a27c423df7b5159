"""Regenerate Table 4 (speedups over Scan, the paper's main table).

Usage::

    python jobs/table4.py [--sf 0.4] [--runs 3] [--queries flights-q1 ...] [--seed 0]

Runs at the paper's δ = 0.01 and lookahead = 512; ``jobs/run_query.py``
sweeps them.  Prints our table next to the paper's numbers, plus
per-variant read fractions, guarantee/Δ_d verification and why the runs
stopped.  EXPERIMENTS.md records one canonical run.
"""
import argparse

from repro.engine.runner import APPROX_VARIANTS
from repro.tables.table4 import DEFAULT_RUNS, PAPER_TABLE4, format_table, rows
from repro.workloads.datasets import scale_factor
from repro.workloads.queries import QUERIES


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sf", type=scale_factor, default=0.4)
    ap.add_argument("--runs", type=int, default=DEFAULT_RUNS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--queries", nargs="+", default=None, choices=sorted(QUERIES))
    args = ap.parse_args()
    if args.runs < 1:
        ap.error(f"--runs must be >= 1, got {args.runs}")
    exps = rows(sf=args.sf, n_runs=args.runs, seed=args.seed, queries=args.queries)
    print(f"\n=== Table 4 (ours; sf={args.sf}, runs={args.runs}) ===")
    print(format_table(exps))
    print("\n=== paper vs ours (speedup over Scan) ===")
    hdr = f"{'Query':<11} " + " ".join(
        f"{v + ' (p/o)':>24}" for v in APPROX_VARIANTS
    )
    print(hdr)
    for e in exps:
        paper = PAPER_TABLE4[e.qid]
        cells = [
            f"{paper[v]:>10.2f} / {e.variants[v].speedup:<10.2f}"
            for v in APPROX_VARIANTS
        ]
        print(f"{e.qid:<11} " + " ".join(f"{c:>24}" for c in cells))
    print("\n=== diagnostics ===")
    for e in exps:
        for v in APPROX_VARIANTS:
            s = e.variants[v]
            print(
                f"{e.qid:<11} {v:<10} read={s.read_fraction:7.1%} "
                f"stats={s.time_stats:7.3f}s decide={s.time_decide:7.3f}s "
                f"fetch={s.time_fetch:7.3f}s "
                f"iters={s.n_stat_iters:9.1f} viol={s.guarantee_violations} "
                f"delta_d={s.delta_d_mean:.4f} "
                f"stop={','.join(f'{k}:{n}' for k, n in sorted(s.stop_reasons.items()))}"
            )


if __name__ == "__main__":
    main()
