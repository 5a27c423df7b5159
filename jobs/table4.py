"""Regenerate Table 4 (speedups over Scan, the paper's main table).

Usage::

    python jobs/table4.py [--sf 0.4] [--runs 3] [--queries flights-q1 ...]
                          [--delta 0.01] [--lookahead 512] [--seed 0]

Prints our table next to the paper's numbers, plus per-variant read
fractions, guarantee/Δ_d verification and why the runs stopped.
EXPERIMENTS.md records one canonical run.
"""
import argparse

from repro.tables.table4 import PAPER_TABLE4, VARIANT_ORDER, format_table, rows


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sf", type=float, default=0.4)
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--delta", type=float, default=0.01)
    ap.add_argument("--lookahead", type=int, default=512)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--queries", nargs="*", default=None)
    args = ap.parse_args()
    exps = rows(
        sf=args.sf,
        n_runs=args.runs,
        delta=args.delta,
        lookahead=args.lookahead,
        seed=args.seed,
        queries=args.queries,
    )
    print(f"\n=== Table 4 (ours; sf={args.sf}, runs={args.runs}) ===")
    print(format_table(exps))
    print("\n=== paper vs ours (speedup over Scan) ===")
    hdr = f"{'Query':<11} " + " ".join(
        f"{v + ' (p/o)':>24}" for v in VARIANT_ORDER
    )
    print(hdr)
    for e in exps:
        paper = PAPER_TABLE4[e.qid]
        cells = [
            f"{paper[v]:>10.2f} / {e.variants[v].speedup:<10.2f}"
            for v in VARIANT_ORDER
        ]
        print(f"{e.qid:<11} " + " ".join(f"{c:>24}" for c in cells))
    print("\n=== diagnostics ===")
    for e in exps:
        for v in VARIANT_ORDER:
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
