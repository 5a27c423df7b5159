"""Run one (query, variant) pair with explicit parameters.

Usage::

    python jobs/run_query.py flights-q1 fastmatch [--sf 0.4] [--eps 0.25]
        [--delta 0.01] [--lookahead 512] [--start N | --seed N]
        [--mode replay|spark]

This is the hook for the paper's sweep figures (ε, δ, lookahead) —
invoke it across a parameter grid and collect the printed metrics.
"""
import argparse

from repro.engine.runner import run_scan, run_variant
from repro.session import get_spark
from repro.tables.metrics import delta_d, guarantee1_satisfied, guarantee2_satisfied
from repro.workloads.queries import QUERIES, load_dataset, prepare


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("qid")
    ap.add_argument("variant", choices=["scan", "slowmatch", "scanmatch", "syncmatch", "fastmatch"])
    ap.add_argument("--sf", type=float, default=0.4)
    ap.add_argument("--eps", type=float, default=None)
    ap.add_argument("--delta", type=float, default=0.01)
    ap.add_argument("--lookahead", type=int, default=512)
    ap.add_argument("--start", type=int, default=None)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--mode", choices=["replay", "spark"], default="replay")
    args = ap.parse_args()

    spark = get_spark("run_query") if args.mode == "spark" else None
    spec = QUERIES[args.qid]
    ds = load_dataset(spark, spec.dataset, sf=args.sf)
    pq = prepare(ds, spec)

    if args.variant == "scan":
        s = run_scan(pq)
        print(f"scan: wall={s.wall:.4f}s rows={ds.n_rows}")
        print("top-k:", [pq.z_values[i] for i in s.topk_idx])
    else:
        r = run_variant(
            pq, args.variant, eps=args.eps, delta=args.delta,
            lookahead=args.lookahead, start_block=args.start, seed=args.seed,
            mode=args.mode,
        )
        g1 = guarantee1_satisfied(r.topk_idx, pq.tau_star, spec.k, r.eps)
        g2 = guarantee2_satisfied(r.topk_idx, r.est_counts, pq.exact_counts, r.eps)
        print(
            f"{args.variant}: eps={r.eps} start={r.start_block} "
            f"tuples_read={r.tuples_read} ({r.tuples_read / ds.n_rows:.1%}) "
            f"blocks={r.blocks_read}/{r.blocks_considered} "
            f"stat_iters={r.n_stat_iters} stats={r.time_stats:.3f}s "
            f"decide={r.time_decide:.3f}s fetch={r.time_fetch:.3f}s wall={r.wall:.3f}s "
            f"delta_upper={r.delta_upper:.2e} stop={r.stop_reason}"
        )
        print(
            f"guarantee1={g1} guarantee2={g2} "
            f"delta_d={delta_d(r.topk_idx, pq.tau_star, spec.k):.4f}"
        )
        print("top-k:", [pq.z_values[i] for i in r.topk_idx])
    if spark is not None:
        spark.stop()


if __name__ == "__main__":
    main()
