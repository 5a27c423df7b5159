"""Run one (query, variant) pair with explicit parameters.

Usage::

    python jobs/run_query.py flights-q1 fastmatch [--sf 0.4] [--eps 0.25]
        [--delta 0.01] [--lookahead 512] [--start N | --seed N (default 0)]
        [--mode replay|spark]

This is the hook for the paper's sweep figures (ε, δ, lookahead) —
invoke it across a parameter grid and collect the printed metrics.
δ and lookahead default to the paper's Table 4 settings.  ``--seed s``
starts where Table 4's first run with ``--seed s`` starts.  Bad arguments
exit 2 before a dataset is drawn.
"""
import argparse

from repro.engine.runner import APPROX_VARIANTS, DELTA, LOOKAHEAD, run_scan, run_variant, start_blocks
from repro.session import get_spark
from repro.storage.blocks import count_blocks
from repro.tables.metrics import delta_d, guarantee1_satisfied, guarantee2_satisfied
from repro.workloads.datasets import DEFAULT_TUPLES_PER_BLOCK, n_rows_at, scale_factor
from repro.workloads.queries import QUERIES, load_dataset, prepare


def checked(convert, ok, rule: str):
    """An argparse type: ``convert(text)``, a usage error unless ``ok`` holds."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    parse.__name__ = convert.__name__  # "invalid float value: 'x'"
    return parse


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("qid", choices=sorted(QUERIES))
    ap.add_argument("variant", choices=["scan", *APPROX_VARIANTS])
    ap.add_argument("--sf", type=scale_factor, default=0.4)
    # the ranges HistSimState (ε, δ) and run_variant (lookahead) enforce
    ap.add_argument("--eps", type=checked(float, lambda e: e > 0, "> 0"), default=None)
    ap.add_argument("--delta", type=checked(float, lambda d: 0 < d < 1, "in (0, 1)"), default=DELTA)
    ap.add_argument("--lookahead", type=checked(int, lambda n: n >= 1, ">= 1"), default=LOOKAHEAD)
    first_block = ap.add_mutually_exclusive_group()
    first_block.add_argument("--start", type=int, default=None)
    first_block.add_argument("--seed", type=int, default=0)
    ap.add_argument("--mode", choices=["replay", "spark"], default="replay")
    args = ap.parse_args()
    n_blocks = count_blocks(n_rows_at(args.sf), DEFAULT_TUPLES_PER_BLOCK)
    start = int(start_blocks(n_blocks, args.seed, 1)[0]) if args.start is None else args.start
    if not 0 <= start < n_blocks:
        ap.error(f"--start must be in [0, {n_blocks}) at --sf {args.sf}, got {start}")

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
            lookahead=args.lookahead, start_block=start, mode=args.mode,
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
