"""Table 2 analog — dataset descriptions, ours next to the paper's."""
from __future__ import annotations

from repro.storage.blocks import count_blocks
from repro.workloads.datasets import DATASETS, DEFAULT_TUPLES_PER_BLOCK, n_rows_at

PAPER_TABLE2 = {
    "flights": {"size": "32 GiB", "tuples": 604_000_000, "attrs": 7, "replications": 5},
    "taxi": {"size": "36 GiB", "tuples": 677_000_000, "attrs": 7, "replications": 4},
    "police": {"size": "29 GiB", "tuples": 382_000_000, "attrs": 10, "replications": 72},
}


def rows(*, sf: float) -> list[dict]:
    """One row per dataset: paper figures + our synthetic analog's, from
    its row count and vocabularies, without drawing it (blocks of
    ``DEFAULT_TUPLES_PER_BLOCK`` rows, the last possibly partial)."""
    n = n_rows_at(sf)
    return [
        {
            "dataset": name.upper(),
            "paper_tuples": paper["tuples"],
            "paper_attrs": paper["attrs"],
            "ours_tuples": n,
            "ours_attrs": len(DATASETS[name].value_sets),
            "ours_blocks": count_blocks(n, DEFAULT_TUPLES_PER_BLOCK),
            "tuples_per_block": DEFAULT_TUPLES_PER_BLOCK,
            "cardinalities": {c: len(v) for c, v in DATASETS[name].value_sets.items()},
        }
        for name, paper in PAPER_TABLE2.items()
    ]


def format_table(rs: list[dict]) -> str:
    lines = [
        f"{'Dataset':<9} {'#Tuples(paper)':>15} {'#Tuples(ours)':>14} "
        f"{'#Attrs(p/o)':>12} {'#Blocks':>9}  Cardinalities"
    ]
    for r in rs:
        cards = ", ".join(f"{c}={n}" for c, n in r["cardinalities"].items())
        lines.append(
            f"{r['dataset']:<9} {r['paper_tuples']:>15,} {r['ours_tuples']:>14,} "
            f"{r['paper_attrs']:>5}/{r['ours_attrs']:<6} {r['ours_blocks']:>9,}  {cards}"
        )
    return "\n".join(lines)
