"""Table 3 analog — query summaries with resolved targets."""
from __future__ import annotations

from repro.workloads.queries import PreparedQuery, for_each_query

PAPER_TABLE3 = {
    "flights-q1": {"vz": 161, "vx": 24, "k": 10, "target": "Chicago ORD"},
    "flights-q2": {"vz": 161, "vx": 24, "k": 10, "target": "Appleton ATW"},
    "flights-q3": {"vz": 161, "vx": 7, "k": 5, "target": "[0.25, 0.125 x6]"},
    "flights-q4": {"vz": 161, "vx": 161, "k": 10, "target": "closest to uniform"},
    "taxi-q1": {"vz": 7548, "vx": 24, "k": 10, "target": "closest to uniform"},
    "taxi-q2": {"vz": 7548, "vx": 12, "k": 10, "target": "closest to uniform"},
    "police-q1": {"vz": 191, "vx": 2, "k": 10, "target": "closest to uniform"},
    "police-q2": {"vz": 191, "vx": 5, "k": 10, "target": "closest to uniform"},
    "police-q3": {"vz": 2110, "vx": 2, "k": 5, "target": "closest to uniform"},
}


def rows(*, sf: float) -> list[dict]:
    """One row per query: spec + resolved target description."""
    return for_each_query(_row, sf=sf)


def _row(pq: PreparedQuery) -> dict:
    spec, paper = pq.spec, PAPER_TABLE3[pq.spec.qid]
    return {
        "query": spec.qid,
        "z": spec.z,
        "vz_paper": paper["vz"],
        "vz_ours": pq.n_candidates,
        "x": spec.x,
        "vx_paper": paper["vx"],
        "vx_ours": pq.d,
        "k": spec.k,
        "eps": spec.eps,
        "paper_eps": spec.paper_eps,
        "target_paper": paper["target"],
        "target_ours": pq.target_desc,
    }


def format_table(rs: list[dict]) -> str:
    lines = [
        f"{'Query':<11} {'Z(|VZ| p/o)':<26} {'X(|VX| p/o)':<30} "
        f"{'k':>2} {'eps':>5}  Target"
    ]
    for r in rs:
        z = f"{r['z']}({r['vz_paper']}/{r['vz_ours']})"
        x = f"{r['x']}({r['vx_paper']}/{r['vx_ours']})"
        lines.append(
            f"{r['query']:<11} {z:<26} {x:<30} "
            f"{r['k']:>2} {r['eps']:>5}  {r['target_ours']} (paper: {r['target_paper']})"
        )
    return "\n".join(lines)
