"""The nine evaluation queries (paper Table 3) and run preparation.

Each :class:`QuerySpec` mirrors a Table 3 row: candidate attribute Z,
grouping attribute X, k, and the visual target.  Targets are computed
exactly as the paper describes: an explicit distribution (FLIGHTS-q3),
a named candidate's true histogram (FLIGHTS-q1/q2: the ORD / ATW
analogs), or the true histogram of the candidate closest to uniform
(everything else).

``eps`` is the *regime-matched* tolerance used by our Table 4 runs:
Theorem 1's sample complexity n(ε) ≈ (2/ε²)(|V_X|·ln2 + ln(1/δ)) is an
absolute number of samples, while our datasets are ~250× smaller than
the paper's, so running at the paper's ε = 0.06 would force every
variant to read nearly everything and flatten the comparison.  We pick
ε per query so that n(ε) is a similar *fraction* of a top-k candidate's
tuple count as in the paper (see EXPERIMENTS.md for the arithmetic);
``paper_eps`` records the paper's setting.

:func:`load_dataset` + :func:`prepare` build everything a run needs:
the blocked, cached Spark DataFrame, vocabularies, the bitmap index,
the replay-mode counts index, and exact ground truth (counts and true
distances τ*).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.core.distance import l1_distances
from repro.storage.bitmap import bitmap_from_index
from repro.storage.blocks import BlockCountsIndex, build_counts_index, encode
from repro.workloads.datasets import DEFAULT_TUPLES_PER_BLOCK, DatasetMeta, generate


@dataclass(frozen=True)
class QuerySpec:
    """One Table 3 row (scaled; see DESIGN.md §2 for cardinality notes)."""

    dataset: str
    name: str
    z: str
    x: str
    k: int
    eps: float
    paper_eps: float
    target_kind: str           # "candidate" | "uniform_closest" | "explicit"
    target_arg: Any = None     # candidate value, or {x value: mass}

    @property
    def qid(self) -> str:
        return f"{self.dataset}-{self.name}"


QUERIES: dict[str, QuerySpec] = {
    q.qid: q
    for q in [
        QuerySpec("flights", "q1", "origin", "departure_hour", 10, 0.25, 0.06,
                  "candidate", "ORG000"),
        QuerySpec("flights", "q2", "origin", "departure_hour", 10, 0.25, 0.06,
                  "candidate", "ORG140"),
        QuerySpec("flights", "q3", "origin", "day_of_week", 5, 0.30, 0.06,
                  "explicit", {1: 0.25, 2: 0.125, 3: 0.125, 4: 0.125,
                               5: 0.125, 6: 0.125, 7: 0.125}),
        QuerySpec("flights", "q4", "origin", "dest", 10, 0.60, 0.07,
                  "uniform_closest"),
        QuerySpec("taxi", "q1", "location", "hour_of_day", 10, 0.35, 0.06,
                  "uniform_closest"),
        QuerySpec("taxi", "q2", "location", "month_of_year", 10, 0.35, 0.06,
                  "uniform_closest"),
        QuerySpec("police", "q1", "road_id", "contraband_found", 10, 0.15, 0.06,
                  "uniform_closest"),
        QuerySpec("police", "q2", "road_id", "officer_race", 10, 0.18, 0.06,
                  "uniform_closest"),
        QuerySpec("police", "q3", "violation", "driver_gender", 5, 0.20, 0.06,
                  "uniform_closest"),
    ]
}


@dataclass
class LoadedDataset:
    """A generated dataset, cached in Spark with its blocked layout."""

    name: str
    sdf: DataFrame
    meta: DatasetMeta
    n_rows: int
    tuples_per_block: int
    n_blocks: int


def load_dataset(
    spark: SparkSession,
    name: str,
    *,
    sf: float,
    tuples_per_block: int = DEFAULT_TUPLES_PER_BLOCK,
    seed: int | None = None,
) -> LoadedDataset:
    """Generate + register one dataset (cached; one Spark materialization)."""
    kwargs = {"sf": sf, "tuples_per_block": tuples_per_block}
    if seed is not None:
        kwargs["seed"] = seed
    pdf, meta = generate(name, **kwargs)
    sdf = spark.createDataFrame(pdf).cache()
    n_rows = sdf.count()  # materialize the cache
    n_blocks = int(pdf["_block_id"].max()) + 1
    return LoadedDataset(
        name=name,
        sdf=sdf,
        meta=meta,
        n_rows=n_rows,
        tuples_per_block=tuples_per_block,
        n_blocks=n_blocks,
    )


@dataclass
class PreparedQuery:
    """Everything a variant run needs for one query."""

    spec: QuerySpec
    ds: LoadedDataset
    z_values: list
    x_values: list
    target: np.ndarray          # length |V_X|, aligned with x_values
    target_desc: str
    counts_index: BlockCountsIndex = field(repr=False, default=None)
    bitmap_t: np.ndarray = field(repr=False, default=None)  # n_blocks × |V_Z|
    exact_counts: np.ndarray = field(repr=False, default=None)
    tau_star: np.ndarray = field(repr=False, default=None)

    @property
    def bitmap(self) -> np.ndarray:
        """The bitmap as |V_Z| × n_blocks: a transposed view, not a copy."""
        return self.bitmap_t.T

    @property
    def n_candidates(self) -> int:
        return len(self.z_values)

    @property
    def d(self) -> int:
        return len(self.x_values)

    def true_topk(self) -> np.ndarray:
        """Ground-truth matching set M* (indices, stable tie-break)."""
        return np.argsort(self.tau_star, kind="stable")[: self.spec.k]


def compute_target(
    spec: QuerySpec, x_values: list, exact_counts: np.ndarray
) -> tuple[np.ndarray, str]:
    """Resolve a spec's visual target Q as a vector over x_values."""
    if spec.target_kind == "explicit":
        missing = [v for v in spec.target_arg if v not in x_values]
        if missing:
            raise ValueError(f"explicit target has unknown bins {missing}")
        vec = np.array([float(spec.target_arg.get(v, 0.0)) for v in x_values])
        return vec, "explicit distribution"
    if spec.target_kind == "candidate":
        # z_values is sorted and target_arg must be present in it.
        raise RuntimeError("candidate targets are resolved in prepare()")
    if spec.target_kind == "uniform_closest":
        uni = np.full(len(x_values), 1.0 / len(x_values))
        tau_uni = l1_distances(exact_counts, uni)
        best = int(np.argmin(tau_uni))
        return exact_counts[best].astype(np.float64), f"candidate #{best} (closest to uniform)"
    raise ValueError(f"unknown target kind {spec.target_kind!r}")


def prepare(ds: LoadedDataset, spec: QuerySpec) -> PreparedQuery:
    """Build indexes, ground truth, and the target for one query.

    The per-block counts index comes from one Spark aggregation over the
    blocked layout; the bitmap and exact ground truth are derived from
    it (tests verify both against independent Spark/DuckDB paths).
    """
    if spec.dataset != ds.name:
        raise ValueError(f"query {spec.qid} does not belong to dataset {ds.name}")
    z_values = list(ds.meta.value_sets[spec.z])
    x_values = list(ds.meta.value_sets[spec.x])
    idx = build_counts_index(
        ds.sdf,
        spec.z,
        spec.x,
        z_values=z_values,
        x_values=x_values,
        n_blocks=ds.n_blocks,
    )
    exact = idx.exact_counts()
    if spec.target_kind == "candidate":
        zi = encode([spec.target_arg], z_values, spec.z)[0]
        target, desc = exact[zi].astype(np.float64), f"candidate {spec.target_arg}"
    else:
        target, desc = compute_target(spec, x_values, exact)
    return PreparedQuery(
        spec=spec,
        ds=ds,
        z_values=z_values,
        x_values=x_values,
        target=target,
        target_desc=desc,
        counts_index=idx,
        bitmap_t=bitmap_from_index(idx),
        exact_counts=exact,
        tau_star=l1_distances(exact, target),
    )
