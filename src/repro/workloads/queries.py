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

:func:`load_dataset` keeps the vocabulary codes the generator drew, in
row (= block) order: they are the dataset.  Its Spark relation, built
only when first read, is those codes decoded through their vocabularies
plus ``_block_id`` (:func:`~repro.workloads.datasets.decode_frame`), so
it holds the same rows in the same blocks with no second draw.
:func:`prepare` builds the rest from the codes alone: the replay-mode
block store, the bitmap index, and exact ground truth (counts, τ*)
counted from the store's cells.  :func:`for_each_query` is the one walk
over the queries that the table harnesses share.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.core.distance import l1_distances
from repro.storage.bitmap import bitmap_from_index
from repro.storage.blocks import (
    BlockCountsIndex, build_counts_index, count_blocks, encode, exact_counts,
)
from repro.workloads.datasets import DEFAULT_TUPLES_PER_BLOCK, DatasetMeta, decode_frame, draw, n_rows_at
# generate is not called here; perfbench/spans.py wraps queries.generate by name.
from repro.workloads.datasets import generate  # noqa: F401


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
    """A generated dataset's codes in block order, and its Spark relation.
    ``name`` and ``n_rows`` are ``meta``'s; ``n_blocks`` is counted once, by
    :func:`~repro.storage.blocks.count_blocks` (``ValueError`` unless
    ``tuples_per_block >= 1``)."""

    meta: DatasetMeta
    tuples_per_block: int
    codes: dict = field(repr=False)  # column → read-only int32 codes, row (= block) order
    spark: SparkSession | None = field(repr=False)

    def __post_init__(self) -> None:
        self.n_blocks = count_blocks(self.meta.n_rows, self.tuples_per_block)

    @property
    def name(self) -> str:
        return self.meta.name

    @property
    def n_rows(self) -> int:
        return self.meta.n_rows

    @cached_property
    def sdf(self) -> DataFrame:
        """``codes`` decoded through ``meta.value_sets``, plus ``_block_id``,
        as a cached Spark relation, built when first read (spark mode and
        the oracle tests)."""
        if self.spark is None:
            raise RuntimeError(f"dataset {self.name!r} was loaded without a SparkSession")
        pdf = decode_frame(self.codes, self.meta.value_sets, self.tuples_per_block)
        sdf = self.spark.createDataFrame(pdf).cache()
        sdf.count()  # fill the cache here, not in the first job that reads it
        return sdf


def load_dataset(
    spark: SparkSession | None,
    name: str,
    *,
    sf: float,
    tuples_per_block: int = DEFAULT_TUPLES_PER_BLOCK,
    seed: int | None = None,
) -> LoadedDataset:
    """Draw one dataset and keep its vocabulary codes.  ``spark`` is used
    only if the Spark relation is read; pass ``None`` for replay mode.
    A bad ``sf`` or ``tuples_per_block`` raises before the draw."""
    count_blocks(n_rows_at(sf), tuples_per_block)
    codes, meta = draw(name, sf=sf, seed=seed)
    for a in codes.values():
        a.flags.writeable = False  # block stores range-check them once, when built
    return LoadedDataset(meta, tuples_per_block, codes, spark)


@dataclass(frozen=True)
class PreparedQuery:
    """Everything a variant run needs for one query: frozen, with read-only
    arrays, as every run of it shares them.  The vocabularies are the
    dataset's (``ds.meta.value_sets``); |V_Z| and |V_X| are their lengths."""

    spec: QuerySpec
    ds: LoadedDataset
    target: np.ndarray          # length |V_X|, aligned with x_values
    target_desc: str
    counts_index: BlockCountsIndex = field(repr=False)
    bitmap_t: np.ndarray = field(repr=False)  # packed uint8, n_blocks × ⌈|V_Z|/8⌉
    exact_counts: np.ndarray = field(repr=False)
    totals: np.ndarray = field(repr=False)  # int64 N_i: exact_counts' row sums
    tau_star: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        for a in (self.target, self.bitmap_t, self.exact_counts, self.totals, self.tau_star):
            a.flags.writeable = False

    @property
    def z_values(self) -> list:
        return self.ds.meta.value_sets[self.spec.z]

    @property
    def x_values(self) -> list:
        return self.ds.meta.value_sets[self.spec.x]

    @property
    def bitmap(self) -> np.ndarray:
        """The packed bitmap as ⌈|V_Z|/8⌉ × n_blocks bytes: a transposed
        view of ``bitmap_t``, not a copy."""
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
    spec: QuerySpec, z_values: list, x_values: list, exact_counts: np.ndarray
) -> tuple[np.ndarray, str]:
    """Resolve a spec's visual target Q as a vector over x_values."""
    if spec.target_kind == "explicit":
        missing = [v for v in spec.target_arg if v not in x_values]
        if missing:
            raise ValueError(f"explicit target has unknown bins {missing}")
        vec = np.array([float(spec.target_arg.get(v, 0.0)) for v in x_values])
        return vec, "explicit distribution"
    if spec.target_kind == "candidate":
        zi = encode([spec.target_arg], z_values, spec.z)[0]
        return exact_counts[zi].astype(np.float64), f"candidate {spec.target_arg}"
    if spec.target_kind == "uniform_closest":
        uni = np.full(len(x_values), 1.0 / len(x_values))
        tau_uni = l1_distances(exact_counts, uni)
        best = int(np.argmin(tau_uni))
        return exact_counts[best].astype(np.float64), f"candidate #{best} (closest to uniform)"
    raise ValueError(f"unknown target kind {spec.target_kind!r}")


def prepare(ds: LoadedDataset, spec: QuerySpec) -> PreparedQuery:
    """Build indexes, ground truth, and the target for one query.

    Everything comes from the dataset's codes, with no Spark job: the
    block store, the bitmap derived from it, and exact ground truth over
    the store's cells with its row totals N_i (tests verify each against
    independent Spark/DuckDB paths).
    """
    if spec.dataset != ds.name:
        raise ValueError(f"query {spec.qid} does not belong to dataset {ds.name}")
    z_values, x_values = ds.meta.value_sets[spec.z], ds.meta.value_sets[spec.x]
    n_z, n_x = len(z_values), len(x_values)
    idx = build_counts_index(
        ds.codes[spec.z], ds.codes[spec.x], n_z=n_z, n_x=n_x,
        tuples_per_block=ds.tuples_per_block,
    )
    exact = exact_counts(idx.cells, n_z, n_x)
    target, desc = compute_target(spec, z_values, x_values, exact)
    return PreparedQuery(
        spec=spec, ds=ds, target=target, target_desc=desc, counts_index=idx,
        bitmap_t=bitmap_from_index(idx, n_z), exact_counts=exact,
        totals=exact.sum(axis=1, dtype=np.int64), tau_star=l1_distances(exact, target),
    )


def for_each_query(
    fn: Callable[[PreparedQuery], Any], *, sf: float, qids=None
) -> list:
    """Prepare each query, in ``QUERIES`` order, and return ``[fn(pq), …]``.

    ``qids``, if given, selects the queries; an unknown id raises before
    anything is drawn.  A dataset's queries are adjacent in ``QUERIES``, so
    each dataset is drawn once, with no SparkSession, and dropped before
    the next is drawn.  The walk takes a callback rather than yielding,
    because a generator's caller would keep its last ``pq``, and with it
    that dataset, alive while the next one is drawn.
    """
    if qids is not None:
        unknown = sorted(set(qids) - QUERIES.keys())
        if unknown:
            raise ValueError(f"unknown query ids {unknown}; choose from {sorted(QUERIES)}")
    out, ds = [], None
    for qid, spec in QUERIES.items():
        if qids is not None and qid not in qids:
            continue
        if ds is None or ds.name != spec.dataset:
            ds = None  # free the previous dataset before drawing the next
            ds = load_dataset(None, spec.dataset, sf=sf)
        out.append(fn(prepare(ds, spec)))
    return out
