"""Synthetic analogs of the paper's FLIGHTS / TAXI / POLICE datasets.

The real datasets (Table 2: 382–677M tuples, 29–36 GiB) are replaced by
deterministic generators that reproduce the *structure* HistSim's
behaviour depends on (see DESIGN.md §2):

* a skewed candidate (Z) marginal — a few frequent values, a long
  *graded* Zipf tail whose rarest values still get a few hundred tuples
  at benchmark SF (the analog of the paper's ≥2000-tuple pruning rule;
  grading staggers candidate settling so AnyActive pruning can engage);
* per-candidate conditional X distributions laid out as *graded
  interpolations* between archetype poles, so each query has an
  engineered top-k cluster near its target, a clear boundary gap, and a
  spread of far candidates — the τ-spectrum geometry that drives which
  variant wins;
* rows drawn i.i.d., so the generation order is exchangeable and the
  sequential block layout of §4.2 Challenge 1 is a valid random
  permutation (``repro.storage.blocks`` assigns rows to blocks).

A dataset is its query attributes' int32 codes into their vocabularies
(``DatasetMeta.value_sets``), in row order.  :func:`draw` alone turns
(name, SF, seed) into one (SF = 1.0 → 6M rows; tests use SF = 0.01,
``jobs/`` SF = 0.4) with the generator ``(n, rng) → (codes, marginals,
profiles)`` in :data:`DATASETS`, beside its vocabularies and default
seed.  :func:`decode_frame`, the one decoder of codes into values, builds
the Spark relation from a loaded dataset's codes; :func:`generate` is
:func:`draw` followed by it, the frame DuckDB oracles read.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
import pandas as pd

from repro.storage.blocks import BLOCK_COL, block_ids, count_blocks

N_ROWS_PER_SF = 6_000_000
DEFAULT_TUPLES_PER_BLOCK = 32

# ---------------------------------------------------------------------------
# generic machinery
# ---------------------------------------------------------------------------


@dataclass
class DatasetMeta:
    """Everything tests and the query layer need to know about a dataset.

    ``value_sets`` maps each query attribute → its full sorted value
    list (the vocabulary its codes index).  ``marginals`` maps a
    candidate column → its designed marginal probs (aligned to the
    sorted value list).  ``profiles`` maps (z_col, x_col) → the designed
    |V_Z| × |V_X| conditional distributions.
    """

    name: str
    n_rows: int
    value_sets: dict
    marginals: dict
    profiles: dict


def _zipf(n: int, alpha: float) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** alpha
    return w / w.sum()


def marginal_with_cluster(
    n_vals: int, cluster: dict[int, float], *, alpha: float
) -> np.ndarray:
    """Candidate marginal: pinned cluster probs + graded Zipf tail.

    ``cluster`` maps candidate index → its exact marginal probability;
    remaining mass goes to the other values by index order (low index =
    frequent) following a Zipf(alpha) grade.  A *graded* (never flat)
    tail matters: candidates settle/exhaust at staggered times, so the
    AnyActive active set shrinks progressively and block pruning can
    engage — with a flat floor every tail candidate would settle at the
    same scan position and pruning would never bite.  ``alpha`` is
    chosen per dataset so the rarest value still gets a few hundred
    tuples at benchmark SF (the analog of the paper's ≥2000-tuple
    pruning rule).
    """
    cluster_mass = float(sum(cluster.values()))
    if not 0 <= cluster_mass < 1:
        raise ValueError(f"cluster mass must be in [0, 1), got {cluster_mass}")
    p = np.zeros(n_vals, dtype=np.float64)
    rest = np.array([i for i in range(n_vals) if i not in cluster], dtype=np.int64)
    p[rest] = (1.0 - cluster_mass) * _zipf(len(rest), alpha)
    for i, v in cluster.items():
        p[i] = v
    assert abs(p.sum() - 1.0) < 1e-9
    return p


def graded_centers(base: np.ndarray, poles: np.ndarray, pole_of: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Center distribution per candidate: (1−t)·base + t·pole[pole_of].

    ``t = 0`` sits exactly on the query target's archetype; larger ``t``
    moves toward that candidate's assigned far pole, so the designed
    ℓ₁ distance to the target grows ≈ t·‖base − pole‖₁.
    """
    base = np.asarray(base, dtype=np.float64)
    t = np.asarray(ts, dtype=np.float64)[:, None]
    far = np.asarray(poles, dtype=np.float64)[np.asarray(pole_of)]
    return (1.0 - t) * base + t * far


def dirichlet_profiles(centers: np.ndarray, conc: float, rng: np.random.Generator) -> np.ndarray:
    """Per-candidate Dirichlet draw around each center (floor 1e-4)."""
    centers = np.maximum(np.asarray(centers, dtype=np.float64), 1e-4)
    centers = centers / centers.sum(axis=1, keepdims=True)
    out = np.empty_like(centers)
    for i in range(centers.shape[0]):
        out[i] = rng.dirichlet(conc * centers[i])
    return out


def conditional_sampler(z: np.ndarray, n_z: int) -> Callable:
    """Sort candidate codes ``z`` (each below ``n_z``) once → ``sample(profiles,
    rng)``: each row's int32 x code drawn from its candidate's row of
    ``profiles``, one ``rng.choice`` per candidate segment scattered back
    to its rows, so every X column of ``z`` shares the sort and keeps the
    i.i.d. row order."""
    if n_z > 1 << 16:
        raise ValueError(f"at most 2**16 candidates, got {n_z}")
    order = np.argsort(z.astype(np.uint16), kind="stable")  # 16-bit keys: a radix sort
    bounds = np.concatenate(([0], np.cumsum(np.bincount(z, minlength=n_z))))

    def sample(profiles: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        out = np.empty(len(z), dtype=np.int32)
        for zi in range(n_z):
            a, b = bounds[zi], bounds[zi + 1]
            if b > a:
                out[order[a:b]] = rng.choice(profiles.shape[1], size=b - a, p=profiles[zi])
        return out

    return sample


def _peaked(d: int, peaks: dict[int, float], floor: float = 0.15) -> np.ndarray:
    """Archetype helper: uniform floor + extra mass at given bins."""
    v = np.full(d, floor, dtype=np.float64)
    for j, w in peaks.items():
        v[j] += w
    return v / v.sum()


# ---------------------------------------------------------------------------
# FLIGHTS
# ---------------------------------------------------------------------------

N_ORIGINS = 161
N_DESTS = 161
FLIGHTS_HUBS = list(range(12))       # frequent origins; ORG000 = "ORD"
ORD_ID = 0
ATW_ID = 140                         # rare regional origin, the q2 target
FLIGHTS_REGIONALS = list(range(120, 161))
# rare origins whose hour profile closely tracks ATW's (q2 top-k pool)
FLIGHTS_ATW_NEIGHBORS = [121, 125, 128, 132, 136, 144, 148, 152, 156]
# rare origins with the Monday-heavy day-of-week profile (q3 top-k pool)
FLIGHTS_MONDAY = [122, 127, 133, 139, 145, 151, 157, 160]
FLIGHTS_VALUE_SETS = {
    "origin": [f"ORG{i:03d}" for i in range(N_ORIGINS)],
    "dest": [f"DST{i:03d}" for i in range(N_DESTS)],
    "day_of_week": list(range(1, 8)),
    "departure_hour": list(range(24)),
}


def flights(n: int, rng: np.random.Generator) -> tuple[dict, dict, dict]:
    """FLIGHTS analog: 161 origins × (hour, day-of-week, dest).

    Engineered geometry:

    * hour (q1/q2): 12 frequent hubs graded around the hub archetype
      (ORG000 ≈ ORD at t=0, nine hubs within t ≤ 0.10, two at t ≥ 0.35);
      41 rare regionals graded around the regional archetype (ORG140 ≈
      ATW at t=0, nine neighbours within t ≤ 0.12); mid origins near a
      third (night) archetype, ℓ₁-far from both targets.
    * day-of-week (q3): eight rare origins near the Monday-heavy
      [0.25, 0.125×6] target (five within t ≤ 0.1), everyone else
      near-uniform.
    * dest (q4): hubs graded toward the uniform pole (ten within
      t ≤ 0.27), others Zipf-skewed with per-origin permutations.
    """
    marginal = marginal_with_cluster(
        N_ORIGINS, {h: 0.03 for h in FLIGHTS_HUBS}, alpha=0.75
    )
    z = rng.choice(N_ORIGINS, size=n, p=marginal).astype(np.int32)
    by_origin = conditional_sampler(z, N_ORIGINS)

    # -- hour profiles ------------------------------------------------------
    # Three nearly-disjoint archetypes: q1/q2 targets live on the hub /
    # regional poles, and mid origins live near the *night* pole, so they
    # are ℓ₁-far (≈1.5+) from both targets and settle with tens of samples.
    hub_base = _peaked(24, {7: 8, 8: 10, 9: 6, 16: 6, 17: 9, 18: 8, 19: 5})
    reg_base = _peaked(24, {10: 6, 11: 9, 12: 10, 13: 8, 14: 5})
    night_base = _peaked(24, {0: 6, 1: 8, 2: 9, 3: 8, 4: 6, 5: 4})
    centers = np.empty((N_ORIGINS, 24))
    # hubs: graded hub_base -> regional pole (two far members past the gap)
    hub_ts = np.array([0.0, 0.02, 0.03, 0.05, 0.06, 0.08, 0.09, 0.10, 0.04, 0.07, 0.38, 0.48])
    centers[FLIGHTS_HUBS] = graded_centers(
        hub_base, reg_base[None, :], np.zeros(12, dtype=int), hub_ts
    )
    # regionals: graded reg_base -> hub pole (ATW cluster near t = 0).
    # t is capped at 0.72 so no regional drifts into the hub cluster:
    # its distance to the hub archetype stays >= 0.28 * ||hub - reg||.
    reg_ts = rng.uniform(0.40, 0.72, size=len(FLIGHTS_REGIONALS))
    reg_index = {o: i for i, o in enumerate(FLIGHTS_REGIONALS)}
    reg_ts[reg_index[ATW_ID]] = 0.0
    for j, o in enumerate(FLIGHTS_ATW_NEIGHBORS):
        reg_ts[reg_index[o]] = 0.02 + 0.0125 * j
    centers[FLIGHTS_REGIONALS] = graded_centers(
        reg_base, hub_base[None, :], np.zeros(len(FLIGHTS_REGIONALS), dtype=int), reg_ts
    )
    # mids: near the night pole, drifting part-way toward hub or regional
    mid = [i for i in range(N_ORIGINS) if i not in FLIGHTS_HUBS and i not in FLIGHTS_REGIONALS]
    mid_poles = np.stack([hub_base, reg_base])
    centers[mid] = graded_centers(
        night_base,
        mid_poles,
        rng.integers(0, 2, len(mid)),
        rng.uniform(0.0, 0.45, size=len(mid)),
    )
    hour_profiles = dirichlet_profiles(centers, 6000.0, rng)
    hour_profiles[mid] = dirichlet_profiles(centers[mid], 200.0, rng)
    hour = by_origin(hour_profiles, rng)

    # -- day-of-week profiles ----------------------------------------------
    monday_base = np.array([0.25] + [0.125] * 6)
    uni7 = np.full(7, 1 / 7)
    weekend_base = _peaked(7, {4: 4, 5: 6, 6: 5}, floor=0.3)
    dow_centers = np.tile(uni7, (N_ORIGINS, 1))
    mon_ts = np.array([0.0, 0.03, 0.05, 0.08, 0.10, 0.55, 0.65, 0.75])
    dow_centers[FLIGHTS_MONDAY] = graded_centers(
        monday_base, weekend_base[None, :], np.zeros(len(FLIGHTS_MONDAY), dtype=int), mon_ts
    )
    dow_profiles = dirichlet_profiles(dow_centers, 1800.0, rng)
    dow = by_origin(dow_profiles, rng)

    # -- dest profiles (q4: closest-to-uniform) -----------------------------
    uni_d = np.full(N_DESTS, 1.0 / N_DESTS)
    dest_centers = np.empty((N_ORIGINS, N_DESTS))
    hub_dest_ts = np.array([0.01, 0.03, 0.06, 0.09, 0.12, 0.15, 0.18, 0.21, 0.24, 0.27, 0.55, 0.65])
    for i in range(N_ORIGINS):
        skew = _zipf(N_DESTS, 1.0)[rng.permutation(N_DESTS)]
        if i in FLIGHTS_HUBS:
            t = hub_dest_ts[FLIGHTS_HUBS.index(i)]
        else:
            t = rng.uniform(0.55, 1.0)
        dest_centers[i] = (1 - t) * uni_d + t * skew
    dest_profiles = dirichlet_profiles(dest_centers, 50000.0, rng)
    dest = by_origin(dest_profiles, rng)

    return (
        {"origin": z, "dest": dest, "day_of_week": dow, "departure_hour": hour},
        {"origin": marginal},
        {
            ("origin", "departure_hour"): hour_profiles,
            ("origin", "day_of_week"): dow_profiles,
            ("origin", "dest"): dest_profiles,
        },
    )


# ---------------------------------------------------------------------------
# TAXI
# ---------------------------------------------------------------------------

N_LOCATIONS = 3072
TAXI_Q1_CLUSTER = [3, 9, 15, 21, 27, 33, 39, 45, 51, 57, 63, 69]   # near-uniform hour
TAXI_Q2_CLUSTER = [4, 10, 16, 22, 28, 34, 40, 46, 52, 58, 64, 70]  # near-uniform month
TAXI_VALUE_SETS = {
    "location": [f"LOC{i:04d}" for i in range(N_LOCATIONS)],
    "hour_of_day": list(range(24)),
    "month_of_year": list(range(1, 13)),
}


def taxi(n: int, rng: np.random.Generator) -> tuple[dict, dict, dict]:
    """TAXI analog: 3072 pickup locations (paper: 7548, see DESIGN.md §2).

    Both queries target "closest candidate to uniform": twelve
    moderately frequent locations are graded near the uniform hour
    profile (q1) and twelve near the uniform month profile (q2); the
    long tail is skewed toward morning / evening / night poles.
    """
    cluster_probs = {c: 0.006 for c in TAXI_Q1_CLUSTER}
    cluster_probs.update({c: 0.006 for c in TAXI_Q2_CLUSTER})
    marginal = marginal_with_cluster(N_LOCATIONS, cluster_probs, alpha=0.85)
    z = rng.choice(N_LOCATIONS, size=n, p=marginal).astype(np.int32)
    by_location = conditional_sampler(z, N_LOCATIONS)

    # -- hour profiles (q1) -------------------------------------------------
    uni24 = np.full(24, 1 / 24)
    poles24 = np.stack(
        [
            _peaked(24, {7: 7, 8: 9, 9: 6}),            # morning
            _peaked(24, {17: 7, 18: 9, 19: 7, 20: 4}),  # evening
            _peaked(24, {0: 5, 1: 6, 2: 7, 3: 7, 4: 5}),  # night (the club)
        ]
    )
    ts = rng.uniform(0.60, 1.0, size=N_LOCATIONS)
    pole_of = rng.integers(0, 3, N_LOCATIONS)
    q1_ts = np.array([0.0, 0.02, 0.04, 0.05, 0.07, 0.08, 0.10, 0.11, 0.12, 0.13, 0.50, 0.60])
    ts[TAXI_Q1_CLUSTER] = q1_ts
    hour_centers = graded_centers(uni24, poles24, pole_of, ts)
    hour_profiles = dirichlet_profiles(hour_centers, 6000.0, rng)
    hour = by_location(hour_profiles, rng)

    # -- month profiles (q2) ------------------------------------------------
    uni12 = np.full(12, 1 / 12)
    poles12 = np.stack(
        [
            _peaked(12, {5: 4, 6: 6, 7: 5}),   # summer
            _peaked(12, {0: 5, 1: 4, 11: 6}),  # winter
        ]
    )
    ts2 = rng.uniform(0.60, 1.0, size=N_LOCATIONS)
    pole_of2 = rng.integers(0, 2, N_LOCATIONS)
    q2_ts = np.array([0.0, 0.02, 0.04, 0.06, 0.07, 0.09, 0.10, 0.12, 0.13, 0.14, 0.50, 0.60])
    ts2[TAXI_Q2_CLUSTER] = q2_ts
    month_centers = graded_centers(uni12, poles12, pole_of2, ts2)
    month_profiles = dirichlet_profiles(month_centers, 3000.0, rng)
    month = by_location(month_profiles, rng)

    return (
        {"location": z, "hour_of_day": hour, "month_of_year": month},
        {"location": marginal},
        {
            ("location", "hour_of_day"): hour_profiles,
            ("location", "month_of_year"): month_profiles,
        },
    )


# ---------------------------------------------------------------------------
# POLICE
# ---------------------------------------------------------------------------

N_ROADS = 191
N_VIOLATIONS = 512
POLICE_Q1_CLUSTER = [2, 8, 14, 20, 26, 32, 38, 44, 50, 56, 62, 68]   # contraband ~ 0.5
POLICE_Q2_CLUSTER = [3, 9, 15, 21, 27, 33, 39, 45, 51, 57, 63, 69]   # race ~ uniform
POLICE_Q3_CLUSTER = [30, 60, 90, 120, 150, 180, 210, 240]            # gender ~ 0.5
POLICE_VALUE_SETS = {
    "road_id": [f"RD{i:03d}" for i in range(N_ROADS)],
    "violation": [f"VIO{i:03d}" for i in range(N_VIOLATIONS)],
    "contraband_found": ["N", "Y"],
    "officer_race": sorted(["ASIAN", "BLACK", "HISPANIC", "OTHER", "WHITE"]),
    "driver_gender": ["F", "M"],
}


def police(n: int, rng: np.random.Generator) -> tuple[dict, dict, dict]:
    """POLICE analog: 191 roads / 512 violations (paper: 2110).

    q1/q2 target closest-to-uniform over contraband (d=2) and officer
    race (d=5) with frequent cluster roads; q3 targets closest-to-uniform
    driver gender (d=2) over the high-cardinality violation attribute.
    """
    road_cluster = {c: 0.02 for c in POLICE_Q1_CLUSTER}
    road_cluster.update({c: 0.015 for c in POLICE_Q2_CLUSTER})
    road_marginal = marginal_with_cluster(N_ROADS, road_cluster, alpha=0.75)
    road = rng.choice(N_ROADS, size=n, p=road_marginal).astype(np.int32)

    vio_marginal = marginal_with_cluster(
        N_VIOLATIONS, {c: 0.004 for c in POLICE_Q3_CLUSTER}, alpha=0.8
    )
    vio = rng.choice(N_VIOLATIONS, size=n, p=vio_marginal).astype(np.int32)
    by_road = conditional_sampler(road, N_ROADS)

    # -- contraband per road (q1): Bernoulli(p_road), target p = 0.5 --------
    p_contra = rng.uniform(0.03, 0.20, N_ROADS)
    q1_ts = np.array([0.0, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.30, 0.35])
    p_contra[POLICE_Q1_CLUSTER] = 0.5 - 0.4 * q1_ts
    contra_profiles = np.stack([1 - p_contra, p_contra], axis=1)  # [N, Y]
    contra = by_road(contra_profiles, rng)

    # -- officer race per road (q2): target uniform over 5 ------------------
    uni5 = np.full(5, 0.2)
    poles5 = np.stack(
        [
            np.array([0.02, 0.05, 0.08, 0.05, 0.80]),
            np.array([0.04, 0.60, 0.25, 0.03, 0.08]),
        ]
    )
    ts5 = rng.uniform(0.60, 1.0, size=N_ROADS)
    pole5 = rng.integers(0, 2, N_ROADS)
    q2_ts = np.array([0.0, 0.02, 0.03, 0.05, 0.06, 0.08, 0.09, 0.10, 0.11, 0.12, 0.45, 0.55])
    ts5[POLICE_Q2_CLUSTER] = q2_ts
    race_centers = graded_centers(uni5, poles5, pole5, ts5)
    race_profiles = dirichlet_profiles(race_centers, 2500.0, rng)
    race = by_road(race_profiles, rng)
    del by_road  # one candidate sort alive at a time

    # -- driver gender per violation (q3): target p(F) = 0.5 ----------------
    p_female = rng.uniform(0.05, 0.25, N_VIOLATIONS)
    q3_ts = np.array([0.0, 0.01, 0.02, 0.03, 0.04, 0.30, 0.35, 0.40])
    p_female[POLICE_Q3_CLUSTER] = 0.5 - 0.4 * q3_ts
    gender_profiles = np.stack([p_female, 1 - p_female], axis=1)  # [F, M]
    gender = conditional_sampler(vio, N_VIOLATIONS)(gender_profiles, rng)

    return (
        {"road_id": road, "violation": vio, "officer_race": race,
         "driver_gender": gender, "contraband_found": contra},
        {"road_id": road_marginal, "violation": vio_marginal},
        {
            ("road_id", "contraband_found"): contra_profiles,
            ("road_id", "officer_race"): race_profiles,
            ("violation", "driver_gender"): gender_profiles,
        },
    )


class Source(NamedTuple):
    """A dataset's generator ``(n, rng) → (codes, marginals, profiles)``,
    the vocabularies its codes index, and its default seed."""

    generator: Callable
    value_sets: dict
    seed: int


DATASETS = {
    "flights": Source(flights, FLIGHTS_VALUE_SETS, 10),
    "taxi": Source(taxi, TAXI_VALUE_SETS, 20),
    "police": Source(police, POLICE_VALUE_SETS, 30),
}


def n_rows_at(sf: float) -> int:
    """Rows at scale factor ``sf`` (finite, > 0): ``N_ROWS_PER_SF`` per unit, at least one."""
    if not (0 < sf < np.inf):
        raise ValueError(f"sf must be finite and > 0, got {sf}")
    return max(1, int(N_ROWS_PER_SF * sf))


def draw(name: str, *, sf: float, seed: int | None = None) -> tuple[dict, DatasetMeta]:
    """Draw a dataset by name → (query attribute → int32 codes into
    ``meta.value_sets``, in row order; meta); ``seed=None`` takes the
    dataset's own default seed."""
    if name not in DATASETS:
        raise ValueError(f"unknown dataset {name!r}; choose from {sorted(DATASETS)}")
    source, n = DATASETS[name], n_rows_at(sf)
    rng = np.random.default_rng(source.seed if seed is None else seed)
    codes, marginals, profiles = source.generator(n, rng)
    value_sets = {c: list(v) for c, v in source.value_sets.items()}
    return codes, DatasetMeta(name, n, value_sets, marginals, profiles)


def _decode(codes: np.ndarray, labels: list) -> np.ndarray:
    """Codes → their labels: strings as objects, integers as int32."""
    values = np.asarray(labels)
    return values.astype(object if values.dtype.kind == "U" else np.int32)[codes]


def decode_frame(codes: dict, value_sets: dict, tuples_per_block: int) -> pd.DataFrame:
    """The rows as values: each column of ``value_sets`` decoded from its
    ``codes``, plus ``_block_id`` from
    :func:`~repro.storage.blocks.block_ids` (which raises ``ValueError``
    unless ``tuples_per_block >= 1``)."""
    frame = pd.DataFrame({c: _decode(codes[c], vocab) for c, vocab in value_sets.items()})
    frame[BLOCK_COL] = block_ids(len(frame), tuples_per_block)
    return frame


def generate(
    name: str,
    *,
    sf: float,
    tuples_per_block: int = DEFAULT_TUPLES_PER_BLOCK,
    seed: int | None = None,
) -> tuple[pd.DataFrame, DatasetMeta]:
    """:func:`draw` decoded by :func:`decode_frame`, its arguments checked first."""
    count_blocks(n_rows_at(sf), tuples_per_block)
    columns, meta = draw(name, sf=sf, seed=seed)
    return decode_frame(columns, meta.value_sets, tuples_per_block), meta
