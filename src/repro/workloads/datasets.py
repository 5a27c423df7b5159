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
  permutation (``_block_id`` is assigned directly at generation).

SF semantics: SF = 1.0 → 6M rows (tests use SF = 0.01, ``jobs/``
SF = 0.4).  Everything is deterministic in ``seed``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.storage.blocks import add_block_ids

N_ROWS_PER_SF = 6_000_000
DEFAULT_TUPLES_PER_BLOCK = 32

# ---------------------------------------------------------------------------
# generic machinery
# ---------------------------------------------------------------------------


@dataclass
class DatasetMeta:
    """Everything tests and the query layer need to know about a dataset.

    ``value_sets`` maps column → its full sorted value list.
    ``marginals`` maps a candidate column → its designed marginal probs
    (aligned to the sorted value list).  ``profiles`` maps
    (z_col, x_col) → the designed |V_Z| × |V_X| conditional
    distributions.  ``clusters`` maps a label → the candidate *indices*
    engineered to sit near that query's target.
    """

    name: str
    n_rows: int
    value_sets: dict = field(default_factory=dict)
    marginals: dict = field(default_factory=dict)
    profiles: dict = field(default_factory=dict)
    clusters: dict = field(default_factory=dict)


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


def sample_conditional(z_ids: np.ndarray, profiles: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw x index per row from its candidate's conditional distribution.

    Vectorized per candidate segment (argsort + scatter), preserving the
    i.i.d. row order.
    """
    n = len(z_ids)
    out = np.empty(n, dtype=np.int64)
    order = np.argsort(z_ids, kind="stable")
    sz = z_ids[order]
    bounds = np.searchsorted(sz, np.arange(profiles.shape[0] + 1))
    for zi in range(profiles.shape[0]):
        a, b = bounds[zi], bounds[zi + 1]
        if b > a:
            out[order[a:b]] = rng.choice(profiles.shape[1], size=b - a, p=profiles[zi])
    return out


def _peaked(d: int, peaks: dict[int, float], floor: float = 0.15) -> np.ndarray:
    """Archetype helper: uniform floor + extra mass at given bins."""
    v = np.full(d, floor, dtype=np.float64)
    for j, w in peaks.items():
        v[j] += w
    return v / v.sum()


def _spread_ts(n: int, lo: float, hi: float, rng: np.random.Generator) -> np.ndarray:
    return rng.uniform(lo, hi, size=n)


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
FLIGHTS_MONDAY_NEAR = FLIGHTS_MONDAY[:5]


def flights(*, sf: float = 0.01, seed: int = 10,
            tuples_per_block: int = DEFAULT_TUPLES_PER_BLOCK):
    """FLIGHTS analog: 161 origins × (hour, day-of-week, day-of-month, dest).

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
    n = max(1, int(N_ROWS_PER_SF * sf))
    rng = np.random.default_rng(seed)
    origins = [f"ORG{i:03d}" for i in range(N_ORIGINS)]
    dests = [f"DST{i:03d}" for i in range(N_DESTS)]

    marginal = marginal_with_cluster(
        N_ORIGINS, {h: 0.03 for h in FLIGHTS_HUBS}, alpha=0.75
    )
    z = rng.choice(N_ORIGINS, size=n, p=marginal)

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
    reg_ts = _spread_ts(len(FLIGHTS_REGIONALS), 0.40, 0.72, rng)
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
        _spread_ts(len(mid), 0.0, 0.45, rng),
    )
    hour_profiles = dirichlet_profiles(centers, 6000.0, rng)
    hour_profiles[mid] = dirichlet_profiles(centers[mid], 200.0, rng)
    hour = sample_conditional(z, hour_profiles, rng)

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
    dow = sample_conditional(z, dow_profiles, rng) + 1  # 1..7

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
    dest = sample_conditional(z, dest_profiles, rng)

    pdf = pd.DataFrame(
        {
            "origin": pd.Categorical.from_codes(z, origins).astype(str),
            "dest": pd.Categorical.from_codes(dest, dests).astype(str),
            "day_of_week": dow.astype(np.int32),
            "day_of_month": rng.integers(1, 32, n).astype(np.int32),
            "departure_hour": hour.astype(np.int32),
            "dep_delay": np.maximum(-10, rng.gamma(2.0, 12.0, n) - 15).astype(np.int32),
            "arr_delay": np.maximum(-30, rng.gamma(2.0, 15.0, n) - 18).astype(np.int32),
        }
    )
    meta = DatasetMeta(
        name="flights",
        n_rows=n,
        value_sets={
            "origin": origins,
            "dest": dests,
            "day_of_week": list(range(1, 8)),
            "departure_hour": list(range(24)),
        },
        marginals={"origin": marginal},
        profiles={
            ("origin", "departure_hour"): hour_profiles,
            ("origin", "day_of_week"): dow_profiles,
            ("origin", "dest"): dest_profiles,
        },
        clusters={
            "hubs": FLIGHTS_HUBS,
            "atw_neighbors": [ATW_ID] + FLIGHTS_ATW_NEIGHBORS,
            "monday": FLIGHTS_MONDAY,
            "uniform_dest": FLIGHTS_HUBS[:10],
        },
    )
    return add_block_ids(pdf, tuples_per_block), meta


# ---------------------------------------------------------------------------
# TAXI
# ---------------------------------------------------------------------------

N_LOCATIONS = 3072
TAXI_Q1_CLUSTER = [3, 9, 15, 21, 27, 33, 39, 45, 51, 57, 63, 69]   # near-uniform hour
TAXI_Q2_CLUSTER = [4, 10, 16, 22, 28, 34, 40, 46, 52, 58, 64, 70]  # near-uniform month


def taxi(*, sf: float = 0.01, seed: int = 20,
         tuples_per_block: int = DEFAULT_TUPLES_PER_BLOCK):
    """TAXI analog: 3072 pickup locations (paper: 7548, see DESIGN.md §2).

    Both queries target "closest candidate to uniform": twelve
    moderately frequent locations are graded near the uniform hour
    profile (q1) and twelve near the uniform month profile (q2); the
    long tail is skewed toward morning / evening / night poles.
    """
    n = max(1, int(N_ROWS_PER_SF * sf))
    rng = np.random.default_rng(seed)
    locations = [f"LOC{i:04d}" for i in range(N_LOCATIONS)]
    cluster_probs = {c: 0.006 for c in TAXI_Q1_CLUSTER}
    cluster_probs.update({c: 0.006 for c in TAXI_Q2_CLUSTER})
    marginal = marginal_with_cluster(N_LOCATIONS, cluster_probs, alpha=0.85)
    z = rng.choice(N_LOCATIONS, size=n, p=marginal)

    # -- hour profiles (q1) -------------------------------------------------
    uni24 = np.full(24, 1 / 24)
    poles24 = np.stack(
        [
            _peaked(24, {7: 7, 8: 9, 9: 6}),            # morning
            _peaked(24, {17: 7, 18: 9, 19: 7, 20: 4}),  # evening
            _peaked(24, {0: 5, 1: 6, 2: 7, 3: 7, 4: 5}),  # night (the club)
        ]
    )
    ts = _spread_ts(N_LOCATIONS, 0.60, 1.0, rng)
    pole_of = rng.integers(0, 3, N_LOCATIONS)
    q1_ts = np.array([0.0, 0.02, 0.04, 0.05, 0.07, 0.08, 0.10, 0.11, 0.12, 0.13, 0.50, 0.60])
    ts[TAXI_Q1_CLUSTER] = q1_ts
    hour_centers = graded_centers(uni24, poles24, pole_of, ts)
    hour_profiles = dirichlet_profiles(hour_centers, 6000.0, rng)
    hour = sample_conditional(z, hour_profiles, rng)

    # -- month profiles (q2) ------------------------------------------------
    uni12 = np.full(12, 1 / 12)
    poles12 = np.stack(
        [
            _peaked(12, {5: 4, 6: 6, 7: 5}),   # summer
            _peaked(12, {0: 5, 1: 4, 11: 6}),  # winter
        ]
    )
    ts2 = _spread_ts(N_LOCATIONS, 0.60, 1.0, rng)
    pole_of2 = rng.integers(0, 2, N_LOCATIONS)
    q2_ts = np.array([0.0, 0.02, 0.04, 0.06, 0.07, 0.09, 0.10, 0.12, 0.13, 0.14, 0.50, 0.60])
    ts2[TAXI_Q2_CLUSTER] = q2_ts
    month_centers = graded_centers(uni12, poles12, pole_of2, ts2)
    month_profiles = dirichlet_profiles(month_centers, 3000.0, rng)
    month = sample_conditional(z, month_profiles, rng) + 1  # 1..12

    pdf = pd.DataFrame(
        {
            "location": pd.Categorical.from_codes(z, locations).astype(str),
            "hour_of_day": hour.astype(np.int32),
            "month_of_year": month.astype(np.int32),
            "day_of_week": rng.integers(1, 8, n).astype(np.int32),
            "passenger_count": rng.integers(1, 7, n).astype(np.int32),
            "trip_minutes": np.maximum(1, rng.gamma(2.2, 6.0, n)).astype(np.int32),
            "fare_bucket": rng.integers(0, 10, n).astype(np.int32),
        }
    )
    meta = DatasetMeta(
        name="taxi",
        n_rows=n,
        value_sets={
            "location": locations,
            "hour_of_day": list(range(24)),
            "month_of_year": list(range(1, 13)),
        },
        marginals={"location": marginal},
        profiles={
            ("location", "hour_of_day"): hour_profiles,
            ("location", "month_of_year"): month_profiles,
        },
        clusters={"uniform_hour": TAXI_Q1_CLUSTER, "uniform_month": TAXI_Q2_CLUSTER},
    )
    return add_block_ids(pdf, tuples_per_block), meta


# ---------------------------------------------------------------------------
# POLICE
# ---------------------------------------------------------------------------

N_ROADS = 191
N_VIOLATIONS = 512
POLICE_Q1_CLUSTER = [2, 8, 14, 20, 26, 32, 38, 44, 50, 56, 62, 68]   # contraband ~ 0.5
POLICE_Q2_CLUSTER = [3, 9, 15, 21, 27, 33, 39, 45, 51, 57, 63, 69]   # race ~ uniform
POLICE_Q3_CLUSTER = [30, 60, 90, 120, 150, 180, 210, 240]            # gender ~ 0.5
RACES = sorted(["ASIAN", "BLACK", "HISPANIC", "OTHER", "WHITE"])


def police(*, sf: float = 0.01, seed: int = 30,
           tuples_per_block: int = DEFAULT_TUPLES_PER_BLOCK):
    """POLICE analog: 191 roads / 512 violations (paper: 2110), 10 attrs.

    q1/q2 target closest-to-uniform over contraband (d=2) and officer
    race (d=5) with frequent cluster roads; q3 targets closest-to-uniform
    driver gender (d=2) over the high-cardinality violation attribute.
    """
    n = max(1, int(N_ROWS_PER_SF * sf))
    rng = np.random.default_rng(seed)
    roads = [f"RD{i:03d}" for i in range(N_ROADS)]
    violations = [f"VIO{i:03d}" for i in range(N_VIOLATIONS)]

    road_cluster = {c: 0.02 for c in POLICE_Q1_CLUSTER}
    road_cluster.update({c: 0.015 for c in POLICE_Q2_CLUSTER})
    road_marginal = marginal_with_cluster(N_ROADS, road_cluster, alpha=0.75)
    road = rng.choice(N_ROADS, size=n, p=road_marginal)

    vio_marginal = marginal_with_cluster(
        N_VIOLATIONS, {c: 0.004 for c in POLICE_Q3_CLUSTER}, alpha=0.8
    )
    vio = rng.choice(N_VIOLATIONS, size=n, p=vio_marginal)

    # -- contraband per road (q1): Bernoulli(p_road), target p = 0.5 --------
    p_contra = rng.uniform(0.03, 0.20, N_ROADS)
    q1_ts = np.array([0.0, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.30, 0.35])
    p_contra[POLICE_Q1_CLUSTER] = 0.5 - 0.4 * q1_ts
    contra_profiles = np.stack([1 - p_contra, p_contra], axis=1)  # [N, Y]
    contra = sample_conditional(road, contra_profiles, rng)

    # -- officer race per road (q2): target uniform over 5 ------------------
    uni5 = np.full(5, 0.2)
    poles5 = np.stack(
        [
            np.array([0.02, 0.05, 0.08, 0.05, 0.80]),
            np.array([0.04, 0.60, 0.25, 0.03, 0.08]),
        ]
    )
    ts5 = _spread_ts(N_ROADS, 0.60, 1.0, rng)
    pole5 = rng.integers(0, 2, N_ROADS)
    q2_ts = np.array([0.0, 0.02, 0.03, 0.05, 0.06, 0.08, 0.09, 0.10, 0.11, 0.12, 0.45, 0.55])
    ts5[POLICE_Q2_CLUSTER] = q2_ts
    race_centers = graded_centers(uni5, poles5, pole5, ts5)
    race_profiles = dirichlet_profiles(race_centers, 2500.0, rng)
    race = sample_conditional(road, race_profiles, rng)

    # -- driver gender per violation (q3): target p(F) = 0.5 ----------------
    p_female = rng.uniform(0.05, 0.25, N_VIOLATIONS)
    q3_ts = np.array([0.0, 0.01, 0.02, 0.03, 0.04, 0.30, 0.35, 0.40])
    p_female[POLICE_Q3_CLUSTER] = 0.5 - 0.4 * q3_ts
    gender_profiles = np.stack([p_female, 1 - p_female], axis=1)  # [F, M]
    gender = sample_conditional(vio, gender_profiles, rng)

    pdf = pd.DataFrame(
        {
            "county": rng.integers(0, 39, n).astype(np.int32),
            "road_id": pd.Categorical.from_codes(road, roads).astype(str),
            "violation": pd.Categorical.from_codes(vio, violations).astype(str),
            "officer_gender": pd.Categorical.from_codes(
                rng.integers(0, 2, n), ["F", "M"]
            ).astype(str),
            "officer_race": pd.Categorical.from_codes(race, RACES).astype(str),
            "driver_gender": pd.Categorical.from_codes(gender, ["F", "M"]).astype(str),
            "driver_age_bucket": rng.integers(0, 6, n).astype(np.int32),
            "search_conducted": pd.Categorical.from_codes(
                rng.integers(0, 2, n), ["N", "Y"]
            ).astype(str),
            "contraband_found": pd.Categorical.from_codes(contra, ["N", "Y"]).astype(str),
            "stop_outcome": pd.Categorical.from_codes(
                rng.integers(0, 5, n),
                ["ARREST", "CITATION", "NONE", "VERBAL", "WRITTEN"],
            ).astype(str),
        }
    )
    meta = DatasetMeta(
        name="police",
        n_rows=n,
        value_sets={
            "road_id": roads,
            "violation": violations,
            "contraband_found": ["N", "Y"],
            "officer_race": RACES,
            "driver_gender": ["F", "M"],
        },
        marginals={"road_id": road_marginal, "violation": vio_marginal},
        profiles={
            ("road_id", "contraband_found"): contra_profiles,
            ("road_id", "officer_race"): race_profiles,
            ("violation", "driver_gender"): gender_profiles,
        },
        clusters={
            "contraband_half": POLICE_Q1_CLUSTER,
            "uniform_race": POLICE_Q2_CLUSTER,
            "gender_half": POLICE_Q3_CLUSTER,
        },
    )
    return add_block_ids(pdf, tuples_per_block), meta


DATASETS = {"flights": flights, "taxi": taxi, "police": police}


def generate(name: str, **kwargs):
    """Generate a dataset by name → (pandas DataFrame with _block_id, meta)."""
    if name not in DATASETS:
        raise ValueError(f"unknown dataset {name!r}; choose from {sorted(DATASETS)}")
    return DATASETS[name](**kwargs)
