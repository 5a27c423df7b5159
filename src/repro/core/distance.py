"""Normalized ℓ₁ histogram distance (paper Definition 2).

numpy over the |V_Z| × |V_X| counts matrix — the paper's statistics
engine is likewise in-core.  HistSim's iterations, exact ground truth,
the target choice and the ``Scan`` baseline (one ``bincount`` over the
codes, then this) all call the one kernel :func:`l1_distances`.

The kernel is fused: τ_i = Σ_x |c_ix − n_i·q̂_x| / n_i needs one float64
buffer and four passes over it, where normalising every row first
(:func:`normalize_rows`, kept as the definition the tests and Guarantee 2
compare against) takes about eight passes and three full-size
temporaries.  It is HistSim's largest per-iteration cost, and fusing
made it ~5× faster at TAXI's 3,072 × 24 (1.5 → 0.3 ms) and 2–2.5× at
FLIGHTS' 161 × 24.

Each row's τ is a function of that row alone, with the same bits whether
it is computed alone or among other rows: every step is elementwise
except the per-row sums, which ``einsum`` takes row by row.  HistSim
relies on this, because it recomputes τ only for the rows a batch
changed and must match a full recompute exactly.  Do not take the row
sums with a BLAS product (``buf @ ones``): its blocking, and so its
rounding, depends on which other rows are passed.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np


def normalize_rows(counts: np.ndarray) -> np.ndarray:
    """Row-normalize a counts matrix to distributions (r̂ in the paper).

    Rows with zero total are returned as all-zero.  Their ℓ₁ distance to
    any distribution would then be 1, which means nothing, so
    :func:`l1_distances` gives them the maximum distance 2 instead, as
    HistSim does for unsampled candidates (see :mod:`repro.core.histsim`).
    """
    counts = np.asarray(counts, dtype=np.float64)
    totals = counts.sum(axis=-1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(totals > 0, counts / np.where(totals > 0, totals, 1.0), 0.0)
    return out


def normalize_target(target: Sequence[float] | np.ndarray) -> np.ndarray:
    """Normalize a target vector Q to Q̂ (must have positive mass)."""
    q = np.asarray(target, dtype=np.float64)
    s = q.sum()
    if not s > 0:
        raise ValueError("target must have positive total mass")
    return q / s


def l1_distances(counts: np.ndarray, target: Sequence[float]) -> np.ndarray:
    """τ_i = ||r̂_i − Q̂||₁ = Σ_x |c_ix − n_i·Q̂_x| / n_i for every row i.

    Rows with zero samples get the maximum possible ℓ₁ distance between
    distributions, 2.0 — i.e. "we know nothing" (matches HistSim's
    treatment of unsampled candidates).  Integer counts stay integer
    until the one subtraction converts them.
    """
    counts = np.atleast_2d(np.asarray(counts))
    q = normalize_target(target)
    if counts.shape[-1] != q.shape[0]:
        raise ValueError(
            f"counts have {counts.shape[-1]} bins but target has {q.shape[0]}"
        )
    n = np.einsum("ij->i", counts).astype(np.float64)
    # The products of np.multiply.outer, at a third of its cost (it calls
    # its inner loop once per row).
    buf = np.einsum("i,j->ij", n, q)
    np.subtract(counts, buf, out=buf)
    np.abs(buf, out=buf)
    tau = np.einsum("ij->i", buf)
    empty = n == 0
    if empty.any():  # their sums are 0: make them 2 / 1
        tau[empty] = 2.0
        n[empty] = 1.0
    return np.divide(tau, n, out=tau)
