"""Normalized ℓ₁ histogram distance (paper Definition 2).

numpy over the |V_Z| × |V_X| counts matrix — the paper's statistics
engine is likewise in-core.  HistSim's iterations, exact ground truth
and the ``Scan`` baseline (one ``bincount`` over the codes, then this)
all use it.
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
    """τ_i = ||r̂_i − Q̂||₁ for every row i of ``counts``.

    Rows with zero samples get the maximum possible ℓ₁ distance between
    distributions, 2.0 — i.e. "we know nothing" (matches HistSim's
    treatment of unsampled candidates).
    """
    counts = np.atleast_2d(np.asarray(counts, dtype=np.float64))
    q = normalize_target(target)
    if counts.shape[-1] != q.shape[0]:
        raise ValueError(
            f"counts have {counts.shape[-1]} bins but target has {q.shape[0]}"
        )
    tau = np.abs(normalize_rows(counts) - q).sum(axis=-1)
    return np.where(counts.sum(axis=-1) > 0, tau, 2.0)
