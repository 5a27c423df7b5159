"""§3.3 — selecting the per-candidate deviations {ε_i}.

Given the current distance estimates {τ_i} and the current matching set
M (the k smallest τ), HistSim picks the *largest* ε_i that still satisfy
the Lemma 2 constraints, because larger deviations are more probable
(smaller δ_i), which lets it terminate sooner:

* split point ``s`` = midpoint between the furthest candidate in M and
  the closest candidate outside M;
* for i ∈ M:  ε_i = min(ε, s + ε/2 − τ_i)   (so τ_i + ε_i ≤ s + ε/2 and
  the reconstruction cap ε_i ≤ ε holds);
* for j ∉ M:  ε_j = τ_j − max(s − ε/2, 0)   (so τ_j − ε_j ≥ max(s−ε/2, 0)).

When M is every candidate (k ≥ |V_Z|) constraint 1 is vacuous and every
ε_i is simply ε.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DeviationChoice:
    """The outcome of one §3.3 selection.

    ``matching`` is a boolean mask over candidates (True = in M),
    ``eps`` the chosen per-candidate deviations, ``split`` the split
    point s (``nan`` when constraint 1 is vacuous).
    """

    matching: np.ndarray
    eps: np.ndarray
    split: float


def matching_set(tau: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of the k candidates with smallest τ (Definition 3).

    Ties are broken by candidate index, so the mask is exactly that of
    ``np.argsort(tau, kind="stable")[:k]`` (for τ without NaN), found in
    O(|V_Z|): the k-th smallest value comes from a partition, then the
    candidates tied at it are taken in index order.
    """
    tau = np.asarray(tau, dtype=np.float64)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k >= tau.shape[0]:
        return np.ones(tau.shape[0], dtype=bool)
    kth = np.partition(tau, k - 1)[k - 1]
    mask = tau < kth
    mask[np.flatnonzero(tau == kth)[: k - np.count_nonzero(mask)]] = True
    return mask


def select_deviations(tau: np.ndarray, k: int, eps: float) -> DeviationChoice:
    """Pick the maximal {ε_i} satisfying the Lemma 2 constraints."""
    tau = np.asarray(tau, dtype=np.float64)
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    m = matching_set(tau, k)
    out = np.empty_like(tau)
    if m.all():
        # k >= number of candidates: separation is vacuous.
        out[:] = eps
        return DeviationChoice(matching=m, eps=out, split=float("nan"))
    s = (tau[m].max() + tau[~m].min()) / 2.0
    out[m] = np.minimum(eps, s + eps / 2.0 - tau[m])
    out[~m] = tau[~m] - max(s - eps / 2.0, 0.0)
    return DeviationChoice(matching=m, eps=out, split=float(s))


def constraints_satisfied(
    tau: np.ndarray, eps_i: np.ndarray, matching: np.ndarray, eps: float
) -> bool:
    """Check the two Lemma 2 constraints (used by tests; atol for fp).

    Constraint 1: max_{i∈M}(τ_i + ε_i) − max(min_{j∉M}(τ_j − ε_j), 0) < ε
    (vacuous when M is everything).  Constraint 2: ε_i ≤ ε on M.
    """
    tau = np.asarray(tau, dtype=np.float64)
    eps_i = np.asarray(eps_i, dtype=np.float64)
    tol = 1e-12
    if np.any(eps_i[matching] > eps + tol):
        return False
    if matching.all():
        return True
    upper = (tau[matching] + eps_i[matching]).max()
    lower = max((tau[~matching] - eps_i[~matching]).min(), 0.0)
    return bool(upper - lower <= eps + tol)
