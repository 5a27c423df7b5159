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

    ``eps`` holds the chosen per-candidate deviations, ``split`` the split
    point s (``nan`` when constraint 1 is vacuous).  ``nearest`` holds the
    indices of M and of the runner-up, the (k+1)-th candidate in (τ,
    index) order (``None`` when M is every candidate); passed back in on
    the next iteration, it narrows that iteration's search for M.
    """

    eps: np.ndarray
    split: float
    nearest: np.ndarray | None = None

    @property
    def matching(self) -> np.ndarray:
        """Boolean mask over candidates (True = in M), built when read."""
        if self.nearest is None:
            return np.ones(len(self.eps), dtype=bool)
        mask = np.zeros(len(self.eps), dtype=bool)
        mask[self.nearest[:-1]] = True
        return mask


def _first(tau: np.ndarray, k: int, nearest=None) -> np.ndarray:
    """The first k+1 candidates in (τ, index) order: M, then the runner-up
    (for 1 <= k < len(tau)).

    Every candidate up to some bound ≥ the (k+1)-th smallest τ is sorted,
    stably, so ties keep index order.  The bound is the largest τ of
    ``nearest``, any k+1 distinct candidates (the last iteration's M and
    runner-up, whose τ moved little); if that admits many candidates, a
    partition finds the (k+1)-th smallest τ itself.  With many ties
    (TAXI holds a few hundred distinct τ over 3,072 candidates, a third
    of them at 2) this keeps a one-block iteration from partitioning
    every candidate.
    """
    pool = None if nearest is None else np.flatnonzero(tau <= tau[nearest].max())
    if pool is None or len(pool) > 16 * (k + 1):
        pool = np.flatnonzero(tau <= np.partition(tau, k)[k])
    return pool[np.argsort(tau[pool], kind="stable")[: k + 1]]


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def select_deviations(tau: np.ndarray, k: int, eps: float, nearest=None) -> DeviationChoice:
    """Pick the maximal {ε_i} satisfying the Lemma 2 constraints.

    The split point is the midpoint of the k-th and (k+1)-th smallest τ.
    Every ε_j is first set to the outside formula in one pass, then the k
    entries of M are overwritten.  ``nearest`` is the previous choice's
    ``nearest``; it changes only the work, never the result.

    Every ε_i is >= 0: s lies between the two order statistics, so
    s + ε/2 − τ_i >= 0 on M and τ_j − max(s − ε/2, 0) >= 0 off it.
    """
    tau = np.asarray(tau, dtype=np.float64)
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    _check_k(k)
    n_cand = tau.shape[0]
    if k >= n_cand:
        # k >= number of candidates: separation is vacuous.
        return DeviationChoice(eps=np.full(n_cand, float(eps)), split=float("nan"))
    first = _first(tau, k, nearest)
    m, tau_first = first[:k], tau[first]
    s = (tau_first[k - 1] + tau_first[k]) / 2.0
    out = tau - max(s - eps / 2.0, 0.0)
    out[m] = np.minimum(eps, s + eps / 2.0 - tau_first[:k])
    return DeviationChoice(eps=out, split=float(s), nearest=first)


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
