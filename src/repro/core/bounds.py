"""Theorem 1 deviation bounds (paper §3.4).

The paper proves (Theorem 1) that after ``n`` uniform samples from a
discrete distribution with support size ``d = |V_X|``, the empirical
distribution is within :math:`\\varepsilon` of the truth in
:math:`\\ell_1` distance with probability :math:`> 1 - \\delta` for

.. math::

    \\varepsilon(n, \\delta) =
        \\sqrt{\\frac{2d}{n} \\log \\frac{2}{\\delta^{1/d}}}
    \\iff
    \\delta(n, \\varepsilon) = 2^{d} \\exp(-\\varepsilon^2 n / 2)

Both directions are implemented here (vectorized over ``n`` /
``epsilon``), plus the sample complexity ``n_required`` and the
Waggoner-style comparison bound the paper's Figure 4 is plotted
against.  All functions clamp probabilities into ``[0, 1]`` — a
probability bound above 1 is vacuous, and HistSim treats it as 1.
"""
from __future__ import annotations

import numpy as np

_LN2 = float(np.log(2.0))


def epsilon_bound(n, delta, d: int):
    """Deviation ε such that ℓ1(empirical, true) < ε w.p. > 1 − ``delta``.

    Direct transcription of Theorem 1.  ``n`` may be a scalar or array of
    sample counts; ``n == 0`` yields ``inf`` (no information).  ``d`` is
    the support size |V_X| and must be ≥ 1.
    """
    if d < 1:
        raise ValueError(f"support size d must be >= 1, got {d}")
    if np.any(np.asarray(delta) <= 0) or np.any(np.asarray(delta) >= 1):
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    n = np.asarray(n, dtype=np.float64)
    # log(2 / delta^(1/d)) = log 2 + log(1/delta)/d
    log_term = _LN2 + np.log(1.0 / np.asarray(delta, dtype=np.float64)) / d
    with np.errstate(divide="ignore"):
        out = np.sqrt(2.0 * d / n * log_term)
    return out if out.ndim else float(out)


def delta_bound(n, epsilon, d: int):
    """Failure probability after ``n`` samples at deviation ``epsilon``.

    The inversion of Theorem 1: δ = min(1, 2^d · exp(−ε²·n/2)), computed
    in log space so huge ``d`` (e.g. |V_X| = 161) cannot overflow.
    ``n`` and ``epsilon`` broadcast; ``n == 0`` gives 1, and so does a
    negative ``epsilon``, which bounds nothing.  HistSim calls this once
    per iteration over all |V_Z| candidates, so it works in one buffer.
    """
    if d < 1:
        raise ValueError(f"support size d must be >= 1, got {d}")
    n = np.asarray(n)
    eps = np.asarray(epsilon, dtype=np.float64)
    out = np.empty(np.broadcast(n, eps).shape)
    np.maximum(eps, 0.0, out=out)
    np.multiply(out, out, out=out)
    np.multiply(out, n, out=out)
    np.multiply(out, 0.5, out=out)
    np.subtract(d * _LN2, out, out=out)  # log δ = d·ln2 − ε²·n/2
    np.minimum(out, 0.0, out=out)
    np.exp(out, out=out)
    return out if out.ndim else float(out)


def n_required(epsilon: float, delta: float, d: int) -> int:
    """Fewest samples guaranteeing ε-deviation w.p. > 1 − δ (Theorem 1).

    n = ceil((2d/ε²)·log(2/δ^(1/d))) = ceil((2/ε²)(d·ln2 + ln(1/δ))).
    This is the Θ(d/ε²) information-theoretically optimal rate the paper
    highlights.
    """
    if not 0 < epsilon:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    return int(np.ceil(2.0 / epsilon**2 * (d * _LN2 + np.log(1.0 / delta))))


def epsilon_bound_waggoner(n, delta, d: int):
    """The comparison bound from §3.4 ("most work would start by...").

    The standard expectation-plus-McDiarmid route attributed to Waggoner
    [56]: E[ℓ1] ≤ sqrt(d/n), then a one-sided bounded-differences tail
    with Lipschitz constant 2/n gives

        ε = sqrt(d/n) + sqrt(2·ln(1/δ)/n)

    Used only to verify (test suite; Figure 4 is out of scope) that the
    paper's bound needs fewer samples for the same guarantee at moderate
    and large d.
    """
    if d < 1:
        raise ValueError(f"support size d must be >= 1, got {d}")
    n = np.asarray(n, dtype=np.float64)
    with np.errstate(divide="ignore"):
        out = np.sqrt(d / n) + np.sqrt(2.0 * np.log(1.0 / delta) / n)
    return out if out.ndim else float(out)


def bound_ratio(d: int, delta: float = 0.01) -> float:
    """ε ratio (ours / Waggoner-style) — <1 means the paper's is tighter.

    The n-dependence cancels (both are c/sqrt(n)), as the paper notes
    the ε dependence cancels in Figure 4.
    """
    ours = epsilon_bound(1, delta, d)
    theirs = epsilon_bound_waggoner(1, delta, d)
    return float(ours / theirs)
