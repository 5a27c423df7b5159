"""The HistSim state machine (paper Algorithm 1).

The runner (``repro.engine.runner``) feeds sampled (candidate, bin)
counts into a :class:`HistSimState`; each call to :meth:`iterate`
performs one iteration of Algorithm 1's lines 8–14, in place on the state:

1. recompute distance estimates τ_i from the counts matrix;
2. recompute the matching set M (k smallest τ);
3. select deviations {ε_i} per §3.3 (maximal under Lemma 2);
4. convert to failure probabilities δ_i via Theorem 1
   (δ_i = min(1, 2^{|V_X|}·e^{−ε_i²n_i/2})), with δ_i = 0 for
   *exhausted* candidates — ones with n_i = N_i, every tuple read, so
   their histogram is exact (the without-replacement endpoint of §4.2
   Challenge 1);
5. sum into δ^upper.

Termination: HistSim/ScanMatch/SyncMatch/FastMatch stop when
δ^upper ≤ δ; SlowMatch (§5.2) stops only when max_i δ_i ≤ δ/|V_Z|.
The *active* candidates of the AnyActive policy are those with
δ_i > δ/|V_Z|.  Before any data the state holds Theorem 1 at n_i = 0
(τ_i = 2, δ_i = 1, δ^upper = |V_Z|): every candidate active, no
termination.

Each iteration costs what its batch changed plus a few passes over the
|V_Z| candidates, with no full-size mask copies:

* :meth:`~HistSimState.merge` owns the counts grid: one add per sampled
  cell.  It keeps n_i as well only for a batch of at most |V_Z|/2 cells
  (a one-block SyncMatch batch), which can move at most half the rows,
  so the next iterate can find the moved rows by comparing n_i with its
  last-seen copy.  A larger batch (a lookahead batch) moves most rows
  anyway, and a second add per cell into n_i costs as much as the add
  into the grid: for 16k cells into FLIGHTS' 161 × 24, 31 µs plus 5 µs
  for ``cells // |V_X|``, against 32 µs, where one integer row sum of
  the grid costs 3 µs (24 µs at TAXI's 3,072 × 24; 4-core Xeon VM).  So
  it marks n_i stale, and the next iterate re-derives n_i as that row
  sum and treats every row as moved;
* τ_i is recomputed, by the one fused kernel of :mod:`repro.core.distance`
  handed the n_i the state holds, only for the candidates whose n_i
  moved since the last iteration (a one-block SyncMatch batch touches at
  most ``tuples_per_block`` of them); after a large merge the kernel
  reads the whole counts matrix rather than a copy of the moved rows;
* M, its runner-up and the split point s come from sorting only the
  candidates whose τ is at most the largest current τ of the last M and
  runner-up (a partition over all candidates when those are many), and
  :meth:`~HistSimState.topk_indices` reads M from that same search;
* ε_i is one pass over all candidates plus a k-entry fix-up for M, and
  δ_i is Theorem 1 evaluated in one buffer, then multiplied by a held
  0/1 factor that is 0 for exhausted candidates and is updated only at
  the rows whose n_i moved.

Every value is the same, bit for bit, as a full recompute with a stable
sort (``tests/test_histsim.py`` checks this on random streams, TAXI-shaped
ones among them).  On TAXI at SF 0.4 (3,072 candidates × 24 bins,
512-block batches) an iteration and its merge cost 0.36–0.65 ms on a
4-core Xeon VM, against 0.68–1.29 ms with a separate normalisation pass
and mask-indexed deviations (``jobs/table4.py``); the τ kernel is just
over half of :meth:`HistSimState.iterate`.
"""
from __future__ import annotations

import numpy as np

from repro.core.bounds import delta_bound
from repro.core.deviations import select_deviations
from repro.core.distance import l1_distances, normalize_target


class HistSimState:
    """Counts + statistics for one run of HistSim.

    Parameters
    ----------
    target : length-|V_X| target vector Q (normalized internally).
    k, eps, delta : the user parameters of Problem 1.
    totals : length-|V_Z| tuple counts N_i of the full data, one per
        candidate histogram (so |V_Z| is ``len(totals)``); candidate i is
        exhausted once n_i = N_i.

    Each :meth:`iterate` overwrites the current iteration's statistics:
    ``tau`` (τ_i, updated in place at the rows whose n_i moved),
    ``choice`` (the :class:`~repro.core.deviations.DeviationChoice`: M
    and runner-up, ε_i and s; ``None`` before the first iterate),
    ``delta_i`` and ``delta_upper`` (Σδ_i).
    """

    def __init__(self, target, k: int, eps: float, delta: float, totals):
        totals = np.asarray(totals, dtype=np.int64)
        if totals.ndim != 1 or len(totals) < 1:
            raise ValueError(f"totals must be one count per candidate, got shape {totals.shape}")
        n_candidates = len(totals)
        if not 0 < delta < 1:
            raise ValueError(f"delta must be in (0, 1), got {delta}")
        if not eps > 0:
            raise ValueError(f"eps must be positive, got {eps}")
        if not 1 <= k <= n_candidates:
            raise ValueError(f"k must be in [1, {n_candidates}], got {k}")
        self.qhat = normalize_target(target)
        self.d = int(self.qhat.shape[0])
        self.n_candidates = n_candidates
        self.k = int(k)
        self.eps = float(eps)
        self.delta = float(delta)
        self.totals = totals
        self.counts = np.zeros((n_candidates, self.d), dtype=np.int64)
        # n_i, kept by small merges; a large one leaves it stale until the
        # next iterate re-derives it from counts.
        self._n = np.zeros(n_candidates, dtype=np.int64)
        self._n_stale = False
        self._n_seen = np.zeros(n_candidates, dtype=np.int64)  # n_i at the last iterate
        # 1.0 while candidate i has unread tuples, 0.0 once n_i = N_i: it is
        # exact, so δ_i = 0.  Kept at the rows an iterate sees change.
        self._live = (totals != 0).astype(np.float64)
        # Theorem 1 at n_i = 0, until the first iterate.
        self.tau = np.full(n_candidates, 2.0)
        self.choice = None
        self.delta_i = np.ones(n_candidates)
        self.delta_upper = float(n_candidates)
        self.n_iterations = 0

    # -- sample ingestion ---------------------------------------------------

    @property
    def n(self) -> np.ndarray:
        """Samples taken per candidate (n_i): the row sums of ``counts``,
        so also correct between a merge and the next iterate."""
        return np.einsum("ij->i", self.counts)

    def update(self, z_idx, x_idx, cnt) -> None:
        """Merge aggregated samples: counts[z, x] += cnt (vectorized).

        Raises ``ValueError``, and merges nothing, if a z or x is out of
        range (the flat index would fold it into a neighbouring cell) or
        a count is negative; then merges with :meth:`merge`.

        The program itself does not call it: both modes' batches arrive as
        packed cells for :meth:`merge`.  It stays as the checked triple
        entry the tests use, and because ``perfbench/spans.py`` wraps it by
        name.
        """
        z = np.asarray(z_idx, dtype=np.intp)
        x = np.asarray(x_idx, dtype=np.intp)
        cnt = np.asarray(cnt, dtype=np.int64)
        if z.size and (
            z.min() < 0 or z.max() >= self.n_candidates
            or x.min() < 0 or x.max() >= self.d or cnt.min() < 0
        ):
            raise ValueError(
                f"update needs 0 <= z < {self.n_candidates}, 0 <= x < {self.d} "
                "and cnt >= 0"
            )
        self.merge(z * self.d + x, cnt)

    def merge(self, cells, cnt=1) -> None:
        """The statistics engine's r_i ← r_i + r_i^partial merge, unchecked:
        counts.flat[cells] += cnt, one add per cell.

        A batch of at most |V_Z|/2 cells (a SyncMatch block) also adds
        into n_i, so that the next iterate recomputes τ only for the rows
        it moved.  A larger one (a lookahead batch) moves most rows
        anyway: it marks n_i stale, and the next iterate takes n_i as the
        row sums of ``counts`` and recomputes every row.

        The caller guarantees ``cells = z·|V_X| + x`` with every z and x in
        range and ``cnt >= 0``.  Every batch of the round loop meets it:
        the replay block store checked its rows once when it was built,
        the spark fetch decodes each value through its vocabulary, and
        :meth:`update` checks its triples.
        """
        np.add.at(self.counts.reshape(-1), cells, cnt)
        if 2 * len(cells) > self.n_candidates:
            self._n_stale = True
        elif not self._n_stale:
            np.add.at(self._n, cells // self.d, cnt)

    # -- one iteration of Algorithm 1 --------------------------------------

    def iterate(self) -> None:
        """Lines 8–14 of Algorithm 1, leaving τ, the choice, δ_i and
        δ^upper on the state.

        τ_i is recomputed only where n_i changed since the last call (or
        for every row, after a large merge): counts only grow, so an
        unchanged n_i means an unchanged row.
        """
        n = self._n
        if self._n_stale:
            # A large merge moved most rows: recompute every row from the
            # counts matrix itself.  An unmoved row gets the same bits
            # again, and copying then scattering most rows costs more.
            np.einsum("ij->i", self.counts, out=n)
            self._n_stale = False
            changed = slice(None)
            self.tau = l1_distances(self.counts, self.qhat, n)
        else:
            changed = np.flatnonzero(n != self._n_seen)
            if len(changed):
                self.tau[changed] = l1_distances(self.counts[changed], self.qhat, n[changed])
        n_changed = n[changed]
        self._n_seen[changed] = n_changed
        self._live[changed] = n_changed != self.totals[changed]
        nearest = None if self.choice is None else self.choice.nearest
        self.choice = select_deviations(self.tau, self.k, self.eps, nearest)
        self.delta_i = delta_bound(n, self.choice.eps, self.d)
        self.delta_i *= self._live
        self.delta_upper = float(self.delta_i.sum())
        self.n_iterations += 1

    # -- termination & activity --------------------------------------------

    def terminated(self, criterion: str = "sum_delta") -> bool:
        """Safe-termination test on the current statistics.

        ``sum_delta``: δ^upper = Σδ_i ≤ δ (HistSim's criterion).
        ``max_delta``: max_i δ_i ≤ δ/|V_Z| (the naive per-candidate
        criterion of the SlowMatch baseline).
        """
        if criterion == "sum_delta":
            return self.delta_upper <= self.delta
        if criterion == "max_delta":
            return float(self.delta_i.max()) <= self.delta / self.n_candidates
        raise ValueError(f"unknown termination criterion: {criterion}")

    def active(self) -> np.ndarray:
        """AnyActive's active mask: δ_i > δ/|V_Z| (all active before data)."""
        return self.delta_i > self.delta / self.n_candidates

    def topk_indices(self) -> np.ndarray:
        """Current matching set M as indices, ordered by (τ, index): the
        first k of the last choice's M and runner-up, or a stable argsort
        of τ when M is every candidate."""
        if self.choice is None:
            raise RuntimeError("iterate() must run before topk_indices()")
        if self.choice.nearest is None:
            return np.argsort(self.tau, kind="stable")[: self.k]
        return self.choice.nearest[: self.k]
