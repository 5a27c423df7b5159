"""The HistSim state machine (Algorithm 1) and its termination logic."""
import numpy as np
import pytest

from repro.core.bounds import delta_bound
from repro.core.distance import l1_distances
from repro.core.histsim import HistSimState


# Tuple totals N_i far above any sample count, so no candidate is
# exhausted when a test samples with replacement.
BIG = 10**12


def make_state(n_cand=5, d=4, k=2, eps=0.2, delta=0.01, target=None, totals=None):
    """A state over ``n_cand`` candidates: |V_Z| is ``len(totals)``."""
    return HistSimState(
        target if target is not None else np.ones(d),
        k,
        eps,
        delta,
        np.full(n_cand, BIG) if totals is None else totals,
    )


# -- construction ------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(totals=[]),
        dict(k=0),
        dict(k=6),
        dict(eps=0.0),
        dict(delta=0.0),
        dict(delta=1.0),
        dict(totals=[[BIG, BIG], [BIG, BIG]]),
    ],
)
def test_bad_construction(kwargs):
    with pytest.raises(ValueError):
        make_state(**kwargs)


def test_initial_state():
    st = make_state()
    assert st.n.sum() == 0
    assert not st.terminated()
    assert not st.terminated("max_delta")
    assert st.active().all()
    with pytest.raises(RuntimeError):
        st.topk_indices()


# -- updates -----------------------------------------------------------------


def test_update_accumulates_duplicates():
    st = make_state()
    st.update([0, 0, 1], [2, 2, 3], [5, 3, 7])
    assert st.counts[0, 2] == 8
    assert st.counts[1, 3] == 7
    assert list(st.n) == [8, 7, 0, 0, 0]


@pytest.mark.parametrize(
    "z, x, cnt",
    [
        ([0, -1], [0, 0], [1, 1]),  # z below range
        ([0, 5], [0, 0], [1, 1]),   # z = |V_Z|
        ([0, 1], [0, -1], [1, 1]),  # x below range
        ([0, 1], [0, 4], [1, 1]),   # x = |V_X|: would fold into row 2
        ([0, 1], [0, 1], [1, -1]),  # negative count
    ],
    ids=["z-neg", "z-high", "x-neg", "x-high", "cnt-neg"],
)
def test_update_rejects_out_of_range(z, x, cnt):
    st = make_state()  # 5 candidates, 4 bins
    with pytest.raises(ValueError):
        st.update(z, x, cnt)
    assert not st.counts.any() and not st.n.any()


def test_iterate_known_small_case():
    st = make_state(n_cand=3, d=2, k=1, eps=0.2, target=[1, 1])
    st.update([0, 0, 1, 1, 2], [0, 1, 0, 0, 0], [10, 10, 20, 0, 4])
    st.iterate()
    np.testing.assert_allclose(st.tau, [0.0, 1.0, 1.0])
    assert list(np.flatnonzero(st.choice.matching)) == [0]
    assert st.choice.split == pytest.approx(0.5)
    # δ_i from Theorem 1 with the chosen ε_i
    np.testing.assert_allclose(
        st.delta_i, delta_bound(st.n, np.maximum(st.choice.eps, 0), 2)
    )
    assert st.delta_upper == pytest.approx(st.delta_i.sum())


def test_unsampled_candidate_has_delta_one_and_tau_two():
    st = make_state(n_cand=3, d=2, k=1, target=[1, 1])
    st.update([0], [0], [50])
    st.iterate()
    assert st.tau[1] == 2.0 and st.tau[2] == 2.0
    assert st.delta_i[1] == 1.0 and st.delta_i[2] == 1.0


def test_exhausted_candidate_has_delta_zero():
    """Candidates 0 and 1 hold the same samples; only 1 has n_i = N_i."""
    st = make_state(n_cand=3, d=2, k=1, target=[1, 1], totals=[100, 5, 100])
    st.update([0, 1, 2], [0, 0, 1], [5, 5, 5])
    st.iterate()
    assert st.delta_i[1] == 0.0
    assert st.delta_i[0] > 0 and st.delta_i[2] > 0


def test_absent_candidate_has_delta_zero_at_first_iterate():
    """A value with no tuples (N_i = 0) is exact before any of it is read."""
    st = make_state(n_cand=3, d=2, k=1, target=[1, 1], totals=[100, 0, 100])
    st.update([0, 2], [0, 1], [5, 5])
    st.iterate()
    assert st.delta_i[1] == 0.0
    assert st.delta_i[0] > 0 and st.delta_i[2] > 0


def test_termination_criteria_difference():
    """Σδ ≤ δ can hold while max δ_i ≤ δ/|V_Z| does not — exactly the
    SlowMatch-vs-HistSim gap the paper exploits (§5.2).

    Candidate 0 matches the target exactly on 49 samples: its ε_0 = 0.5
    gives δ_0 = 4·e^(−0.125·49) ≈ 0.0088, under δ = 0.01 but far above
    δ/4 = 0.0025.  The three far candidates get huge ε_j and negligible
    δ_j, so the HistSim sum terminates and the SlowMatch max does not.
    """
    st = make_state(n_cand=4, d=2, k=1, eps=0.5, delta=0.01, target=[1, 0])
    st.update([0], [0], [49])
    st.update([1, 2, 3], [1, 1, 1], [16, 16, 16])
    st.iterate()
    assert st.delta_upper <= 0.01
    assert st.delta_i.max() > 0.01 / 4
    assert st.terminated("sum_delta")
    assert not st.terminated("max_delta")


def test_bad_criterion():
    st = make_state()
    st.update([0], [0], [1])
    st.iterate()
    with pytest.raises(ValueError):
        st.terminated("nope")


def test_active_mask_threshold():
    st = make_state(n_cand=3, d=2, k=1, eps=0.4, delta=0.3, target=[1, 1])
    st.update([0, 1, 2], [0, 0, 0], [200_000, 200_000, 3])
    st.iterate()
    active = st.active()
    np.testing.assert_array_equal(active, st.delta_i > 0.3 / 3)
    assert active[2]  # 3 samples cannot settle anything


def test_topk_ordering():
    st = make_state(n_cand=4, d=2, k=2, target=[1, 1])
    st.update([0, 1, 2, 3], [0, 0, 0, 0], [10, 10, 10, 10])
    st.update([0, 1, 2, 3], [1, 1, 1, 1], [10, 8, 2, 10])
    st.iterate()
    assert list(st.topk_indices()) == [0, 3]


# -- end-to-end statistical behaviour ---------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_simulated_run_returns_correct_topk(seed):
    """Feeding multinomial rounds until termination returns the true
    top-k (up to ε-equivalent swaps) — Algorithm 1 end to end."""
    rng = np.random.default_rng(seed)
    n_cand, d, k, eps, delta = 12, 6, 3, 0.25, 0.05
    target = rng.dirichlet(np.ones(d) * 5)
    # candidate true distributions: 3 close to target, rest far
    truth = np.empty((n_cand, d))
    for i in range(n_cand):
        mix = 0.05 if i < 3 else rng.uniform(0.5, 1.0)
        far = rng.dirichlet(np.ones(d))
        truth[i] = (1 - mix) * target + mix * far
        truth[i] /= truth[i].sum()
    st = HistSimState(target, k, eps, delta, np.full(n_cand, BIG))
    for _ in range(3000):
        for i in range(n_cand):
            draw = rng.multinomial(40, truth[i])
            st.update([i] * d, list(range(d)), draw)
        st.iterate()
        if st.terminated():
            break
    assert st.terminated()
    tau_true = l1_distances(truth * 1000, target)
    got = set(st.topk_indices().tolist())
    true_k = set(np.argsort(tau_true, kind="stable")[:k].tolist())
    # separation guarantee: any mismatch must be within ε in true distance
    worst_out = max(tau_true[list(got)])
    for j in true_k - got:
        assert worst_out - tau_true[j] < eps


def test_iteration_count_tracked():
    st = make_state()
    st.update([0], [0], [1])
    st.iterate()
    st.iterate()
    assert st.n_iterations == 2


# -- incremental statistics vs a from-scratch recompute ------------------


def full_recompute(counts, totals, qhat, k, eps):
    """Algorithm 1 lines 8–14 from scratch: τ over every row, M from a
    stable argsort, the §3.3 deviations and Theorem 1's δ_i."""
    n = counts.sum(axis=1)
    tau = l1_distances(counts, qhat)
    m = np.zeros(len(tau), dtype=bool)
    m[np.argsort(tau, kind="stable")[:k]] = True
    if m.all():
        eps_i = np.full(len(tau), eps)
    else:
        s = (tau[m].max() + tau[~m].min()) / 2.0
        eps_i = np.where(m, np.minimum(eps, s + eps / 2.0 - tau), tau - max(s - eps / 2.0, 0.0))
    delta_i = np.asarray(delta_bound(n, np.maximum(eps_i, 0.0), counts.shape[1]), dtype=np.float64)
    delta_i[n == totals] = 0.0
    return tau, m, eps_i, delta_i, float(delta_i.sum())


def random_stream(rng, n_cand, d, steps):
    """Batches of (z, x, cnt) triples: some empty, with repeated
    candidates and cells, and small counts so that τ ties are common."""
    stream = []
    for _ in range(steps):
        size = 0 if rng.random() < 0.15 else int(rng.integers(1, 3 * n_cand))
        hot = rng.choice(n_cand, size=max(1, n_cand // 3), replace=False)
        stream.append((rng.choice(hot, size), rng.integers(0, d, size), rng.integers(0, 3, size)))
    return stream


def taxi_stream(rng, n_cand, d, batch, steps):
    """TAXI-shaped batches over 3,072 × 24: one-block batches of 32
    single tuples from a skewed candidate mix, or lookahead batches of
    16k triples that move every candidate (even steps) or most of them
    (odd steps, as TAXI's 512-block batches do)."""
    weights = rng.pareto(1.0, n_cand) + 0.1
    weights /= weights.sum()
    stream = []
    for step in range(steps):
        if batch == "blocks":
            z = rng.choice(n_cand, 32, p=weights)
            cnt = np.ones(32, dtype=np.int64)
        else:
            every = np.arange(n_cand) if step % 2 == 0 else np.arange(0)
            z = np.concatenate((every, rng.choice(n_cand, 16384 - len(every), p=weights)))
            cnt = rng.integers(1, 3, len(z))
        stream.append((z, rng.integers(0, d, len(z)), cnt))
    return stream


@pytest.mark.parametrize("case", [*range(8), "taxi-blocks", "taxi-batches"])
@pytest.mark.parametrize("k_pick", ["one", "mid", "all"])
def test_incremental_matches_full_recompute(case, k_pick):
    """Every iteration's τ, M, ε_i, δ_i, δ^upper and top-k equal a
    from-scratch recompute exactly.

    Integer cases draw small random streams; the TAXI cases run 3,072
    candidates × 24 bins with tie-heavy τ, in one-block batches (few rows
    change) or in 16k-triple batches (every row, or most rows, change)."""
    if isinstance(case, int):
        rng = np.random.default_rng(case)
        n_cand, d = int(rng.integers(2, 40)), int(rng.integers(2, 7))
    else:
        rng = np.random.default_rng(3072)
        n_cand, d = 3072, 24
    k = {"one": 1, "mid": max(1, n_cand // 3), "all": n_cand}[k_pick]
    # Zero target bins give sampled candidates τ = 2, tied with the unsampled.
    target = rng.integers(0, 3, d).astype(float)
    target[0] = 1.0
    if isinstance(case, int):
        stream = random_stream(rng, n_cand, d, steps=40)
    else:
        batch = case.split("-")[1]
        stream = taxi_stream(rng, n_cand, d, batch, steps=120 if batch == "blocks" else 6)
    final = np.zeros((n_cand, d), dtype=np.int64)
    for z, x, cnt in stream:
        np.add.at(final, (z, x), cnt)
    # Candidate 0 and about a third of the rest are exhausted once the
    # stream ends (the never-sampled ones among them from the start).
    exhaust = rng.random(n_cand) < 1 / 3
    exhaust[0] = True
    totals = np.where(exhaust, final.sum(axis=1), BIG)
    st = HistSimState(target, k, 0.2, 0.05, totals)
    counts = np.zeros((n_cand, d), dtype=np.int64)
    for z, x, cnt in stream:
        st.update(z, x, cnt)
        np.add.at(counts, (z, x), cnt)
        st.iterate()
        tau, m, eps_i, delta_i, upper = full_recompute(counts, totals, st.qhat, k, 0.2)
        np.testing.assert_array_equal(st.counts, counts)
        assert np.array_equal(st.tau, tau)
        assert np.array_equal(st.choice.matching, m)
        assert np.array_equal(st.choice.eps, eps_i)
        assert np.array_equal(st.delta_i, delta_i)
        assert st.delta_upper == upper
        assert np.array_equal(st.n, counts.sum(axis=1))
        assert np.array_equal(st.topk_indices(), np.argsort(tau, kind="stable")[:k])


def mixed_chunks(rows, half, big_first):
    """Split a batch's rows into chunks of half + 1 cells (more than
    |V_Z|/2: a merge that leaves n_i to the next iterate) and half cells
    (at most |V_Z|/2: a merge that adds into n_i), alternating from the
    big or the small one."""
    sizes = [half + 1, half] if big_first else [half, half + 1]
    out, lo = [], 0
    while lo < len(rows):
        size = sizes[len(out) % 2]
        out.append(rows[lo : lo + size])
        lo += size
    return out


@pytest.mark.parametrize("case", [0, 1, 2, "taxi-blocks", "taxi-batches"])
def test_merge_rows_matches_checked_update(case):
    """The replay merge of int32 rows, ``merge(z·|V_X| + x)``, and the
    checked ``update(z, x, ones)`` on the same rows both leave counts and
    n equal to a reference built directly from (z, x), and every later
    iteration equal to a full recompute over that reference.  The rows
    are the random and TAXI-shaped streams above, each triple expanded
    into ``cnt`` rows, plus the corner cells (0, 0) and
    (|V_Z|−1, |V_X|−1) in every batch.

    ``merge`` takes each batch as several chunks before one iterate, of
    sizes just above and at |V_Z|/2, big then small on even steps and
    small then big on odd ones, so both merge paths run in both orders
    (a one-block TAXI batch is a single small chunk); counts and n are
    checked after every chunk."""
    if isinstance(case, int):
        rng = np.random.default_rng(case)
        n_cand, d = int(rng.integers(2, 40)), int(rng.integers(2, 7))
        stream = random_stream(rng, n_cand, d, steps=40)
    else:
        rng = np.random.default_rng(3072)
        n_cand, d = 3072, 24
        batch = case.split("-")[1]
        stream = taxi_stream(rng, n_cand, d, batch, steps=120 if batch == "blocks" else 6)
    target = rng.integers(0, 3, d).astype(float)
    target[0] = 1.0
    rows = [
        (np.concatenate(([0, n_cand - 1], np.repeat(z, cnt))),
         np.concatenate(([0, d - 1], np.repeat(x, cnt))))
        for z, x, cnt in stream
    ]
    final = np.bincount(np.concatenate([z for z, _ in rows]), minlength=n_cand)
    totals = np.where(rng.random(n_cand) < 1 / 3, final, BIG)  # some end exhausted
    k = max(1, n_cand // 3)
    checked, st = (HistSimState(target, k, 0.2, 0.05, totals) for _ in range(2))
    ref_counts = np.zeros((n_cand, d), dtype=np.int64)
    ref_n = np.zeros(n_cand, dtype=np.int64)
    for step, (z, x) in enumerate(rows):
        checked.update(z, x, np.ones(len(z), dtype=np.int64))
        for chunk in mixed_chunks(np.stack((z, x), axis=1), n_cand // 2, step % 2 == 0):
            st.merge((chunk[:, 0] * d + chunk[:, 1]).astype(np.int32))
            np.add.at(ref_counts, (chunk[:, 0], chunk[:, 1]), 1)
            ref_n += np.bincount(chunk[:, 0], minlength=n_cand)
            np.testing.assert_array_equal(st.counts, ref_counts)
            np.testing.assert_array_equal(st.n, ref_n)
        np.testing.assert_array_equal(checked.counts, ref_counts)
        np.testing.assert_array_equal(checked.n, ref_n)
        st.iterate()
        tau, m, eps_i, delta_i, upper = full_recompute(ref_counts, totals, st.qhat, k, 0.2)
        assert np.array_equal(st.tau, tau)
        assert np.array_equal(st.choice.matching, m)
        assert np.array_equal(st.choice.eps, eps_i)
        assert np.array_equal(st.delta_i, delta_i)
        assert st.delta_upper == upper
