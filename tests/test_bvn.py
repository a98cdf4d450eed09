"""Decomposition into permutations, reconstruction, and sampling."""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import maximum_bipartite_matching

from nswrank import (
    BvnDecomposition,
    ExposureModel,
    MatchingFailure,
    PolicyTensor,
    RankingMixture,
    RelevanceMatrix,
    bvn_decompose,
    reconstruct,
    sample_ranking,
    solve_expo_fair,
    solve_nsw,
    solve_uniform,
    solve_utility_max,
    user_utility,
)
from nswrank import _kernels
from nswrank.bvn import DEFAULT_EPSILON
from nswrank.core import renormalize_doubly_stochastic


def decompose_user(mat: np.ndarray, epsilon: float) -> list:
    """Reference: peel one user's matrix alone, one matching per term."""
    n = mat.shape[0]
    work = mat.copy()
    work[work <= epsilon] = 0.0
    if np.any(work.sum(axis=0) <= 0) or np.any(work.sum(axis=1) <= 0):
        raise MatchingFailure("an entire row or column fell at or below epsilon")
    work = renormalize_doubly_stochastic(work[None])[0]

    terms = []
    remaining = 1.0
    max_terms = (n - 1) ** 2 + 1
    for _ in range(max_terms):
        if remaining <= n * epsilon + 1e-15:
            break
        rank_of_item = maximum_bipartite_matching(
            sp.csr_matrix((work > epsilon).astype(np.int8)), perm_type="column")
        if np.any(rank_of_item < 0):
            raise MatchingFailure("no perfect matching on entries above epsilon")
        matched = work[np.arange(n), rank_of_item]
        weight = min(float(matched.min()), remaining)
        items_by_rank = np.argsort(rank_of_item)
        terms.append((weight, items_by_rank))
        work[np.arange(n), rank_of_item] -= weight
        remaining -= weight
    if remaining > n * epsilon + 1e-15:
        raise MatchingFailure(f"{max_terms} terms left mass unassigned")
    total = sum(w for w, _ in terms)
    return [(w / total, perm) for w, perm in terms]


def unchecked_policy(mats) -> SimpleNamespace:
    """The fields bvn_decompose reads, without PolicyTensor's validation."""
    mats = np.asarray(mats, dtype=np.float64)
    return SimpleNamespace(m=mats.shape[0], n=mats.shape[1], matrices=mats)


def identity_matching(support):
    return np.broadcast_to(np.arange(support.shape[1]), support.shape[:2]).copy()


class TestBvnDecompose:
    def test_identity_policy_single_term(self):
        policy = PolicyTensor(np.eye(3)[None])
        dec = bvn_decompose(policy)
        assert len(dec.terms[0]) == 1
        weight, perm = dec.terms[0][0]
        assert weight == pytest.approx(1.0)
        assert np.array_equal(perm, [0, 1, 2])

    def test_half_matrix_two_terms(self):
        dec = bvn_decompose(PolicyTensor(np.full((1, 2, 2), 0.5)))
        assert len(dec.terms[0]) == 2
        weights = sorted(w for w, _ in dec.terms[0])
        assert np.allclose(weights, [0.5, 0.5])
        perms = {tuple(p) for _, p in dec.terms[0]}
        assert perms == {(0, 1), (1, 0)}

    def test_three_by_three_reconstructs(self):
        mat = np.array([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]])
        policy = PolicyTensor(mat[None])
        dec = bvn_decompose(policy)
        assert len(dec.terms[0]) <= 5
        err = np.abs(reconstruct(dec).matrices[0] - mat).max()
        assert err <= 1e-9

    def test_epsilon_range_enforced(self):
        with pytest.raises(ValueError):
            bvn_decompose(solve_uniform(1, 2), epsilon=1e-3)

    def test_matching_failure_when_threshold_eats_a_row(self):
        # a row with every entry at or below epsilon marks the mass as
        # unrecoverable, also when the other users are healthy
        bad = [[1e-7, 1e-7], [1.0, 1.0]]
        with pytest.raises(MatchingFailure, match="row or column"):
            bvn_decompose(unchecked_policy([bad]), epsilon=1e-6)
        with pytest.raises(MatchingFailure, match="row or column"):
            bvn_decompose(unchecked_policy([np.eye(2), bad, np.eye(2)]),
                          epsilon=1e-6)

    def test_matching_failure_when_terms_run_out(self, monkeypatch):
        # a matching that keeps returning the identity exhausts the diagonal
        # after one term, so the Marcus-Ree bound runs out with mass left;
        # the identity users next to it finish in one term
        monkeypatch.setattr(_kernels, "perfect_matching", identity_matching)
        skewed = [[0.75, 0.25], [0.25, 0.75]]
        with pytest.raises(MatchingFailure, match="unassigned"):
            bvn_decompose(PolicyTensor([skewed]), epsilon=1e-9)
        mats = np.stack([np.eye(2), skewed, np.eye(2)])
        with pytest.raises(MatchingFailure, match="unassigned"):
            bvn_decompose(PolicyTensor(mats), epsilon=1e-9)

    def test_matching_failure_when_a_block_has_no_perfect_matching(
            self, monkeypatch):
        def second_block_unmatched(support):
            match = identity_matching(support)
            match[1, 0] = -1
            return match

        monkeypatch.setattr(_kernels, "perfect_matching", second_block_unmatched)
        with pytest.raises(MatchingFailure, match="no perfect matching"):
            bvn_decompose(PolicyTensor(np.stack([np.eye(3)] * 3)))


def random_policy(seed: int, m: int, n: int) -> PolicyTensor:
    """Users that need very different term counts: a single ranking, sparse
    mixtures of a few rankings, and dense Sinkhorn-scaled matrices.  Some
    mixtures carry a ranking of weight 1e-13..1e-5, so thresholding at
    epsilon removes entries and the renormalization has mass to restore."""
    rng = np.random.default_rng(seed)
    mats = np.empty((m, n, n))
    for u in range(m):
        kind = rng.integers(3)
        if kind == 2:
            mats[u] = renormalize_doubly_stochastic(
                rng.uniform(0.05, 1.0, (1, n, n)), max_sweeps=1000)[0]
            continue
        count = 1 if kind == 0 else int(rng.integers(2, 2 * n))
        weights = rng.dirichlet(np.ones(count))
        if count > 1 and rng.random() < 0.5:
            weights[-1] = 10.0 ** rng.uniform(-13, -5)
            weights /= weights.sum()
        mats[u] = 0.0
        for w in weights:
            mats[u, rng.permutation(n), np.arange(n)] += w
    return PolicyTensor(mats)


class TestLockstepMatchesPerUserPeel:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 8),
           n=st.integers(2, 8), epsilon=st.sampled_from([1e-12, 1e-9, 1e-6]))
    def test_terms_equal_bit_for_bit(self, seed, m, n, epsilon):
        policy = random_policy(seed, m, n)
        dec = bvn_decompose(policy, epsilon=epsilon)
        for u in range(m):
            want = decompose_user(policy.matrices[u], epsilon)
            got = dec.terms[u]
            assert len(got) <= (n - 1) ** 2 + 1
            assert [w for w, _ in got] == [w for w, _ in want]
            assert all(np.array_equal(p, q) for (_, p), (_, q) in zip(got, want))

    def test_item_ids_past_one_byte(self):
        # rounds store rankings in the narrowest integer type that holds n-1
        rng = np.random.default_rng(0)
        n = 300
        mats = np.zeros((2, n, n))
        for u, weights in enumerate([[0.75, 0.25], [1.0]]):
            for w in weights:
                mats[u, rng.permutation(n), np.arange(n)] += w
        policy = PolicyTensor(mats)
        dec = bvn_decompose(policy)
        for u in range(2):
            want = decompose_user(policy.matrices[u], DEFAULT_EPSILON)
            assert [w for w, _ in dec.terms[u]] == [w for w, _ in want]
            for (_, got), (_, perm) in zip(dec.terms[u], want):
                assert got.dtype == np.int64
                assert np.array_equal(got, perm)

    @pytest.mark.parametrize("seed", range(5))
    def test_reconstruct_adds_in_term_order(self, seed):
        # reference: one permutation matrix at a time, user by user
        dec = bvn_decompose(random_policy(seed, 8, 7))
        want = np.zeros((dec.m, dec.n, dec.n))
        for u, user_terms in enumerate(dec.terms):
            for weight, items_by_rank in user_terms:
                want[u, items_by_rank, np.arange(dec.n)] += weight
        assert np.array_equal(reconstruct(dec).matrices,
                              PolicyTensor(want).matrices)

    def test_term_counts_differ_across_users(self):
        # the markets above do exercise users dropping out at different rounds
        counts = {len(t) for t in bvn_decompose(random_policy(3, 8, 6)).terms}
        assert len(counts) >= 3


def pooled_policy(seed: int, m: int, n: int) -> PolicyTensor:
    """The users of random_policy, about half of them with the last P ranks
    (2 <= P <= n) replaced by their mean: a prefix mixture with a uniform
    tail, whose P trailing rank columns are equal."""
    rng = np.random.default_rng(seed)
    mats = random_policy(seed, m, n).matrices.copy()
    for u in np.flatnonzero(rng.random(m) < 0.5):
        width = int(rng.integers(2, n + 1))
        mats[u, :, n - width:] = mats[u, :, n - width:].mean(axis=1, keepdims=True)
    return PolicyTensor(mats)


class TestPooledPeel:
    """Equal trailing rank columns, and mixtures past the term bound."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 8),
           n=st.integers(2, 8), epsilon=st.sampled_from([1e-12, 1e-9, 1e-6]))
    def test_terms_equal_pooled_reference_bit_for_bit(self, seed, m, n, epsilon):
        # users whose trailing rank columns are equal get the plain peel,
        # term for term, like every other user
        policy = pooled_policy(seed, m, n)
        dec = bvn_decompose(policy, epsilon=epsilon)
        for u in range(m):
            want = decompose_user(policy.matrices[u], epsilon)
            got = dec.terms[u]
            assert len(got) <= (n - 1) ** 2 + 1
            assert [w for w, _ in got] == [w for w, _ in want]
            assert all(np.array_equal(p, q) for (_, p), (_, q) in zip(got, want))
        err = np.abs(reconstruct(dec).matrices - policy.matrices).max()
        assert err <= n * epsilon + 1e-9

    def test_pool_past_the_term_bound_is_peeled_plainly(self):
        # expo-fair at cutoff 1 spreads ranks 1 and 2 uniformly, so a peel
        # that kept those two columns equal would take three rounds of two
        # shifts each, six terms against the bound of five.  That user, the
        # uniform user and the single ranking next to it all get the plain
        # peel
        rel = RelevanceMatrix(np.array([[0.5, 0.3, 0.2]]))
        policy = solve_expo_fair(rel, ExposureModel.make("inverse", 3, 1))[0]
        mats = np.concatenate(
            [np.full((1, 3, 3), 1 / 3), policy.dense(), np.eye(3)[None, [2, 0, 1]]])
        dec = bvn_decompose(PolicyTensor(mats))
        assert len(dec.terms[1]) <= (3 - 1) ** 2 + 1
        for u in range(3):
            want = decompose_user(mats[u], DEFAULT_EPSILON)
            assert [w for w, _ in dec.terms[u]] == [w for w, _ in want]
            assert all(np.array_equal(p, q) for (_, p), (_, q) in zip(dec.terms[u], want))
        assert len(dec.terms[0]) == 3
        assert np.abs(reconstruct(dec).matrices - mats).max() <= 3e-9 + 1e-9

    def test_mixture_past_the_term_bound_is_its_own_terms(self, monkeypatch):
        # user 1 has three prefixes of length 1 over n = 3, which as
        # permutations would take six terms against the bound of five; like
        # every mixture user it keeps its own terms, with no matching and no
        # dense matrix built
        calls = []

        def counted(fn):
            def wrapper(*args):
                calls.append(fn)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(_kernels, "perfect_matching",
                            counted(_kernels.perfect_matching))
        monkeypatch.setattr(RankingMixture, "dense", counted(RankingMixture.dense))
        mix = RankingMixture.from_counts(
            3, [1, 3, 1], [1.0, 0.5, 0.25, 0.25, 1.0], [0, 1, 1, 1, 3],
            [0, 1, 2, 2, 0, 1])
        dec = bvn_decompose(mix)
        assert calls == []
        assert [[(w, p.tolist()) for w, p in user] for user in dec.terms] == [
            [(1.0, [])], [(0.5, [0]), (0.25, [1]), (0.25, [2])],
            [(1.0, [2, 0, 1])]]
        assert np.abs(reconstruct(dec).matrices - mix.dense()).max() <= 3e-9 + 1e-9


class TestRoundTrip:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_solver_outputs_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 21))
        n = int(rng.integers(2, 21))
        rel = RelevanceMatrix(rng.uniform(0.05, 1.0, (m, n)))
        exp = ExposureModel.make("inverse", n, min(5, n))
        policies = [
            solve_uniform(m, n),
            solve_utility_max(rel, exp),
            solve_nsw(rel, exp)[0],
            solve_expo_fair(rel, exp)[0],
        ]
        for policy in policies:
            dec = bvn_decompose(policy, epsilon=1e-9)
            for user_terms in dec.terms:
                assert sum(w for w, _ in user_terms) == pytest.approx(1.0, abs=1e-9)
                assert len(user_terms) <= (n - 1) ** 2 + 1
            rec = reconstruct(dec)
            assert np.abs(rec.matrices - policy.dense()).max() <= n * 1e-9 + 1e-9
            assert user_utility(rec, rel, exp) == pytest.approx(
                user_utility(policy, rel, exp), abs=1e-6)

    def test_reconstruct_keeps_the_weights_as_they_are(self):
        # weights within the 1e-9 sum check but off 1: the rebuilt rows show it
        dec = BvnDecomposition(mixture=RankingMixture.from_counts(
            2, [2], [0.5 + 4e-10, 0.5], [2, 2], [0, 1, 1, 0]),
            epsilon=DEFAULT_EPSILON)
        rows = reconstruct(dec).matrices.sum(axis=2)
        assert rows == pytest.approx(np.full((1, 2), 1.0 + 4e-10),
                                     rel=0, abs=1e-15)

    def test_uniform_round_trips_to_uniform(self):
        dec = bvn_decompose(solve_uniform(3, 4))
        assert np.allclose(reconstruct(dec).matrices, 0.25, atol=1e-12)


class TestSampleRanking:
    def test_single_term_every_seed(self):
        policy = PolicyTensor(np.eye(4)[None])
        dec = bvn_decompose(policy)
        for seed in range(20):
            assert np.array_equal(sample_ranking(dec, 0, seed), [0, 1, 2, 3])

    def test_two_term_frequency(self):
        dec = bvn_decompose(solve_uniform(1, 2))
        hits = sum(
            np.array_equal(sample_ranking(dec, 0, seed), [0, 1])
            for seed in range(10000))
        assert abs(hits / 10000 - 0.5) <= 0.02

    def test_prefix_tails_match_the_marginals(self):
        # an empty prefix and a top-2 prefix: the left-out items follow in a
        # uniformly random order, so the frequency of each (item, rank) cell
        # is binomial around the dense marginal
        mix = RankingMixture.from_counts(4, [2], [0.4, 0.6], [0, 2], [3, 1])
        dec = bvn_decompose(mix)
        draws = 20_000
        counts = np.zeros((4, 4))
        for seed in range(draws):
            counts[sample_ranking(dec, 0, seed), np.arange(4)] += 1
        p = mix.dense()[0]
        assert np.all(np.abs(counts - draws * p)
                      <= 5 * np.sqrt(draws * p * (1 - p)))

    def test_fixed_seed_deterministic(self):
        dec = bvn_decompose(solve_uniform(2, 3))
        a = sample_ranking(dec, 1, seed=123)
        b = sample_ranking(dec, 1, seed=123)
        assert np.array_equal(a, b)

    def test_user_out_of_range(self):
        dec = bvn_decompose(solve_uniform(1, 2))
        with pytest.raises(IndexError):
            sample_ranking(dec, 3, seed=0)
