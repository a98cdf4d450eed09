"""Decomposition of ranking mixtures, reconstruction, and sampling."""

import re

import numpy as np
import pytest

from nswrank import (
    ExposureModel,
    InputError,
    RankingMixture,
    RelevanceMatrix,
    SchemaError,
    bvn_decompose,
    reconstruct,
    sample_ranking,
    solve_expo_fair,
    solve_nsw,
    solve_uniform,
    solve_utility_max,
    user_utility,
)


def permutations(n: int, weights: list, perms: list) -> RankingMixture:
    """One user's mixture of full rankings (items by rank)."""
    return RankingMixture.from_counts(n, [len(weights)], weights,
                                      [n] * len(weights), np.concatenate(perms))


class TestBvnDecompose:
    def test_identity_policy_single_term(self):
        dec = bvn_decompose(permutations(3, [1.0], [[0, 1, 2]]))
        assert len(dec.terms[0]) == 1
        weight, perm = dec.terms[0][0]
        assert weight == 1.0
        assert np.array_equal(perm, [0, 1, 2])

    def test_half_matrix_two_terms(self):
        dec = bvn_decompose(permutations(2, [0.5, 0.5], [[0, 1], [1, 0]]))
        assert len(dec.terms[0]) == 2
        weights = sorted(w for w, _ in dec.terms[0])
        assert np.allclose(weights, [0.5, 0.5])
        perms = {tuple(p) for _, p in dec.terms[0]}
        assert perms == {(0, 1), (1, 0)}

    def test_three_by_three_reconstructs(self):
        mat = np.array([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]])
        # the three cyclic shifts, weighted by the diagonals they fill
        policy = permutations(3, [0.5, 0.2, 0.3],
                              [[0, 1, 2], [1, 2, 0], [2, 0, 1]])
        dec = bvn_decompose(policy)
        assert len(dec.terms[0]) == 3
        err = np.abs(reconstruct(dec)[0] - mat).max()
        assert err <= 1e-9

    def test_mixture_is_its_own_terms(self, monkeypatch):
        # user 1 has three prefixes of length 1 over n = 3; like every
        # mixture user it keeps its own terms, with no dense matrix built
        calls = []
        dense = RankingMixture.dense

        def counted(*args):
            calls.append(args)
            return dense(*args)

        monkeypatch.setattr(RankingMixture, "dense", counted)
        mix = RankingMixture.from_counts(
            3, [1, 3, 1], [1.0, 0.5, 0.25, 0.25, 1.0], [0, 1, 1, 1, 3],
            [0, 1, 2, 2, 0, 1])
        dec = bvn_decompose(mix)
        assert calls == []
        assert [[(w, p.tolist()) for w, p in user] for user in dec.terms] == [
            [(1.0, [])], [(0.5, [0]), (0.25, [1]), (0.25, [2])],
            [(1.0, [2, 0, 1])]]
        assert np.abs(reconstruct(dec) - mix.dense()).max() <= 3e-9 + 1e-9

    def test_dense_policy_is_refused(self):
        # dense marginals do not say which rankings they mix
        with pytest.raises(SchemaError, match="policy/v2"):
            bvn_decompose(np.eye(3)[None])


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
            dec = bvn_decompose(policy)
            for user_terms in dec.terms:
                assert sum(w for w, _ in user_terms) == pytest.approx(1.0, abs=1e-9)
                assert len(user_terms) <= (n - 1) ** 2 + 1
            rec = reconstruct(dec)
            # doubly stochastic within the weights' 1e-9
            assert np.abs(rec.sum(axis=2) - 1.0).max() <= 1e-9
            assert np.abs(rec.sum(axis=1) - 1.0).max() <= 1e-9
            assert np.abs(rec - policy.dense()).max() <= n * 1e-9 + 1e-9
            assert np.sum(rel.values * (rec @ exp.weights)) == pytest.approx(
                user_utility(policy, rel, exp), abs=1e-6)

    def test_reconstruct_keeps_the_weights_as_they_are(self):
        # weights within the 1e-9 sum check but off 1: the rebuilt rows show it
        dec = RankingMixture.from_counts(
            2, [2], [0.5 + 4e-10, 0.5], [2, 2], [0, 1, 1, 0])
        rows = reconstruct(dec).sum(axis=2)
        assert rows == pytest.approx(np.full((1, 2), 1.0 + 4e-10),
                                     rel=0, abs=1e-15)

    def test_uniform_round_trips_to_uniform(self):
        dec = bvn_decompose(solve_uniform(3, 4))
        assert np.allclose(reconstruct(dec), 0.25, atol=1e-12)


class TestSampleRanking:
    def test_single_term_every_seed(self):
        dec = bvn_decompose(permutations(4, [1.0], [[0, 1, 2, 3]]))
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

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_policy_is_its_own_decomposition(self, seed):
        # sampling a solver's policy draws what sampling its decomposition
        # draws, for every user and seed
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(1, 11)), int(rng.integers(2, 11))
        rel = RelevanceMatrix(rng.uniform(0.05, 1.0, (m, n)))
        exp = ExposureModel.make("inverse", n, min(3, n))
        for policy in (solve_uniform(m, n), solve_utility_max(rel, exp),
                       solve_nsw(rel, exp)[0], solve_expo_fair(rel, exp)[0]):
            dec = bvn_decompose(policy)
            for user in range(m):
                for draw in range(3):
                    assert np.array_equal(sample_ranking(policy, user, draw),
                                          sample_ranking(dec, user, draw))

    def test_user_out_of_range(self):
        dec = bvn_decompose(solve_uniform(1, 2))
        with pytest.raises(InputError, match="user 3 out of range for m=1"):
            sample_ranking(dec, 3, seed=0)

    @pytest.mark.parametrize("user, seed, message", [
        (4, 0, "user 4 out of range for m=4"),
        (-1, 0, "user -1 out of range for m=4"),
        (0, -1, "seed must be >= 0, got -1"),
    ])
    def test_arguments_outside_their_range_are_input_errors(self, user, seed,
                                                           message):
        dec = bvn_decompose(solve_uniform(4, 3))
        with pytest.raises(InputError, match=re.escape(message)):
            sample_ranking(dec, user, seed)
