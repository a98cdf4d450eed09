"""Decomposition into permutations, reconstruction, and sampling."""

import numpy as np
import pytest

from nswrank import (
    ExposureModel,
    MatchingFailure,
    PolicyTensor,
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
from nswrank.bvn import _decompose_user


class TestBvnDecompose:
    def test_identity_policy_single_term(self):
        policy = PolicyTensor(np.eye(3)[None])
        dec = bvn_decompose(policy)
        assert len(dec.terms[0]) == 1
        weight, perm = dec.terms[0][0]
        assert weight == pytest.approx(1.0)
        assert np.array_equal(perm, [0, 1, 2])

    def test_half_matrix_two_terms(self):
        dec = bvn_decompose(solve_uniform(1, 2))
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
        # internal path: a threshold larger than every entry of one row marks
        # the mass as unrecoverable
        with pytest.raises(MatchingFailure):
            _decompose_user(np.full((2, 2), 0.5), epsilon=0.6)

    def test_matching_failure_when_terms_run_out(self, monkeypatch):
        # a matching that keeps returning the identity exhausts the diagonal
        # after one term, so the Marcus-Ree bound runs out with mass left
        monkeypatch.setattr(_kernels, "perfect_matching",
                            lambda support: np.arange(support.shape[0]))
        with pytest.raises(MatchingFailure, match="unassigned"):
            _decompose_user(np.full((2, 2), 0.5), epsilon=1e-9)


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
            assert np.abs(rec.matrices - policy.matrices).max() <= n * 1e-9 + 1e-9
            assert user_utility(rec, rel, exp) == pytest.approx(
                user_utility(policy, rel, exp), abs=1e-6)

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
        first = dec.terms[0][0][1]
        hits = sum(
            np.array_equal(sample_ranking(dec, 0, seed), first)
            for seed in range(10000))
        assert abs(hits / 10000 - 0.5) <= 0.02

    def test_fixed_seed_deterministic(self):
        dec = bvn_decompose(solve_uniform(2, 3))
        a = sample_ranking(dec, 1, seed=123)
        b = sample_ranking(dec, 1, seed=123)
        assert np.array_equal(a, b)

    def test_user_out_of_range(self):
        dec = bvn_decompose(solve_uniform(1, 2))
        with pytest.raises(IndexError):
            sample_ranking(dec, 3, seed=0)
