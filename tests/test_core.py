"""Domain types and the measurement primitives."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nswrank import (
    DimensionError,
    ExposureModel,
    ImpactFunction,
    InputError,
    RelevanceMatrix,
    SizeError,
    amortized_exposure,
    envy_matrix,
    item_impact,
    merit,
    solve_expo_fair,
    solve_nsw,
    solve_uniform,
    solve_utility_max,
    user_utility,
)
from nswrank.core import MAX_ENTRIES, check_size

from conftest import random_policy

RW = ImpactFunction.RELEVANCE_WEIGHTED
XO = ImpactFunction.EXPOSURE_ONLY


class TestRelevanceMatrix:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            RelevanceMatrix([[0.5, -0.1]])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            RelevanceMatrix([[0.5, np.nan]])

    def test_rejects_single_item(self):
        with pytest.raises(DimensionError):
            RelevanceMatrix([[0.5]])

    def test_zero_matrix_is_valid(self):
        rel = RelevanceMatrix(np.zeros((3, 4)))
        assert np.array_equal(merit(rel), np.zeros(4))

    def test_entries_sum_to_at_most_half_the_float_range(self):
        # every utility, impact, merit and envy entry stays finite
        half = np.finfo(np.float64).max / 2
        RelevanceMatrix([[half / 2, half / 2]])
        with pytest.raises(InputError, match="sum to at most 8.99e"):
            RelevanceMatrix([[half / 2, half / 2 * 1.001]])
        with pytest.raises(InputError, match="sum to at most 8.99e"):
            RelevanceMatrix(np.full((2, 3), 1e308))  # their sum overflows


class TestExposureModel:
    def test_inverse_weights(self):
        exp = ExposureModel.make("inverse", 5, 3)
        assert np.allclose(exp.weights, [1.0, 0.5, 1 / 3, 0.0, 0.0])
        assert exp.total_exposure == pytest.approx(11 / 6)

    def test_exponential_weights(self):
        exp = ExposureModel.make("exponential", 4, 4)
        assert np.allclose(exp.weights, np.exp(-np.arange(4.0)))

    def test_dcg_weights(self):
        exp = ExposureModel.make("dcg", 4, 2)
        assert np.allclose(exp.weights, [1.0, 1 / np.log2(3), 0.0, 0.0])

    def test_rejects_increasing_custom_weights(self):
        with pytest.raises(ValueError):
            ExposureModel([0.5, 1.0, 0.0])

    def test_rejects_weights_above_one(self):
        with pytest.raises(ValueError):
            ExposureModel([2.0, 1.0])

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_weights_that_are_not_finite(self, weight):
        # comparisons with NaN are false, so a check of w < 0 or w > 1 alone
        # lets it through
        with pytest.raises(ValueError, match="finite"):
            ExposureModel([1.0, weight, 0.0])

    def test_custom_weights_accepted(self):
        exp = ExposureModel([1.0, 0.4, 0.0])
        assert [f.name for f in dataclasses.fields(exp)] == ["weights"]
        assert exp.K == 2
        assert exp.total_exposure == pytest.approx(1.4)

    def test_exposed_ranks_are_the_positive_weights(self):
        assert ExposureModel.make("inverse", 6, 4).K == 4
        assert ExposureModel.make("dcg", 6, 10).K == 6
        assert ExposureModel([0.0, 0.0]).K == 0
        # e(k) = exp(-(k - 1)) underflows to 0 past rank 746, whatever the cutoff
        exp = ExposureModel.make("exponential", 800, 800)
        assert exp.K < 800
        assert exp.K == np.count_nonzero(exp.weights)

    @pytest.mark.parametrize("kind", ["custom", "Inverse", ["inverse"], None])
    def test_make_rejects_an_unknown_kind(self, kind):
        with pytest.raises(InputError, match="unknown exposure kind"):
            ExposureModel.make(kind, 4, 2)

    def test_make_rejects_a_cutoff_below_one(self):
        with pytest.raises(InputError, match="cutoff must be >= 1"):
            ExposureModel.make("inverse", 4, 0)


class TestCheckSize:
    def test_bound_is_two_to_the_28_entries_per_user(self):
        check_size(2**14)
        with pytest.raises(SizeError, match=str(MAX_ENTRIES)):
            check_size(2**14 + 1)


class TestUserUtility:
    def test_toy_utility_max(self, toy_market):
        rel, exp = toy_market
        assert user_utility(solve_utility_max(rel, exp), rel, exp) == pytest.approx(1.30)

    def test_toy_uniform(self, toy_market):
        rel, exp = toy_market
        assert user_utility(solve_uniform(2, 2), rel, exp) == pytest.approx(1.00)

    def test_zero_relevance(self):
        rel = RelevanceMatrix(np.zeros((2, 3)))
        exp = ExposureModel.make("inverse", 3, 2)
        assert user_utility(solve_uniform(2, 3), rel, exp) == 0.0

    def test_dimension_mismatch(self, toy_market):
        rel, exp = toy_market
        with pytest.raises(DimensionError):
            user_utility(solve_uniform(3, 2), rel, exp)


class TestItemImpact:
    def test_toy_uniform(self, toy_market):
        rel, exp = toy_market
        imp = item_impact(solve_uniform(2, 2), rel, exp, RW)
        assert np.allclose(imp, [0.65, 0.35])

    def test_toy_expo_fair(self, toy_market):
        rel, exp = toy_market
        policy, _ = solve_expo_fair(rel, exp)
        assert np.allclose(item_impact(policy, rel, exp, RW), [0.95, 0.28])

    def test_toy_nsw(self, toy_market):
        rel, exp = toy_market
        policy, _ = solve_nsw(rel, exp)
        assert np.allclose(item_impact(policy, rel, exp, RW), [0.8, 0.4], atol=1e-9)


class TestAmortizedExposure:
    def test_toy_utility_max(self, toy_market):
        rel, exp = toy_market
        assert np.allclose(amortized_exposure(solve_utility_max(rel, exp), exp), [2.0, 0.0])

    def test_toy_expo_fair(self, toy_market):
        rel, exp = toy_market
        policy, _ = solve_expo_fair(rel, exp)
        assert np.allclose(amortized_exposure(policy, exp), [1.3, 0.7])

    def test_uniform_symmetry(self):
        exp = ExposureModel.make("inverse", 4, 4)
        expo = amortized_exposure(solve_uniform(3, 4), exp)
        assert np.allclose(expo, 3 * exp.total_exposure / 4)


class TestMerit:
    def test_toy(self, toy_market):
        rel, _ = toy_market
        assert np.allclose(merit(rel), [1.3, 0.7])

    def test_zero_iff_zero_column(self):
        rel = RelevanceMatrix([[0.4, 0.0], [0.1, 0.0]])
        mer = merit(rel)
        assert mer[1] == 0.0 and mer[0] > 0.0


@settings(max_examples=30, deadline=None)
@given(m=st.integers(1, 8), n=st.integers(2, 8), cutoff=st.integers(1, 8),
       seed=st.integers(0, 10**6))
def test_measurement_invariants(m, n, cutoff, seed):
    rng = np.random.default_rng(seed)
    rel = RelevanceMatrix(rng.uniform(0, 1, (m, n)))
    exp = ExposureModel.make("inverse", n, min(cutoff, n))
    policy = random_policy(m, n, seed)

    # utility decomposes into relevance-weighted impacts
    assert user_utility(policy, rel, exp) == pytest.approx(
        item_impact(policy, rel, exp, RW).sum(), abs=1e-9)
    # total exposure is conserved
    assert amortized_exposure(policy, exp).sum() == pytest.approx(
        m * exp.total_exposure, abs=1e-6)
    # the envy diagonal is the impact vector, and exposure-only impact
    # coincides with amortized exposure
    assert np.array_equal(np.diagonal(envy_matrix(policy, rel, exp, RW)),
                          item_impact(policy, rel, exp, RW))
    assert np.array_equal(item_impact(policy, rel, exp, XO),
                          amortized_exposure(policy, exp))
