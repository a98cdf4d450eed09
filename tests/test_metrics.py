"""Envy, dominance and report aggregation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nswrank import (
    ExposureModel,
    ImpactFunction,
    NswConfig,
    RelevanceMatrix,
    SizeError,
    ZeroMeritError,
    envy_matrix,
    fairness_report,
    item_impact,
    max_envy_per_item,
    mean_max_envy,
    solve_expo_fair,
    solve_nsw,
    solve_uniform,
    solve_utility_max,
    user_utility,
    weighted_envy_matrix,
)

from nswrank import core
from nswrank.metrics import _envy_grid

from conftest import random_policy

RW = ImpactFunction.RELEVANCE_WEIGHTED
XO = ImpactFunction.EXPOSURE_ONLY


class TestEnvyMatrix:
    def test_toy_expo_fair_row(self, toy_market):
        rel, exp = toy_market
        policy, _ = solve_expo_fair(rel, exp)
        em = envy_matrix(policy, rel, exp)
        assert np.allclose(em[1], [0.42, 0.28])

    def test_uniform_rows_constant(self, toy_market):
        rel, exp = toy_market
        em = envy_matrix(solve_uniform(2, 2), rel, exp)
        assert np.allclose(em[:, 0], em[:, 1])

    def test_toy_nsw_diagonal_dominates(self, toy_market):
        rel, exp = toy_market
        policy, _ = solve_nsw(rel, exp)
        em = envy_matrix(policy, rel, exp)
        assert np.allclose(np.diagonal(em), [0.8, 0.4], atol=1e-8)
        assert np.allclose(em[0, 1], 0.5, atol=1e-8)
        assert np.allclose(em[1, 0], 0.3, atol=1e-8)
        assert np.all(em.max(axis=1) <= np.diagonal(em) + 1e-8)

    def test_diagonal_equals_item_impact_exactly(self, toy_market):
        rel, exp = toy_market
        policy, _ = solve_expo_fair(rel, exp)
        em = envy_matrix(policy, rel, exp)
        assert np.array_equal(np.diagonal(em), item_impact(policy, rel, exp))

    def test_grid_past_the_size_bound_is_a_size_error(self, toy_market,
                                                      monkeypatch):
        # refused before the n x n einsum allocates
        rel, exp = toy_market
        policy = solve_uniform(rel.m, rel.n)
        monkeypatch.setattr(core, "MAX_ENTRIES", rel.n ** 2 - 1)
        for audit in (envy_matrix, fairness_report):
            with pytest.raises(SizeError, match=f"over {rel.n} items"):
                audit(policy, rel, exp)
        monkeypatch.setattr(core, "MAX_ENTRIES", rel.n ** 2)
        fairness_report(policy, rel, exp)


@settings(max_examples=100, deadline=None)
@given(m=st.integers(1, 30), n=st.integers(2, 30), seed=st.integers(0, 2**32 - 1))
def test_envy_grid_is_the_column_loop_bit_for_bit(m, n, seed):
    # entries spread over eight decades, so that another summation order
    # over users would round differently
    rng = np.random.default_rng(seed)
    weights = rng.random((m, n)) * 10.0 ** rng.uniform(-4, 4, (m, n))
    prof = rng.random((m, n)) * 10.0 ** rng.uniform(-4, 4, (m, n))
    same = np.repeat(prof[:, :1], n, axis=1)   # every item's allocation equal
    for p in (prof, same):
        loop = np.stack([np.einsum("ui,u->i", weights, p[:, j])
                         for j in range(n)], axis=1)
        grid = _envy_grid(weights, p)
        assert np.array_equal(grid, loop)
        assert np.array_equal(np.diagonal(grid),
                              np.einsum("ui,ui->i", weights, p))
    assert np.all(max_envy_per_item(_envy_grid(weights, same)) == 0.0)


class TestMeanMaxEnvy:
    def test_toy_expo_fair(self, toy_market):
        rel, exp = toy_market
        policy, _ = solve_expo_fair(rel, exp)
        assert mean_max_envy(envy_matrix(policy, rel, exp)) == pytest.approx(0.07)

    def test_uniform_is_envy_free(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            m, n = int(rng.integers(1, 8)), int(rng.integers(2, 8))
            rel = RelevanceMatrix(rng.uniform(0, 1, (m, n)))
            exp = ExposureModel.make("inverse", n, min(3, n))
            assert mean_max_envy(envy_matrix(solve_uniform(m, n), rel, exp)) == 0.0

    def test_toy_nsw(self, toy_market):
        rel, exp = toy_market
        policy, _ = solve_nsw(rel, exp)
        assert mean_max_envy(envy_matrix(policy, rel, exp)) <= 1e-8

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(9)
        rel = RelevanceMatrix(rng.uniform(0, 1, (4, 5)))
        exp = ExposureModel.make("dcg", 5, 3)
        policy = solve_utility_max(rel, exp)
        assert mean_max_envy(envy_matrix(policy, rel, exp)) >= 0.0


def dominance(policy, rel, exp):
    report = fairness_report(policy, rel, exp)
    return report.pct_improved_10, report.pct_decreased_10


class TestDominanceStats:
    def test_toy_utility_max(self, toy_market):
        rel, exp = toy_market
        policy = solve_utility_max(rel, exp)
        assert dominance(policy, rel, exp) == (50.0, 50.0)

    def test_uniform_vs_itself(self, toy_market):
        rel, exp = toy_market
        assert dominance(solve_uniform(2, 2), rel, exp) == (0.0, 0.0)

    def test_toy_nsw(self, toy_market):
        rel, exp = toy_market
        policy, _ = solve_nsw(rel, exp)
        assert dominance(policy, rel, exp) == (100.0, 0.0)

    def test_pct_sum_bounded(self):
        rng = np.random.default_rng(2)
        rel = RelevanceMatrix(rng.uniform(0.1, 1, (5, 6)))
        exp = ExposureModel.make("inverse", 6, 2)
        for policy in (solve_utility_max(rel, exp), solve_nsw(rel, exp)[0]):
            up, down = dominance(policy, rel, exp)
            assert 0.0 <= up + down <= 100.0 + 1e-9


class TestWeightedEnvyMatrix:
    def test_alpha_zero_reduces_to_envy_matrix(self, toy_market):
        rel, exp = toy_market
        policy, _ = solve_expo_fair(rel, exp)
        assert np.array_equal(weighted_envy_matrix(policy, rel, exp, RW, 0.0),
                              envy_matrix(policy, rel, exp, RW))

    def test_expo_fair_exposure_only_equity(self, toy_market):
        # exposure proportional to merit makes every column of the weighted
        # grid the same constant, so merit-weighted envy vanishes
        rel, exp = toy_market
        policy, _ = solve_expo_fair(rel, exp)
        wem = weighted_envy_matrix(policy, rel, exp, XO, 1.0)
        assert np.allclose(wem, 1.0, atol=1e-9)
        assert np.all(wem.max(axis=1) - np.diagonal(wem) <= 1e-9)

    def test_alpha_nsw_weighted_envy_free(self, toy_market):
        rel, exp = toy_market
        policy, _ = solve_nsw(rel, exp, NswConfig(alpha=1.0))
        wem = weighted_envy_matrix(policy, rel, exp, RW, 1.0)
        assert np.allclose(np.diagonal(wem), [0.845 / 1.3, 0.364 / 0.7], atol=1e-6)
        assert np.all(wem.max(axis=1) - np.diagonal(wem) <= 1e-6)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -0.5])
    def test_alpha_out_of_range_rejected(self, alpha):
        # NaN would give an all-NaN grid and inf an all-zero, envy-free one
        rng = np.random.default_rng(0)
        rel = RelevanceMatrix(rng.uniform(0.1, 1.0, (6, 4)))
        exp = ExposureModel.make("inverse", 4, 2)
        with pytest.raises(ValueError, match="finite and >= 0"):
            weighted_envy_matrix(solve_uniform(6, 4), rel, exp, RW, alpha)

    def test_zero_merit_rejected(self):
        rel = RelevanceMatrix([[0.5, 0.0], [0.5, 0.0]])
        exp = ExposureModel.make("inverse", 2, 1)
        with pytest.raises(ZeroMeritError):
            weighted_envy_matrix(solve_uniform(2, 2), rel, exp, RW, 1.0)


class TestFairnessReport:
    def test_toy_expo_fair(self, toy_market):
        rel, exp = toy_market
        policy, _ = solve_expo_fair(rel, exp)
        report = fairness_report(policy, rel, exp)
        assert report.mean_max_envy == pytest.approx(0.07)
        assert report.user_utility == pytest.approx(1.23)
        assert np.allclose(report.per_item_impact, [0.95, 0.28])

    def test_uniform_report(self, toy_market):
        rel, exp = toy_market
        report = fairness_report(solve_uniform(2, 2), rel, exp)
        assert report.mean_max_envy == 0.0
        assert report.pct_improved_10 == 0.0
        assert report.pct_decreased_10 == 0.0

    def test_toy_nsw(self, toy_market):
        rel, exp = toy_market
        policy, _ = solve_nsw(rel, exp)
        report = fairness_report(policy, rel, exp)
        assert report.mean_max_envy <= 1e-8
        assert report.pct_decreased_10 == 0.0
        assert report.user_utility == pytest.approx(1.20, abs=1e-8)

    def test_deterministic(self, toy_market):
        rel, exp = toy_market
        policy, _ = solve_expo_fair(rel, exp)
        a = fairness_report(policy, rel, exp)
        b = fairness_report(policy, rel, exp)
        assert a.mean_max_envy == b.mean_max_envy
        assert np.array_equal(a.per_item_impact, b.per_item_impact)
        assert np.array_equal(a.max_envy_per_item, b.max_envy_per_item)

    def test_zero_merit_items_excluded_from_ratios(self):
        rel = RelevanceMatrix([[0.6, 0.0], [0.4, 0.0]])
        exp = ExposureModel.make("inverse", 2, 1)
        report = fairness_report(solve_utility_max(rel, exp), rel, exp)
        assert report.excluded_items == (1,)
        assert np.isnan(report.per_item_impact_ratio_vs_uniform[1])
        assert report.pct_improved_10 == 50.0


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 7), n=st.integers(2, 7), cutoff=st.integers(1, 7),
       kind=st.sampled_from(["inverse", "exponential", "dcg"]),
       vfn=st.sampled_from([RW, XO]), zero_cols=st.integers(0, 2),
       seed=st.integers(0, 10**6))
def test_report_matches_uniform_policy_reference(m, n, cutoff, kind, vfn,
                                                 zero_cols, seed):
    # the report's closed-form uniform baseline against the impact of the
    # uniform policy that solve_uniform returns, with some all-zero
    # relevance columns
    rng = np.random.default_rng(seed)
    values = rng.uniform(0, 1, (m, n))
    values[:, rng.permutation(n)[:min(zero_cols, n - 1)]] = 0.0
    rel = RelevanceMatrix(values)
    exp = ExposureModel.make(kind, n, min(cutoff, n))
    policy = random_policy(m, n, seed)
    report = fairness_report(policy, rel, exp, vfn)

    imp = item_impact(policy, rel, exp, vfn)
    imp_unif = item_impact(solve_uniform(m, n), rel, exp, vfn)
    valid = imp_unif > 0
    ratios = np.full(n, np.nan)
    ratios[valid] = imp[valid] / imp_unif[valid]
    assert report.excluded_items == tuple(np.nonzero(~valid)[0].tolist())
    assert np.array_equal(np.isnan(report.per_item_impact_ratio_vs_uniform),
                          ~valid)
    assert np.allclose(report.per_item_impact_ratio_vs_uniform[valid],
                       ratios[valid], rtol=1e-12, atol=0.0)
    assert report.pct_improved_10 == 100.0 / n * np.count_nonzero(
        ratios[valid] >= 1.1)
    assert report.pct_decreased_10 == 100.0 / n * np.count_nonzero(
        ratios[valid] <= 0.9)
    # the rest of the report is what the single-purpose functions give
    assert np.array_equal(report.per_item_impact, imp)
    assert report.user_utility == user_utility(policy, rel, exp)
    assert np.array_equal(report.max_envy_per_item,
                          max_envy_per_item(envy_matrix(policy, rel, exp, vfn)))
