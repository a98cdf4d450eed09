"""Synthetic market generators."""

import numpy as np
import pytest

from nswrank import (InputError, SizeError, SyntheticConfig,
                     adversarial_market, generate_market, merit)
from nswrank.core import MAX_ENTRIES


class TestGenerateMarket:
    def test_no_popularity_bias_has_uniform_mean(self):
        rel_true, _ = generate_market(SyntheticConfig(m=100, n=50, lam=0.0, seed=1))
        assert abs(rel_true.values.mean() - 0.5) <= 0.03

    def test_zero_noise_gives_identical_prediction(self):
        rel_true, rel_pred = generate_market(
            SyntheticConfig(m=20, n=10, noise_c=0.0, seed=2))
        assert np.array_equal(rel_true.values, rel_pred.values)

    def test_full_popularity_bias_is_monotone_per_item(self):
        cfg = SyntheticConfig(m=30, n=10, lam=1.0, seed=3)
        rel_true, _ = generate_market(cfg)
        diffs = np.diff(rel_true.values, axis=0)
        decreasing = int(np.sum(np.all(diffs < 0, axis=0)))
        increasing = int(np.sum(np.all(diffs > 0, axis=0)))
        assert decreasing == round(0.7 * 10)
        assert decreasing + increasing == 10

    def test_reproducible_bitwise(self):
        cfg = SyntheticConfig(m=15, n=8, lam=0.4, noise_c=0.1, seed=77)
        a_true, a_pred = generate_market(cfg)
        b_true, b_pred = generate_market(cfg)
        assert np.array_equal(a_true.values, b_true.values)
        assert np.array_equal(a_pred.values, b_pred.values)

    def test_values_in_unit_interval(self):
        for seed in range(3):
            cfg = SyntheticConfig(m=25, n=12, lam=0.9, noise_c=0.3, seed=seed)
            rel_true, rel_pred = generate_market(cfg)
            for vals in (rel_true.values, rel_pred.values):
                assert vals.min() >= 0.0 and vals.max() <= 1.0

    def test_invalid_lambda(self):
        with pytest.raises(ValueError):
            SyntheticConfig(lam=1.5)

    @pytest.mark.parametrize("field", [{"noise_c": float("nan")},
                                       {"noise_c": float("inf")},
                                       {"noise_c": -0.1}, {"seed": -1}],
                             ids=["noise-nan", "noise-inf", "noise-negative",
                                  "seed-negative"])
    def test_out_of_range_is_an_input_error(self, field):
        with pytest.raises(InputError):
            SyntheticConfig(**field)


    def test_noise_whose_draw_overflows_is_an_input_error(self):
        # uniform(-c, c) needs 2c to be finite
        generate_market(SyntheticConfig(m=2, n=3, noise_c=8.9e307))
        with pytest.raises(InputError, match="at most 8.99e"):
            SyntheticConfig(noise_c=9e307)

    def test_size_bound_is_checked_before_any_allocation(self):
        # only the config is built: a market this large is never generated
        SyntheticConfig(m=MAX_ENTRIES // 4, n=4)
        with pytest.raises(SizeError):
            SyntheticConfig(m=MAX_ENTRIES // 4 + 1, n=4)


class TestAdversarialMarket:
    def test_two_by_two_values(self):
        rel = adversarial_market(2)
        assert np.allclose(rel.values, [[1.0, 0.5], [0.5, 0.25]])

    def test_merit_closed_form(self):
        # merit_i = (n+1)(n-i+1) / (2n)
        rel = adversarial_market(4)
        assert np.allclose(merit(rel), [2.5, 1.875, 1.25, 0.625])
        for n in (3, 8):
            idx = np.arange(1, n + 1)
            assert np.allclose(merit(adversarial_market(n)),
                               (n + 1) * (n - idx + 1) / (2 * n))

    def test_corner_values(self):
        for n in (2, 5, 9):
            rel = adversarial_market(n)
            assert rel.values[0, 0] == pytest.approx(1.0)
            assert rel.values[n - 1, n - 1] == pytest.approx(1.0 / n**2)
